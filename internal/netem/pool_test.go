package netem

import (
	"strings"
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/sim"
)

// poolWorld builds two wired hosts on one network with a counting handler on
// host B, using pooled packets end to end.
func poolWorld(seed int64) (e *sim.Engine, n *Network, a, b *Iface, delivered *int) {
	e = sim.NewEngine(sim.WithSeed(seed))
	n = NewNetwork(e, NetworkConfig{CloudDelay: time.Millisecond})
	mk := func() *AccessLink {
		return NewAccessLink(e, AccessLinkConfig{
			UpRate: 1 * MBps, DownRate: 1 * MBps, Delay: time.Millisecond,
			QueueCap: 200, // the tests burst 100 packets at t=0
		})
	}
	count := new(int)
	a = n.Attach(1, mk(), nil)
	b = n.Attach(2, mk(), HandlerFunc(func(*Packet) { *count++ }))
	return e, n, a, b, count
}

func sendOne(n *Network, a *Iface, size int) {
	pkt := n.NewPacket()
	pkt.Dst = Addr{IP: 2}
	pkt.Size = size
	a.Send(pkt)
}

func TestPacketPoolRecyclesThroughDelivery(t *testing.T) {
	e, n, a, _, delivered := poolWorld(1)
	for i := 0; i < 100; i++ {
		sendOne(n, a, 1000)
	}
	e.Run()
	if *delivered != 100 {
		t.Fatalf("delivered = %d, want 100", *delivered)
	}
	if live := n.pool.live; live != 0 {
		t.Errorf("pool live = %d after drain, want 0 (leak)", live)
	}
	// A warmed second wave must be served entirely from the free-list.
	missesBefore := counterValue(t, e, "netem.pool.misses")
	for i := 0; i < 100; i++ {
		sendOne(n, a, 1000)
	}
	e.Run()
	missesAfter := counterValue(t, e, "netem.pool.misses")
	if missesAfter != missesBefore {
		t.Errorf("pool misses grew %d -> %d on a warmed run", missesBefore, missesAfter)
	}
}

func counterValue(t *testing.T, e *sim.Engine, name string) int64 {
	t.Helper()
	for _, c := range e.Stats().Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("counter %s not found", name)
	return 0
}

func TestPacketDoubleReleasePanics(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e, NetworkConfig{})
	pkt := n.NewPacket()
	pkt.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	pkt.Release()
}

// releaseInFlight sends one pooled packet from host 1 to host 2 across 10 ms
// access links and a 50 ms cloud, releases it at virtual time at — a
// use-after-release by its sender — and returns what the run panicked with.
// No checker is attached: the data path's generation checks always run.
func releaseInFlight(at time.Duration) (panicked any) {
	e := sim.NewEngine(sim.WithSeed(1))
	n := NewNetwork(e, NetworkConfig{CloudDelay: 50 * time.Millisecond})
	mk := func() *AccessLink {
		return NewAccessLink(e, AccessLinkConfig{UpRate: 1 * MBps, DownRate: 1 * MBps, Delay: 10 * time.Millisecond})
	}
	a := n.Attach(1, mk(), nil)
	n.Attach(2, mk(), HandlerFunc(func(*Packet) {}))
	pkt := n.NewPacket()
	pkt.Dst = Addr{IP: 2}
	pkt.Size = 1000
	a.Send(pkt)
	e.Schedule(at, pkt.Release)
	defer func() { panicked = recover() }()
	e.Run()
	return nil
}

// TestAssertReleasedDuringPropagation: a packet released while it crosses
// the uplink's propagation delay (serialized by ~1 ms, delivered at ~11 ms)
// fails the run at the hop.
func TestAssertReleasedDuringPropagation(t *testing.T) {
	got := releaseInFlight(6 * time.Millisecond)
	if msg, _ := got.(string); !strings.Contains(msg, "propagation delay (use-after-release)") {
		t.Fatalf("panic = %v, want the propagation hop's use-after-release", got)
	}
}

// TestAssertReleasedCrossingCloud: a packet released while it crosses the
// cloud (~11 ms to ~61 ms) fails the run at the cloud hop.
func TestAssertReleasedCrossingCloud(t *testing.T) {
	got := releaseInFlight(30 * time.Millisecond)
	if msg, _ := got.(string); !strings.Contains(msg, "crossing the cloud (use-after-release)") {
		t.Fatalf("panic = %v, want the cloud hop's use-after-release", got)
	}
}

// TestCloneAliasingRegression is the recycled-Packet aliasing regression
// test: a filter emits a clone carrying the payload and drops the original.
// The original's struct is recycled by the interface and reused for the next
// send; the in-flight clone must be unaffected.
func TestCloneAliasingRegression(t *testing.T) {
	e, n, a, b, _ := poolWorld(2)
	var got []string
	b.SetHandler(HandlerFunc(func(p *Packet) {
		got = append(got, p.Payload.(string))
	}))
	a.AddEgressFilter(FilterFunc(func(p *Packet, out []*Packet) []*Packet {
		c := p.Clone()
		return append(out, c) // original dropped -> recycled by the iface
	}))

	sendOne2 := func(payload string) {
		pkt := n.NewPacket()
		pkt.Dst = Addr{IP: 2}
		pkt.Size = 500
		pkt.Payload = payload
		a.Send(pkt)
	}
	// The second send reuses the first original's recycled struct while the
	// first clone is still in flight on the access link.
	sendOne2("first")
	sendOne2("second")
	e.Run()
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("delivered %v, want [first second]", got)
	}
	if live := n.pool.live; live != 0 {
		t.Errorf("pool live = %d, want 0", live)
	}
}

// TestFilterDropRecyclesStruct verifies the documented recycle point: a
// packet the filter does not forward goes back to the pool immediately.
func TestFilterDropRecyclesStruct(t *testing.T) {
	e, n, a, _, delivered := poolWorld(3)
	a.AddEgressFilter(FilterFunc(func(p *Packet, out []*Packet) []*Packet {
		return out // drop everything
	}))
	sendOne(n, a, 500)
	e.Run()
	if *delivered != 0 {
		t.Fatal("packet delivered through dropping filter")
	}
	if live := n.pool.live; live != 0 {
		t.Errorf("pool live = %d after filter drop, want 0", live)
	}
}

// TestZeroAllocPacketPath pins the tentpole invariant: a warmed steady-state
// enqueue -> serialize -> route -> deliver cycle performs zero heap
// allocations.
func TestZeroAllocPacketPath(t *testing.T) {
	e, n, a, _, delivered := poolWorld(4)
	// Warm the pools: packet free-list, event free-list, queue capacity,
	// route cache, hop pools.
	for i := 0; i < 50; i++ {
		sendOne(n, a, 1000)
	}
	e.Run()

	allocs := testing.AllocsPerRun(100, func() {
		sendOne(n, a, 1000)
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("packet path allocates %.1f per send, want 0", allocs)
	}
	if *delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// BenchmarkPacketPath measures the full netem hop: pooled packet through an
// access link, the cloud, and the destination link to a handler.
func BenchmarkPacketPath(b *testing.B) {
	e, n, a, _, _ := poolWorld(5)
	for i := 0; i < 50; i++ {
		sendOne(n, a, 1000)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sendOne(n, a, 1000)
		e.Run()
	}
}
