package flow

import (
	"math"
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
)

// rig is a minimal fluid world: an engine, a network, and a fabric, with
// helpers to attach fluid hosts whose deliveries are captured.
type rig struct {
	t      *testing.T
	eng    *sim.Engine
	net    *netem.Network
	fab    *Fabric
	nextIP netem.IP
}

type capture struct {
	at   []time.Duration
	size []int
}

func newRig(t *testing.T, cfg Config, netCfg netem.NetworkConfig) *rig {
	eng := sim.NewEngine(sim.WithSeed(1))
	net := netem.NewNetwork(eng, netCfg)
	return &rig{t: t, eng: eng, net: net, fab: NewFabric(eng, net, cfg), nextIP: 10}
}

func (r *rig) fluidHost(cfg netem.AccessLinkConfig) (*netem.Iface, *Link, *capture) {
	ip := r.nextIP
	r.nextIP++
	link := r.fab.NewLink(ip, cfg)
	cap := &capture{}
	ifc := r.net.Attach(ip, link, netem.HandlerFunc(func(pkt *netem.Packet) {
		cap.at = append(cap.at, r.eng.Now())
		cap.size = append(cap.size, pkt.Size)
	}))
	return ifc, link, cap
}

func (r *rig) packetHost(cfg netem.AccessLinkConfig) (*netem.Iface, *capture) {
	ip := r.nextIP
	r.nextIP++
	link := netem.NewAccessLink(r.eng, cfg)
	cap := &capture{}
	ifc := r.net.Attach(ip, link, netem.HandlerFunc(func(pkt *netem.Packet) {
		cap.at = append(cap.at, r.eng.Now())
		cap.size = append(cap.size, pkt.Size)
	}))
	return ifc, cap
}

func (r *rig) send(from, to *netem.Iface, size int) {
	pkt := r.net.NewPacket()
	pkt.Src = netem.Addr{IP: from.IP()}
	pkt.Dst = netem.Addr{IP: to.IP()}
	pkt.Size = size
	from.Send(pkt)
}

// audit fails the test on any fabric invariant violation.
func (r *rig) audit() {
	r.t.Helper()
	r.fab.CheckState(func(invariant, detail string) {
		r.t.Fatalf("invariant %s violated at %v: %s", invariant, r.eng.Now(), detail)
	})
}

func near(t *testing.T, what string, got, want, tol time.Duration) {
	t.Helper()
	d := got - want
	if d < 0 {
		d = -d
	}
	if d > tol {
		t.Fatalf("%s: got %v, want %v (±%v)", what, got, want, tol)
	}
}

// A single end-to-end fluid packet crosses at min(src up, dst down) and
// arrives after serialization + both access delays + the cloud delay, in
// one engine event.
func TestEndToEndSingleFlowTiming(t *testing.T) {
	r := newRig(t, Config{EndToEnd: true}, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond})
	a, _, _ := r.fluidHost(netem.AccessLinkConfig{
		UpRate: 100 * netem.KBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
	})
	b, _, capB := r.fluidHost(netem.AccessLinkConfig{
		UpRate: 1 * netem.MBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
	})
	fired := r.eng.Stats().Counter("sim.events_fired")
	r.eng.Schedule(0, func() { r.send(a, b, 1000) })
	r.eng.Run()
	if len(capB.at) != 1 {
		t.Fatalf("got %d deliveries, want 1", len(capB.at))
	}
	// 1000 B at 100 KB/s = 10 ms serialization, + 1 ms + 15 ms + 1 ms.
	near(t, "delivery", capB.at[0], 27*time.Millisecond, time.Microsecond)
	// The send closure plus the stream's one delivery firing.
	if got := fired.Value(); got > 2 {
		t.Fatalf("end-to-end delivery cost %d events, want ≤ 2", got)
	}
}

// A burst of packets whose delivery times land together drains in a single
// timer firing — the batching that turns per-packet events into per-flow
// events.
func TestBurstBatchesIntoFewEvents(t *testing.T) {
	r := newRig(t, Config{EndToEnd: true}, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond})
	a, _, _ := r.fluidHost(netem.AccessLinkConfig{
		UpRate: 100 * netem.KBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
	})
	b, _, capB := r.fluidHost(netem.AccessLinkConfig{
		UpRate: 1 * netem.MBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
	})
	fired := r.eng.Stats().Counter("sim.events_fired")
	const n = 10
	r.eng.Schedule(0, func() {
		for i := 0; i < n; i++ {
			r.send(a, b, 1000)
		}
	})
	r.eng.Run()
	if len(capB.at) != n {
		t.Fatalf("got %d deliveries, want %d", len(capB.at), n)
	}
	// Packet i crosses at 10(i+1) ms and arrives 17 ms later; each arrival
	// is 10 ms apart so they cannot all batch, but the path delay lets the
	// timer skip nothing: n packets must cost well under the 5n events of
	// the packet path. Allow the send event + one firing per packet.
	if got := fired.Value(); got > n+1 {
		t.Fatalf("burst cost %d events for %d packets, want ≤ %d", got, n, n+1)
	}
	near(t, "first delivery", capB.at[0], 27*time.Millisecond, time.Microsecond)
	near(t, "last delivery", capB.at[n-1], time.Duration(10*n+17)*time.Millisecond, time.Microsecond)
	for i := 1; i < len(capB.at); i++ {
		if capB.at[i] < capB.at[i-1] {
			t.Fatalf("deliveries out of order: %v after %v", capB.at[i], capB.at[i-1])
		}
	}
}

// An off-grid delivery time rounds UP to the next calendar tick — late by
// less than one quantum, never early — while an Exact fabric delivers at the
// precise crossing + path time.
func TestQuantizedDeliveryRoundsUp(t *testing.T) {
	run := func(quantum time.Duration) time.Duration {
		r := newRig(t, Config{EndToEnd: true, Quantum: quantum}, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond})
		a, _, _ := r.fluidHost(netem.AccessLinkConfig{
			UpRate: 100 * netem.KBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
		})
		b, _, capB := r.fluidHost(netem.AccessLinkConfig{
			UpRate: 1 * netem.MBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
		})
		r.eng.Schedule(0, func() { r.send(a, b, 995) })
		r.eng.Run()
		if len(capB.at) != 1 {
			t.Fatalf("got %d deliveries, want 1", len(capB.at))
		}
		return capB.at[0]
	}
	// 995 B at 100 KB/s = 9.95 ms serialization + 17 ms path = 26.95 ms.
	exact := run(Exact)
	near(t, "exact delivery", exact, 26950*time.Microsecond, time.Nanosecond)
	quantized := run(0) // DefaultQuantum
	if quantized < exact {
		t.Fatalf("quantized delivery %v earlier than exact %v", quantized, exact)
	}
	if quantized-exact >= DefaultQuantum {
		t.Fatalf("quantized delivery %v late by %v, want < %v", quantized, quantized-exact, DefaultQuantum)
	}
	if quantized%DefaultQuantum != 0 {
		t.Fatalf("quantized delivery %v not on the %v grid", quantized, DefaultQuantum)
	}
}

// Deliveries from different streams that land on the same calendar tick
// share one engine event — the cross-stream batching that caps flow-mode
// event counts at the tick rate instead of the packet rate.
func TestCalendarSharesTickAcrossStreams(t *testing.T) {
	r := newRig(t, Config{EndToEnd: true, Quantum: 10 * time.Millisecond}, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond})
	a1, _, _ := r.fluidHost(netem.AccessLinkConfig{
		UpRate: 100 * netem.KBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
	})
	a2, _, _ := r.fluidHost(netem.AccessLinkConfig{
		UpRate: 200 * netem.KBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
	})
	b, _, capB := r.fluidHost(netem.AccessLinkConfig{
		UpRate: 1 * netem.MBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
	})
	fired := r.eng.Stats().Counter("sim.events_fired")
	r.eng.Schedule(0, func() {
		r.send(a1, b, 1000) // exact delivery 27 ms → tick 30 ms
		r.send(a2, b, 1000) // exact delivery 22 ms → tick 30 ms
	})
	r.eng.Run()
	if len(capB.at) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(capB.at))
	}
	for i, at := range capB.at {
		if at != 30*time.Millisecond {
			t.Fatalf("delivery %d at %v, want the shared 30ms tick", i, at)
		}
	}
	// The send closure plus ONE bucket firing for both streams.
	if got := fired.Value(); got != 2 {
		t.Fatalf("two same-tick deliveries cost %d events, want 2", got)
	}
}

// Max-min fairness: a stream capped by its own uplink leaves the rest of a
// shared downlink to its competitor instead of stranding an equal split.
func TestWaterfillMaxMin(t *testing.T) {
	r := newRig(t, Config{EndToEnd: true}, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond})
	a1, _, _ := r.fluidHost(netem.AccessLinkConfig{
		UpRate: 10 * netem.KBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
	})
	a2, _, _ := r.fluidHost(netem.AccessLinkConfig{
		UpRate: 1 * netem.MBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
	})
	b, _, _ := r.fluidHost(netem.AccessLinkConfig{
		UpRate: 1 * netem.MBps, DownRate: 100 * netem.KBps, Delay: time.Millisecond,
	})
	rates := map[netem.IP]float64{}
	r.fab.OnStream(func(ev StreamEvent) {
		if ev.Kind == "rate" || ev.Kind == "open" {
			rates[ev.Src] = ev.Rate
		}
	})
	r.eng.Schedule(0, func() {
		for i := 0; i < 5; i++ {
			r.send(a1, b, 10000)
			r.send(a2, b, 10000)
		}
	})
	r.eng.RunUntil(100 * time.Millisecond)
	if got := rates[a1.IP()]; math.Abs(got-10000) > 1 {
		t.Fatalf("capped stream rate %.0f B/s, want 10000", got)
	}
	// Max-min hands the capped stream's unused share to the other: 90 KB/s,
	// where an equal split would strand it at 50.
	if got := rates[a2.IP()]; math.Abs(got-90000) > 1 {
		t.Fatalf("unconstrained stream rate %.0f B/s, want 90000 (max-min), not 50000 (equal split)", got)
	}
}

// The per-pipe backlog cap drop-tails exactly like a packet queue, reported
// through OnDrop and the conservation ledger.
func TestQueueOverflowDrops(t *testing.T) {
	r := newRig(t, Config{EndToEnd: true}, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond})
	a, _, _ := r.fluidHost(netem.AccessLinkConfig{
		UpRate: 100 * netem.KBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond, QueueCap: 5,
	})
	b, _, capB := r.fluidHost(netem.AccessLinkConfig{
		UpRate: 1 * netem.MBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
	})
	drops := 0
	r.fab.OnDrop(func(pkt *netem.Packet, reason netem.DropReason) {
		if reason != netem.DropQueueOverflow {
			t.Fatalf("unexpected drop reason %v", reason)
		}
		drops++
	})
	r.eng.Schedule(0, func() {
		for i := 0; i < 10; i++ {
			r.send(a, b, 1000)
		}
	})
	r.eng.Run()
	if drops != 5 {
		t.Fatalf("got %d drops, want 5", drops)
	}
	if len(capB.at) != 5 {
		t.Fatalf("got %d deliveries, want 5", len(capB.at))
	}
	if got := r.eng.Stats().Counter("flow.drops.queue_overflow").Value(); got != 5 {
		t.Fatalf("flow.drops.queue_overflow = %d, want 5", got)
	}
}

// SetRate reshapes in-flight streams: fluid served before the change is
// kept, the remainder crosses at the new rate.
func TestSetRateResharesMidStream(t *testing.T) {
	r := newRig(t, Config{EndToEnd: true}, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond})
	a, la, _ := r.fluidHost(netem.AccessLinkConfig{
		UpRate: 100 * netem.KBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
	})
	b, _, capB := r.fluidHost(netem.AccessLinkConfig{
		UpRate: 1 * netem.MBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
	})
	r.eng.Schedule(0, func() {
		r.send(a, b, 10000)
		r.send(a, b, 10000)
	})
	// At 50 ms the first packet has 5000 B across; the rest crosses at
	// 50 KB/s: packet 1 at 50+100 ms, packet 2 at 150+200 ms, +17 ms path.
	r.eng.Schedule(50*time.Millisecond, func() { la.SetRate(50*netem.KBps, 0) })
	r.eng.Run()
	if len(capB.at) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(capB.at))
	}
	near(t, "first delivery", capB.at[0], 167*time.Millisecond, time.Microsecond)
	near(t, "second delivery", capB.at[1], 367*time.Millisecond, time.Microsecond)
}

// A fluid source sending to a packet-level destination crosses the fluid
// uplink, then rides the normal cloud + access-link path — and lands at the
// same time a fully packet-level run delivers.
func TestBoundaryLegMatchesPacketPath(t *testing.T) {
	runOne := func(fluid bool) time.Duration {
		r := newRig(t, Config{EndToEnd: true}, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond})
		cfg := netem.AccessLinkConfig{
			UpRate: 100 * netem.KBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
		}
		var a *netem.Iface
		if fluid {
			a, _, _ = r.fluidHost(cfg)
		} else {
			a, _ = r.packetHost(cfg)
		}
		b, capB := r.packetHost(netem.AccessLinkConfig{
			UpRate: 1 * netem.MBps, DownRate: 500 * netem.KBps, Delay: 2 * time.Millisecond,
		})
		r.eng.Schedule(0, func() { r.send(a, b, 1000) })
		r.eng.Run()
		if len(capB.at) != 1 {
			t.Fatalf("got %d deliveries, want 1", len(capB.at))
		}
		return capB.at[0]
	}
	fluidAt, packetAt := runOne(true), runOne(false)
	near(t, "boundary delivery", fluidAt, packetAt, time.Microsecond)
}

// A packet-level source delivering into a fluid destination takes the
// SendDown leg: cloud first, then a down-pipe-only stream.
func TestDownLegFromPacketSource(t *testing.T) {
	r := newRig(t, Config{EndToEnd: true}, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond})
	a, _ := r.packetHost(netem.AccessLinkConfig{
		UpRate: 100 * netem.KBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
	})
	b, _, capB := r.fluidHost(netem.AccessLinkConfig{
		UpRate: 1 * netem.MBps, DownRate: 200 * netem.KBps, Delay: 2 * time.Millisecond,
	})
	r.eng.Schedule(0, func() { r.send(a, b, 1000) })
	r.eng.Run()
	if len(capB.at) != 1 {
		t.Fatalf("got %d deliveries, want 1", len(capB.at))
	}
	// 10 ms up serialization + 1 ms + 15 ms cloud + 5 ms down crossing + 2 ms.
	near(t, "delivery", capB.at[0], 33*time.Millisecond, time.Microsecond)
}

// Deliveries to an address that moved away (mobility, detach) blackhole with
// DropNoRoute, exactly like the cloud's terminal route check.
func TestEndToEndNoRouteDrop(t *testing.T) {
	r := newRig(t, Config{EndToEnd: true}, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond})
	a, _, _ := r.fluidHost(netem.AccessLinkConfig{
		UpRate: 100 * netem.KBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
	})
	b, _, capB := r.fluidHost(netem.AccessLinkConfig{
		UpRate: 1 * netem.MBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
	})
	r.eng.Schedule(0, func() { r.send(a, b, 1000) })
	r.eng.Schedule(5*time.Millisecond, func() { r.net.Detach(b) })
	r.eng.Run()
	if len(capB.at) != 0 {
		t.Fatalf("got %d deliveries to a detached host, want 0", len(capB.at))
	}
	if got := r.eng.Stats().Counter("netem.drops.no_route").Value(); got != 1 {
		t.Fatalf("netem.drops.no_route = %d, want 1", got)
	}
}

// Partitioned pairs drop with DropPartitioned at delivery.
func TestEndToEndPartitionDrop(t *testing.T) {
	r := newRig(t, Config{EndToEnd: true}, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond})
	a, _, _ := r.fluidHost(netem.AccessLinkConfig{
		UpRate: 100 * netem.KBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
	})
	b, _, capB := r.fluidHost(netem.AccessLinkConfig{
		UpRate: 1 * netem.MBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
	})
	r.eng.Schedule(0, func() { r.send(a, b, 1000) })
	r.eng.Schedule(5*time.Millisecond, func() { r.net.SetPairBlocked(a.IP(), b.IP(), true) })
	r.eng.Run()
	if len(capB.at) != 0 {
		t.Fatalf("got %d deliveries across a partition, want 0", len(capB.at))
	}
	if got := r.eng.Stats().Counter("netem.drops.partitioned").Value(); got != 1 {
		t.Fatalf("netem.drops.partitioned = %d, want 1", got)
	}
}

// TestAssertStreamReopenedAcrossPipes: a stream keyed by its peer's address
// must keep the pipes it opened with. A fluid link created for an address
// that already has an up-leg stream aimed at it would re-open that stream
// end to end; the fabric refuses, with no checker attached.
func TestAssertStreamReopenedAcrossPipes(t *testing.T) {
	r := newRig(t, Config{EndToEnd: true}, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond})
	cfg := netem.AccessLinkConfig{UpRate: 1 * netem.MBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond}
	a, _, _ := r.fluidHost(cfg)
	b, _ := r.packetHost(cfg) // not fluid: a's stream to b crosses a's up pipe only
	r.send(a, b, 1000)
	r.fab.NewLink(b.IP(), cfg)
	defer func() {
		if msg, _ := recover().(string); msg != "flow: stream re-opened across different pipes" {
			t.Fatalf("panic = %q, want the stream re-open check", msg)
		}
	}()
	r.send(a, b, 1000)
}

// Invariants hold mid-run and the ledger balances at the end.
func TestCheckStateClean(t *testing.T) {
	r := newRig(t, Config{EndToEnd: true}, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond})
	a1, _, _ := r.fluidHost(netem.AccessLinkConfig{
		UpRate: 50 * netem.KBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond, QueueCap: 4,
	})
	a2, _, _ := r.fluidHost(netem.AccessLinkConfig{
		UpRate: 300 * netem.KBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
	})
	b, _, _ := r.fluidHost(netem.AccessLinkConfig{
		UpRate: 1 * netem.MBps, DownRate: 200 * netem.KBps, Delay: time.Millisecond,
	})
	r.eng.Schedule(0, func() {
		for i := 0; i < 8; i++ {
			r.send(a1, b, 2000)
			r.send(a2, b, 2000)
		}
	})
	for ms := 1; ms < 300; ms += 7 {
		r.eng.Schedule(time.Duration(ms)*time.Millisecond, r.audit)
	}
	r.eng.Run()
	r.audit()
}

// The same seed replays the same delivery timeline — including jittered
// cloud delays, whose draws happen at enqueue so recompute timing cannot
// perturb RNG consumption.
func TestDeterministicReplay(t *testing.T) {
	run := func() []time.Duration {
		r := newRig(t, Config{EndToEnd: true}, netem.NetworkConfig{
			CloudDelay: 15 * time.Millisecond, Jitter: 5 * time.Millisecond,
		})
		a1, _, _ := r.fluidHost(netem.AccessLinkConfig{
			UpRate: 40 * netem.KBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
		})
		a2, _, _ := r.fluidHost(netem.AccessLinkConfig{
			UpRate: 500 * netem.KBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
		})
		b, _, capB := r.fluidHost(netem.AccessLinkConfig{
			UpRate: 1 * netem.MBps, DownRate: 150 * netem.KBps, Delay: time.Millisecond,
		})
		r.eng.Schedule(0, func() {
			for i := 0; i < 6; i++ {
				r.send(a1, b, 1500)
				r.send(a2, b, 1500)
			}
		})
		r.eng.Run()
		return capB.at
	}
	first, second := run(), run()
	if len(first) != len(second) {
		t.Fatalf("replay delivered %d vs %d packets", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("delivery %d at %v vs %v", i, first[i], second[i])
		}
	}
}
