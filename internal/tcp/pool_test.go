package tcp

import (
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/wp2p/wp2p/internal/netem"
)

// TestSegmentPoolReuseAfterAck is the free-list contract test: once a data
// segment has been delivered and its ACK processed, both segment structs are
// back in their stacks' pools and a warmed transfer stops allocating new
// ones (tcp.pool.misses stays flat).
func TestSegmentPoolReuseAfterAck(t *testing.T) {
	w := newWorld(40)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, server := connect(t, w, sa, sb, 80)
	received := 0
	server.SetOnDeliver(func(n int) { received += n })

	// Warm: several bulk exchanges fill both free-lists and let cwnd grow
	// past the burst size, so later waves have the same peak flight.
	for i := 1; i <= 5; i++ {
		client.Write(100 * MSS)
		w.engine.RunFor(10 * time.Second)
		if received != i*100*MSS {
			t.Fatalf("warmup wave %d: received %d", i, received)
		}
	}
	misses := func() int64 {
		for _, c := range w.engine.Stats().Snapshot().Counters {
			if c.Name == "tcp.pool.misses" {
				return c.Value
			}
		}
		t.Fatal("tcp.pool.misses not found")
		return 0
	}
	before := misses()
	client.Write(100 * MSS)
	w.engine.RunFor(10 * time.Second)
	if received != 600*MSS {
		t.Fatalf("received %d", received)
	}
	if after := misses(); after != before {
		t.Errorf("segment pool misses grew %d -> %d on a warmed transfer", before, after)
	}
}

func TestSegmentDoubleReleasePanics(t *testing.T) {
	w := newWorld(41)
	s := w.wiredHost(1)
	seg := s.pool.Get()
	seg.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	seg.Release()
}

// TestAssertReleasedSegmentHandled: a segment already back in its free-list
// reaching HandlePacket fails at once, with no checker attached.
func TestAssertReleasedSegmentHandled(t *testing.T) {
	w := newWorld(45)
	s := w.wiredHost(1)
	seg := s.pool.Get()
	seg.Release()
	pkt := w.net.NewPacket()
	pkt.Dst = s.Addr(80)
	pkt.Payload = seg
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "use-after-release") {
			t.Fatalf("panic = %q, want HandlePacket's use-after-release", msg)
		}
	}()
	s.HandlePacket(pkt)
}

func TestSegmentSnapshotDetaches(t *testing.T) {
	w := newWorld(42)
	s := w.wiredHost(1)
	seg := s.pool.Get()
	seg.Seq, seg.Len, seg.Ack, seg.HasAck = 100, MSS, 50, true
	seg.Msgs = append(seg.Msgs, AppMessage{End: 100, Val: "x"})
	snap := seg.Snapshot()
	seg.Release()
	reused := s.pool.Get() // same struct, recycled
	reused.Seq, reused.Len = 999, 1
	if snap.Seq != 100 || snap.Len != MSS || snap.Ack != 50 || !snap.HasAck {
		t.Errorf("snapshot mutated by reuse: %+v", snap)
	}
	if snap.Msgs != nil {
		t.Error("snapshot retained Msgs framing")
	}
	if snap.String() == "" {
		t.Error("snapshot must format")
	}
}

// TestZeroAllocSendAckCycle pins the tentpole invariant on the transport:
// a warmed steady-state send -> deliver -> ack cycle on an established
// connection performs zero heap allocations end to end (segment, packet,
// link serialization, cloud routing, demux, ACK return path).
func TestZeroAllocSendAckCycle(t *testing.T) {
	w := newWorld(43)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, server := connect(t, w, sa, sb, 80)
	received := 0
	server.SetOnDeliver(func(n int) { received += n })

	// Warm pools, queues, cwnd, and the RTT estimator.
	client.Write(200 * MSS)
	w.engine.RunFor(10 * time.Second)

	allocs := testing.AllocsPerRun(100, func() {
		client.Write(MSS)
		w.engine.RunFor(500 * time.Millisecond) // covers data, ack, delack timer
	})
	if allocs != 0 {
		t.Errorf("send->ack cycle allocates %.1f per op, want 0", allocs)
	}
	if client.Buffered() != 0 {
		t.Fatalf("Buffered = %d, want 0 (acks not processed)", client.Buffered())
	}
}

// TestPooledSegmentsSurviveRetransmission exercises the loss path: dropped
// segments are abandoned to the GC, retransmissions draw fresh structs, and
// the transfer still completes with the pools consistent.
func TestPooledSegmentsSurviveRetransmission(t *testing.T) {
	w := newWorld(44)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, server := connect(t, w, sa, sb, 80)
	received := 0
	server.SetOnDeliver(func(n int) { received += n })
	drop := 0
	sa.Iface().AddEgressFilter(netem.FilterFunc(func(p *netem.Packet, out []*netem.Packet) []*netem.Packet {
		if seg, ok := p.Payload.(*Segment); ok && seg.Len > 0 {
			drop++
			if drop%7 == 0 {
				return out
			}
		}
		return append(out, p)
	}))
	client.Write(500 * MSS)
	w.engine.RunFor(2 * time.Minute)
	if received != 500*MSS {
		t.Fatalf("received %d, want %d", received, 500*MSS)
	}
	if client.stats.Retransmits == 0 {
		t.Fatal("filter did not force retransmissions")
	}
}

// BenchmarkSendAckCycle measures one MSS of payload through the full stack:
// segment framing, pooled packet, two link crossings, demux, and the ACK.
func BenchmarkSendAckCycle(b *testing.B) {
	w := newWorld(45)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	var server *Conn
	sb.MustListen(80, func(c *Conn) { server = c })
	client := sa.MustDial(netem.Addr{IP: 2, Port: 80})
	w.engine.RunFor(2 * time.Second)
	if client.state != StateEstablished || server == nil {
		b.Fatal("not established")
	}
	client.Write(200 * MSS)
	w.engine.RunFor(10 * time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client.Write(MSS)
		w.engine.RunFor(500 * time.Millisecond)
	}
}

// TestConnIsOneObject pins what a connection costs the heap, pools warm: the
// Conn and nothing else, on the side that dials and on the side that accepts.
// Its two timers are embedded and fired by the engine through the Conn itself;
// the parent made seven objects a Conn (the struct, two sim.Timers, their two
// fire closures, the onRTO method value and the delayed-ACK closure).
func TestConnIsOneObject(t *testing.T) {
	w := newWorld(46)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	accepted := 0
	sb.MustListen(80, func(*Conn) { accepted++ })
	refused := func() { // SYN → RST: the active side alone
		sa.MustDial(netem.Addr{IP: 2, Port: 81})
		w.engine.RunFor(time.Second)
	}
	aborted := func() { // SYN → SYN-ACK → ACK, then RST: one Conn a side
		c := sa.MustDial(netem.Addr{IP: 2, Port: 80})
		w.engine.RunFor(time.Second)
		c.Abort()
		w.engine.RunFor(time.Second)
	}
	for i := 0; i < 20; i++ { // warm the segment and packet pools, the conns maps, the event free-list
		refused()
		aborted()
	}
	if got := testing.AllocsPerRun(50, refused); got != 1 {
		t.Errorf("a refused dial allocates %.1f objects, want 1 (the Conn)", got)
	}
	if got := testing.AllocsPerRun(50, aborted); got != 2 {
		t.Errorf("a connection opened and reset allocates %.1f objects, want 2 (a Conn on each side)", got)
	}
	if size := unsafe.Sizeof(Conn{}); size > 576 {
		t.Errorf("Conn is %d B, past the 576 B size class", size)
	}
	if accepted != 20+51 || len(sa.conns) != 0 || len(sb.conns) != 0 {
		t.Errorf("accepted %d connections, %d and %d still open; want %d, 0 and 0", accepted, len(sa.conns), len(sb.conns), 20+51)
	}
}
