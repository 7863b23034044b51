package netem

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"github.com/wp2p/wp2p/internal/sim"
)

func TestIPString(t *testing.T) {
	tests := []struct {
		ip   IP
		want string
	}{
		{0, "0.0.0.0"},
		{0x0A000001, "10.0.0.1"},
		{0xC0A80164, "192.168.1.100"},
		{0xFFFFFFFF, "255.255.255.255"},
	}
	for _, tt := range tests {
		if got := tt.ip.String(); got != tt.want {
			t.Errorf("IP(%#x).String() = %q, want %q", uint32(tt.ip), got, tt.want)
		}
	}
}

func TestAddrString(t *testing.T) {
	a := Addr{IP: 0x0A000001, Port: 6881}
	if got := a.String(); got != "10.0.0.1:6881" {
		t.Errorf("Addr.String() = %q", got)
	}
}

func TestRateConstructors(t *testing.T) {
	tests := []struct {
		got, want Rate
	}{
		{Kbps(384), 48000},
		{Mbps(4), 500000},
		{200 * KBps, 200000},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("rate = %d, want %d", tt.got, tt.want)
		}
	}
}

func TestTxTime(t *testing.T) {
	r := Rate(1000) // 1000 B/s
	if got := r.txTime(500); got != 500*time.Millisecond {
		t.Errorf("txTime(500) = %v, want 500ms", got)
	}
	if got := Rate(0).txTime(500); got != 0 {
		t.Errorf("zero rate txTime = %v, want 0", got)
	}
}

func TestPacketErrorRate(t *testing.T) {
	if got := PacketErrorRate(0, 1500); got != 0 {
		t.Errorf("PER(0, 1500) = %v, want 0", got)
	}
	if got := PacketErrorRate(1e-5, 0); got != 0 {
		t.Errorf("PER(ber, 0) = %v, want 0", got)
	}
	if got := PacketErrorRate(1, 100); got != 1 {
		t.Errorf("PER(1, 100) = %v, want 1", got)
	}
	// Exact formula check.
	want := 1 - math.Pow(1-1e-5, 8*1500)
	if got := PacketErrorRate(1e-5, 1500); math.Abs(got-want) > 1e-12 {
		t.Errorf("PER(1e-5,1500) = %v, want %v", got, want)
	}
	// The paper's core asymmetry: a full data packet dies far more often
	// than a pure 40-byte ACK at the same BER.
	data := PacketErrorRate(1e-5, 1500)
	ack := PacketErrorRate(1e-5, 40)
	if data < 30*ack {
		t.Errorf("data PER %v should dwarf ACK PER %v", data, ack)
	}
}

// Property: PER is monotone nondecreasing in both BER and packet size, and
// always within [0, 1].
func TestPropertyPERMonotone(t *testing.T) {
	prop := func(b1, b2 float64, s1, s2 uint16) bool {
		ber1 := math.Abs(b1) / (math.Abs(b1) + 1) * 1e-3
		ber2 := math.Abs(b2) / (math.Abs(b2) + 1) * 1e-3
		if ber1 > ber2 {
			ber1, ber2 = ber2, ber1
		}
		sz1, sz2 := int(s1%2000)+1, int(s2%2000)+1
		if sz1 > sz2 {
			sz1, sz2 = sz2, sz1
		}
		p11 := PacketErrorRate(ber1, sz1)
		p12 := PacketErrorRate(ber1, sz2)
		p21 := PacketErrorRate(ber2, sz1)
		return p11 >= 0 && p11 <= 1 && p12 >= p11 && p21 >= p11
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTransmitterSerialization(t *testing.T) {
	e := sim.NewEngine()
	x := &transmitter{engine: e, rate: 1000, delay: 10 * time.Millisecond, queueCap: 10}
	x.bindStats("netem.test")
	var deliveries []time.Duration
	deliver := DeliverFunc(func(*Packet) { deliveries = append(deliveries, e.Now()) })
	// Two 500-byte packets: first delivered at 500ms + 10ms, second must wait
	// for the first's serialization: 1000ms + 10ms.
	x.enqueue(&Packet{Size: 500}, deliver)
	x.enqueue(&Packet{Size: 500}, deliver)
	e.Run()
	want := []time.Duration{510 * time.Millisecond, 1010 * time.Millisecond}
	if len(deliveries) != 2 || deliveries[0] != want[0] || deliveries[1] != want[1] {
		t.Fatalf("deliveries = %v, want %v", deliveries, want)
	}
	if x.stats.TxPackets != 2 || x.stats.TxBytes != 1000 {
		t.Errorf("stats = %+v", x.stats)
	}
}

func TestTransmitterDropTail(t *testing.T) {
	e := sim.NewEngine()
	x := &transmitter{engine: e, rate: 1000, queueCap: 2}
	x.bindStats("netem.test")
	var dropped []DropReason
	x.dropObs = append(x.dropObs, func(_ *Packet, r DropReason) { dropped = append(dropped, r) })
	delivered := 0
	deliver := DeliverFunc(func(*Packet) { delivered++ })
	// One in service + 2 queued fit; the 4th overflows.
	for i := 0; i < 4; i++ {
		x.enqueue(&Packet{Size: 100}, deliver)
	}
	e.Run()
	if delivered != 3 {
		t.Errorf("delivered = %d, want 3", delivered)
	}
	if len(dropped) != 1 || dropped[0] != DropQueueOverflow {
		t.Errorf("drops = %v, want one queue-overflow", dropped)
	}
	if x.stats.Drops != 1 {
		t.Errorf("stats.Drops = %d, want 1", x.stats.Drops)
	}
}

// TestTransmitterFIFOAcrossCompaction drives a capped transmitter with random
// bursts against a counting model that knows nothing about the queue slice:
// every packet is accepted or dropped exactly where drop-tail says, accepted
// packets leave in arrival order, and the head-indexed FIFO compacts in place
// without ever growing past the cap.
func TestTransmitterFIFOAcrossCompaction(t *testing.T) {
	const queueCap = 5
	e := sim.NewEngine()
	x := &transmitter{engine: e, rate: 1000, delay: time.Millisecond, queueCap: queueCap}
	x.bindStats("netem.test")
	var delivered, droppedIDs, wantDelivered, wantDropped []int
	x.dropObs = append(x.dropObs, func(p *Packet, _ DropReason) { droppedIDs = append(droppedIDs, p.Payload.(int)) })
	deliver := DeliverFunc(func(p *Packet) { delivered = append(delivered, p.Payload.(int)) })
	rng := rand.New(rand.NewSource(5))
	next, compactions := 0, 0
	offer := func() {
		// The wire is busy whenever an accepted packet is not yet serialized;
		// the rest of those are waiting behind it.
		unsent := len(wantDelivered) - int(x.stats.TxPackets)
		waiting := max(unsent-1, 0)
		id := next
		next++
		switch {
		case waiting >= queueCap:
			wantDropped = append(wantDropped, id)
		case unsent > 0:
			wantDelivered = append(wantDelivered, id)
			waiting++
			if x.qhead > 0 && len(x.queue) == cap(x.queue) {
				compactions++
			}
		default: // idle: straight onto the wire
			wantDelivered = append(wantDelivered, id)
		}
		x.enqueue(&Packet{Size: 100, Payload: id}, deliver) // 100 ms on the wire
		if got := x.waiting(); got != waiting {
			t.Fatalf("packet %d: %d waiting, model says %d", id, got, waiting)
		}
		x.checkState("netem.test", func(inv, detail string) { t.Fatalf("packet %d: %s: %s", id, inv, detail) })
	}
	for at := time.Duration(0); at < 60*time.Second; at += time.Duration(20+rng.Intn(300)) * time.Millisecond {
		burst := 1 + rng.Intn(4)
		e.Schedule(at, func() {
			for ; burst > 0; burst-- {
				offer()
			}
		})
	}
	e.Run()
	if !slices.Equal(delivered, wantDelivered) {
		t.Errorf("delivered %v\nwant      %v", delivered, wantDelivered)
	}
	if !slices.Equal(droppedIDs, wantDropped) {
		t.Errorf("dropped %v\nwant    %v", droppedIDs, wantDropped)
	}
	if len(wantDropped) < 20 || len(wantDelivered) < 200 {
		t.Errorf("only %d drops and %d deliveries; the run does not exercise the cap", len(wantDropped), len(wantDelivered))
	}
	if compactions < 20 {
		t.Errorf("only %d compactions; the run does not exercise them", compactions)
	}
	if cap(x.queue) > 8 {
		t.Errorf("queue grew to cap %d for at most %d waiting packets: compaction is not reclaiming the dead prefix", cap(x.queue), queueCap)
	}
	if got := x.regQueuePeak.Value(); got != queueCap {
		t.Errorf("queue_peak = %d, want %d (live entries only)", got, queueCap)
	}
	if x.inFlight() != 0 || x.waiting() != 0 {
		t.Errorf("inFlight = %d, waiting = %d after the drain", x.inFlight(), x.waiting())
	}
}

func TestWirelessChannelCorruption(t *testing.T) {
	e := sim.NewEngine(sim.WithSeed(11))
	ch := NewWirelessChannel(e, WirelessConfig{Rate: 1 * MBps, BER: 1e-4, QueueCap: 5000})
	const n = 2000
	delivered := 0
	for i := 0; i < n; i++ {
		ch.SendUp(&Packet{Size: 1500}, DeliverFunc(func(*Packet) { delivered++ }))
	}
	e.Run()
	per := PacketErrorRate(1e-4, 1500) // ≈ 0.70
	got := 1 - float64(delivered)/n
	if math.Abs(got-per) > 0.05 {
		t.Errorf("empirical loss %.3f, want ≈ %.3f", got, per)
	}
	if ch.x.stats.Corrupted != int64(n-delivered) {
		t.Errorf("Corrupted = %d, want %d", ch.x.stats.Corrupted, n-delivered)
	}
}

func TestWirelessChannelSharedHalfDuplex(t *testing.T) {
	// Up and down traffic must share one serialization budget: sending
	// 10 up + 10 down of 1000B at 1000B/s takes ~20s, not ~10s.
	e := sim.NewEngine()
	ch := NewWirelessChannel(e, WirelessConfig{Rate: 1000})
	done := 0
	for i := 0; i < 10; i++ {
		ch.SendUp(&Packet{Size: 1000}, DeliverFunc(func(*Packet) { done++ }))
		ch.SendDown(&Packet{Size: 1000}, DeliverFunc(func(*Packet) { done++ }))
	}
	e.Run()
	if done != 20 {
		t.Fatalf("delivered %d, want 20", done)
	}
	if e.Now() != 20*time.Second {
		t.Errorf("half-duplex completion at %v, want 20s", e.Now())
	}
}

func TestAccessLinkFullDuplex(t *testing.T) {
	// On a wired link the directions are independent: 10 up and 10 down
	// finish in the time of 10 packets, not 20.
	e := sim.NewEngine()
	l := NewAccessLink(e, AccessLinkConfig{UpRate: 1000, DownRate: 1000})
	done := 0
	for i := 0; i < 10; i++ {
		l.SendUp(&Packet{Size: 1000}, DeliverFunc(func(*Packet) { done++ }))
		l.SendDown(&Packet{Size: 1000}, DeliverFunc(func(*Packet) { done++ }))
	}
	e.Run()
	if done != 20 {
		t.Fatalf("delivered %d, want 20", done)
	}
	if e.Now() != 10*time.Second {
		t.Errorf("full-duplex completion at %v, want 10s", e.Now())
	}
}

func TestAccessLinkAsymmetricRates(t *testing.T) {
	e := sim.NewEngine()
	l := NewAccessLink(e, AccessLinkConfig{UpRate: 100, DownRate: 1000})
	var upAt, downAt time.Duration
	l.SendUp(&Packet{Size: 100}, DeliverFunc(func(*Packet) { upAt = e.Now() }))
	l.SendDown(&Packet{Size: 100}, DeliverFunc(func(*Packet) { downAt = e.Now() }))
	e.Run()
	if upAt != time.Second {
		t.Errorf("upstream delivery at %v, want 1s", upAt)
	}
	if downAt != 100*time.Millisecond {
		t.Errorf("downstream delivery at %v, want 100ms", downAt)
	}
}

func TestWirelessInFlight(t *testing.T) {
	e := sim.NewEngine()
	ch := NewWirelessChannel(e, WirelessConfig{Rate: 1000})
	for i := 0; i < 5; i++ {
		ch.SendUp(&Packet{Size: 1000}, DeliverFunc(func(*Packet) {}))
	}
	if got := ch.InFlight(); got != 5 {
		t.Errorf("InFlight = %d, want 5", got)
	}
	e.RunUntil(2500 * time.Millisecond) // two fully transmitted, third in service
	if got := ch.InFlight(); got != 3 {
		t.Errorf("InFlight after 2.5s = %d, want 3", got)
	}
	e.Run()
	if got := ch.InFlight(); got != 0 {
		t.Errorf("InFlight at end = %d, want 0", got)
	}
}

type captureHandler struct {
	pkts []*Packet
}

func (h *captureHandler) HandlePacket(p *Packet) { h.pkts = append(h.pkts, p) }

func newTestNet(e *sim.Engine) (*Network, *Iface, *Iface, *captureHandler, *captureHandler) {
	n := NewNetwork(e, NetworkConfig{CloudDelay: 5 * time.Millisecond})
	la := NewAccessLink(e, AccessLinkConfig{UpRate: 1 * MBps, DownRate: 1 * MBps})
	lb := NewAccessLink(e, AccessLinkConfig{UpRate: 1 * MBps, DownRate: 1 * MBps})
	ha, hb := &captureHandler{}, &captureHandler{}
	ia := n.Attach(1, la, ha)
	ib := n.Attach(2, lb, hb)
	return n, ia, ib, ha, hb
}

func TestNetworkEndToEndDelivery(t *testing.T) {
	e := sim.NewEngine()
	_, ia, ib, _, hb := newTestNet(e)
	_ = ib
	ia.Send(&Packet{Dst: Addr{IP: 2, Port: 80}, Size: 1000, Payload: "hello"})
	e.Run()
	if len(hb.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(hb.pkts))
	}
	got := hb.pkts[0]
	if got.Payload != "hello" {
		t.Errorf("payload = %v", got.Payload)
	}
	if got.Src.IP != 1 {
		t.Errorf("src stamped %v, want 1", got.Src.IP)
	}
}

func TestNetworkBlackholeUnknownIP(t *testing.T) {
	e := sim.NewEngine()
	n, ia, _, _, hb := newTestNet(e)
	var blackholed int
	n.OnDrop(func(_ *Packet, r DropReason) {
		if r == DropNoRoute {
			blackholed++
		}
	})
	ia.Send(&Packet{Dst: Addr{IP: 99}, Size: 100})
	e.Run()
	if blackholed != 1 {
		t.Errorf("blackholed = %d, want 1", blackholed)
	}
	if len(hb.pkts) != 0 {
		t.Errorf("unexpected delivery")
	}
}

func TestNetworkRebindHandoff(t *testing.T) {
	e := sim.NewEngine()
	n, ia, ib, ha, _ := newTestNet(e)
	_ = ia
	// Move host A from IP 1 to IP 7 mid-simulation; traffic to 1 blackholes,
	// traffic to 7 arrives.
	e.Schedule(10*time.Millisecond, func() { n.Rebind(ia, 7) })
	e.Schedule(20*time.Millisecond, func() {
		ib.Send(&Packet{Dst: Addr{IP: 1}, Size: 100, Payload: "stale"})
		ib.Send(&Packet{Dst: Addr{IP: 7}, Size: 100, Payload: "fresh"})
	})
	e.Run()
	if ia.IP() != 7 {
		t.Errorf("IP() = %v, want 7", ia.IP())
	}
	if len(ha.pkts) != 1 || ha.pkts[0].Payload != "fresh" {
		t.Fatalf("got %d packets, want only the fresh one", len(ha.pkts))
	}
}

func TestNetworkRebindSameIPNoop(t *testing.T) {
	e := sim.NewEngine()
	n, ia, _, _, _ := newTestNet(e)
	n.Rebind(ia, 1)
	if ia.IP() != 1 {
		t.Errorf("IP changed on same-address rebind")
	}
}

func TestAttachDuplicatePanics(t *testing.T) {
	e := sim.NewEngine()
	n, _, _, _, _ := newTestNet(e)
	defer func() {
		if recover() == nil {
			t.Error("duplicate Attach did not panic")
		}
	}()
	n.Attach(1, NewAccessLink(e, AccessLinkConfig{UpRate: 1, DownRate: 1}), nil)
}

func TestEgressFilterDrop(t *testing.T) {
	e := sim.NewEngine()
	_, ia, _, _, hb := newTestNet(e)
	ia.AddEgressFilter(FilterFunc(func(p *Packet, out []*Packet) []*Packet {
		if p.Payload == "secret" {
			return out
		}
		return append(out, p)
	}))
	ia.Send(&Packet{Dst: Addr{IP: 2}, Size: 100, Payload: "secret"})
	ia.Send(&Packet{Dst: Addr{IP: 2}, Size: 100, Payload: "public"})
	e.Run()
	if len(hb.pkts) != 1 || hb.pkts[0].Payload != "public" {
		t.Fatalf("filter failed: %d packets delivered", len(hb.pkts))
	}
}

func TestEgressFilterSplit(t *testing.T) {
	// A filter may replace one packet with several — the AM decoupling shape.
	e := sim.NewEngine()
	_, ia, _, _, hb := newTestNet(e)
	ia.AddEgressFilter(FilterFunc(func(p *Packet, out []*Packet) []*Packet {
		ack := p.Clone()
		ack.Size = 40
		ack.Payload = "ack"
		return append(out, ack, p)
	}))
	ia.Send(&Packet{Dst: Addr{IP: 2}, Size: 1500, Payload: "data"})
	e.Run()
	if len(hb.pkts) != 2 {
		t.Fatalf("split delivered %d packets, want 2", len(hb.pkts))
	}
	if hb.pkts[0].Payload != "ack" || hb.pkts[1].Payload != "data" {
		t.Errorf("order = %v, %v", hb.pkts[0].Payload, hb.pkts[1].Payload)
	}
}

func TestIngressFilter(t *testing.T) {
	e := sim.NewEngine()
	_, ia, ib, _, hb := newTestNet(e)
	_ = ib
	seen := 0
	// Install on B's iface.
	ibIface := ib
	ibIface.AddIngressFilter(FilterFunc(func(p *Packet, out []*Packet) []*Packet {
		seen++
		return append(out, p)
	}))
	ia.Send(&Packet{Dst: Addr{IP: 2}, Size: 100})
	e.Run()
	if seen != 1 || len(hb.pkts) != 1 {
		t.Errorf("ingress filter saw %d, delivered %d", seen, len(hb.pkts))
	}
}

func TestFilterChainOrder(t *testing.T) {
	e := sim.NewEngine()
	_, ia, _, _, hb := newTestNet(e)
	var order []string
	ia.AddEgressFilter(FilterFunc(func(p *Packet, out []*Packet) []*Packet {
		order = append(order, "first")
		return append(out, p)
	}))
	ia.AddEgressFilter(FilterFunc(func(p *Packet, out []*Packet) []*Packet {
		order = append(order, "second")
		return append(out, p)
	}))
	ia.Send(&Packet{Dst: Addr{IP: 2}, Size: 100})
	e.Run()
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Errorf("filter order = %v", order)
	}
	if len(hb.pkts) != 1 {
		t.Errorf("delivered %d", len(hb.pkts))
	}
}

func TestDropReasonString(t *testing.T) {
	tests := []struct {
		r    DropReason
		want string
	}{
		{DropQueueOverflow, "queue-overflow"},
		{DropCorrupted, "corrupted"},
		{DropNoRoute, "no-route"},
		{DropReason(42), "DropReason(42)"},
	}
	for _, tt := range tests {
		if got := tt.r.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestPacketClone(t *testing.T) {
	p := &Packet{Src: Addr{IP: 1, Port: 2}, Dst: Addr{IP: 3, Port: 4}, Size: 99, Payload: "x"}
	c := p.Clone()
	if c == p {
		t.Fatal("Clone returned same pointer")
	}
	if *c != *p {
		t.Fatalf("Clone = %+v, want %+v", c, p)
	}
	c.Size = 1
	if p.Size != 99 {
		t.Error("mutating clone affected original")
	}
}

// TestOnDropObserversChain pins the observer-composition contract: a second
// OnDrop registration must not evict the first (tracing and stats probes
// both need to see drops), and OnDrop(nil) clears the chain.
func TestOnDropObserversChain(t *testing.T) {
	e := sim.NewEngine()
	ch := NewWirelessChannel(e, WirelessConfig{Rate: 1000, QueueCap: 1})
	var first, second int
	ch.OnDrop(func(*Packet, DropReason) { first++ })
	ch.OnDrop(func(*Packet, DropReason) { second++ })
	// Queue cap 1: one in service + one queued fit, the third overflows.
	for i := 0; i < 3; i++ {
		ch.SendUp(&Packet{Size: 100}, DeliverFunc(func(*Packet) {}))
	}
	e.Run()
	if first != 1 || second != 1 {
		t.Errorf("observers saw %d/%d drops, want 1/1", first, second)
	}
	ch.OnDrop(nil)
	ch.SendUp(&Packet{Size: 100}, DeliverFunc(func(*Packet) {}))
	ch.SendUp(&Packet{Size: 100}, DeliverFunc(func(*Packet) {}))
	ch.SendUp(&Packet{Size: 100}, DeliverFunc(func(*Packet) {}))
	e.Run()
	if first != 1 || second != 1 {
		t.Errorf("OnDrop(nil) did not clear observers: %d/%d", first, second)
	}

	// Same contract on the network's no-route observer.
	n := NewNetwork(e, NetworkConfig{})
	link := NewAccessLink(e, AccessLinkConfig{UpRate: 1 * MBps, DownRate: 1 * MBps})
	ifc := n.Attach(1, link, nil)
	var netFirst, netSecond int
	n.OnDrop(func(*Packet, DropReason) { netFirst++ })
	n.OnDrop(func(*Packet, DropReason) { netSecond++ })
	ifc.Send(&Packet{Src: Addr{IP: 1}, Dst: Addr{IP: 99}, Size: 100})
	e.Run()
	if netFirst != 1 || netSecond != 1 {
		t.Errorf("network observers saw %d/%d drops, want 1/1", netFirst, netSecond)
	}
}

// TestNetemRegistryCounters checks the medium instruments feed the engine's
// registry: transmissions, drops by reason, and airtime.
func TestNetemRegistryCounters(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e, NetworkConfig{})
	ch := NewWirelessChannel(e, WirelessConfig{Rate: 1000, QueueCap: 1, Overhead: time.Millisecond})
	ifc := n.Attach(1, ch, nil)
	for i := 0; i < 3; i++ {
		ifc.Send(&Packet{Src: Addr{IP: 1}, Dst: Addr{IP: 99}, Size: 100})
	}
	e.Run()
	reg := e.Stats()
	if got := reg.Counter("netem.wireless.tx_packets").Value(); got != 2 {
		t.Errorf("tx_packets = %d, want 2", got)
	}
	if got := reg.Counter("netem.wireless.drops.queue_overflow").Value(); got != 1 {
		t.Errorf("queue_overflow = %d, want 1", got)
	}
	if got := reg.Counter("netem.drops.no_route").Value(); got != 2 {
		t.Errorf("no_route = %d, want 2", got)
	}
	// Two packets served: each 1ms overhead + 100ms serialization at 1000 B/s.
	if got := reg.Counter("netem.wireless.airtime_ns").Value(); got != int64(2*(time.Millisecond+100*time.Millisecond)) {
		t.Errorf("airtime_ns = %d", got)
	}
}
