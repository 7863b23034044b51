package tcp

import (
	"errors"
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
)

// testWorld bundles an engine, a network, and helpers for building hosts.
type testWorld struct {
	engine *sim.Engine
	net    *netem.Network
}

func newWorld(seed int64) *testWorld {
	e := sim.NewEngine(sim.WithSeed(seed))
	n := netem.NewNetwork(e, netem.NetworkConfig{CloudDelay: 10 * time.Millisecond})
	return &testWorld{engine: e, net: n}
}

func (w *testWorld) wiredHost(ip netem.IP) *Stack {
	link := netem.NewAccessLink(w.engine, netem.AccessLinkConfig{
		UpRate:   1 * netem.MBps,
		DownRate: 1 * netem.MBps,
		Delay:    time.Millisecond,
	})
	iface := w.net.Attach(ip, link, nil)
	return NewStack(w.engine, iface)
}

func (w *testWorld) wirelessHost(ip netem.IP, cfg netem.WirelessConfig) (*Stack, *netem.WirelessChannel) {
	if cfg.Rate == 0 {
		cfg.Rate = 500 * netem.KBps
	}
	ch := netem.NewWirelessChannel(w.engine, cfg)
	iface := w.net.Attach(ip, ch, nil)
	return NewStack(w.engine, iface), ch
}

// connect dials from a to b:port and returns both connection endpoints once
// the simulation establishes them.
func connect(t *testing.T, w *testWorld, a, b *Stack, port uint16) (client, server *Conn) {
	t.Helper()
	b.MustListen(port, func(c *Conn) { server = c })
	client = a.MustDial(netem.Addr{IP: b.Iface().IP(), Port: port})
	w.engine.RunFor(2 * time.Second)
	if client.state != StateEstablished {
		t.Fatalf("client state = %v, want established", client.state)
	}
	if server == nil || server.state != StateEstablished {
		t.Fatalf("server not established")
	}
	return client, server
}

func TestHandshake(t *testing.T) {
	w := newWorld(1)
	a, b := w.wiredHost(1), w.wiredHost(2)
	var clientUp, serverUp bool
	b.MustListen(80, func(c *Conn) {
		c.SetOnEstablished(func() { serverUp = true })
	})
	c := a.MustDial(netem.Addr{IP: 2, Port: 80})
	c.SetOnEstablished(func() { clientUp = true })
	w.engine.RunFor(time.Second)
	if !clientUp || !serverUp {
		t.Fatalf("established: client=%v server=%v", clientUp, serverUp)
	}
	if len(a.conns) != 1 || len(b.conns) != 1 {
		t.Errorf("conns: a=%d b=%d, want 1 each", len(a.conns), len(b.conns))
	}
}

func TestDialRefusedByRST(t *testing.T) {
	w := newWorld(1)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	_ = sb // host exists but nothing listens on the port
	var gotErr error
	c := sa.MustDial(netem.Addr{IP: 2, Port: 81})
	c.SetOnClose(func(err error) { gotErr = err })
	w.engine.RunFor(time.Second)
	if !errors.Is(gotErr, ErrReset) {
		t.Fatalf("err = %v, want ErrReset", gotErr)
	}
}

func TestDialBlackholeTimesOut(t *testing.T) {
	w := newWorld(1)
	sa := w.wiredHost(1)
	var gotErr error
	var closedAt time.Duration
	dialAt := w.engine.Now()
	c := sa.MustDial(netem.Addr{IP: 99, Port: 80}) // nobody home
	c.SetOnClose(func(err error) { gotErr, closedAt = err, w.engine.Now() })
	w.engine.RunFor(10 * time.Minute)
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", gotErr)
	}
	// A SYN's lifetime: eleven expiries, initRTO doubling to maxRTO.
	if got, want := closedAt-dialAt, 363*time.Second; got != want {
		t.Errorf("SYN gave up %v after the dial, want %v", got, want)
	}
}

// TestEstablishedGiveUpIsATime: an established connection whose peer
// vanishes fails giveUpAfter (222.2 s) after its unacknowledged data was
// sent, whatever its RTO. This one's RTO is 0.8 s, above the floor; the
// parent counted eleven expiries doubling from it and gave up after 344 s.
func TestEstablishedGiveUpIsATime(t *testing.T) {
	w := newWorld(1)
	a := w.wiredHost(1)
	far := netem.NewAccessLink(w.engine, netem.AccessLinkConfig{
		UpRate: 1 * netem.MBps, DownRate: 1 * netem.MBps, Delay: 150 * time.Millisecond,
	})
	b := NewStack(w.engine, w.net.Attach(2, far, nil))
	client, _ := connect(t, w, a, b, 80)
	client.Write(4 * MSS)
	w.engine.RunFor(5 * time.Second)
	if client.sndUna != client.sndBufTail || client.rto <= minRTO {
		t.Fatalf("setup: %d bytes unacknowledged, RTO %v; want none, above the floor", client.sndBufTail-client.sndUna, client.rto)
	}
	rto := client.rto
	var gotErr error
	var closedAt time.Duration
	client.SetOnClose(func(err error) { gotErr, closedAt = err, w.engine.Now() })
	w.net.Rebind(b.Iface(), 9) // the peer moves; its old address is a black hole
	sentAt := w.engine.Now()
	client.Write(MSS)
	w.engine.RunFor(10 * time.Minute)
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", gotErr)
	}
	if got := closedAt - sentAt; got != giveUpAfter {
		t.Errorf("gave up %v after the unanswered send (RTO %v), want %v", got, rto, giveUpAfter)
	}
}

func TestUnidirectionalTransfer(t *testing.T) {
	w := newWorld(2)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, server := connect(t, w, sa, sb, 80)
	const total = 200_000
	received := 0
	server.SetOnDeliver(func(n int) { received += n })
	client.Write(total)
	w.engine.RunFor(30 * time.Second)
	if received != total {
		t.Fatalf("received %d, want %d", received, total)
	}
	if client.Buffered() != 0 {
		t.Errorf("Buffered() = %d after full ack, want 0", client.Buffered())
	}
	st := server.stats
	if st.BytesDelivered != total {
		t.Errorf("BytesDelivered = %d", st.BytesDelivered)
	}
	// Uni-directional: the receiver never has data, so every ACK is pure.
	if st.PiggybackedAcks != 0 {
		t.Errorf("uni-directional receiver piggybacked %d acks", st.PiggybackedAcks)
	}
	if st.PureAcksSent == 0 {
		t.Error("receiver sent no pure acks")
	}
}

func TestTransferCompletesNearLinkRate(t *testing.T) {
	w := newWorld(3)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, server := connect(t, w, sa, sb, 80)
	const total = 500_000 // 0.5 MB at 1 MB/s up ≈ 0.5s + slow-start ramp
	received := 0
	var doneAt time.Duration
	server.SetOnDeliver(func(n int) {
		received += n
		if received == total {
			doneAt = w.engine.Now()
		}
	})
	start := w.engine.Now()
	client.Write(total)
	w.engine.RunFor(60 * time.Second)
	if received != total {
		t.Fatalf("received %d, want %d", received, total)
	}
	elapsed := doneAt - start
	if elapsed > 5*time.Second {
		t.Errorf("transfer took %v, want < 5s on a 1MB/s link", elapsed)
	}
}

func TestBidirectionalSimultaneousTransfer(t *testing.T) {
	w := newWorld(4)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, server := connect(t, w, sa, sb, 80)
	const total = 100_000
	rxClient, rxServer := 0, 0
	client.SetOnDeliver(func(n int) { rxClient += n })
	server.SetOnDeliver(func(n int) { rxServer += n })
	client.Write(total)
	server.Write(total)
	w.engine.RunFor(60 * time.Second)
	if rxClient != total || rxServer != total {
		t.Fatalf("rxClient=%d rxServer=%d, want %d each", rxClient, rxServer, total)
	}
	// Bidirectional flow must piggyback most acknowledgements on data.
	if client.stats.PiggybackedAcks == 0 {
		t.Error("no piggybacked acks on a bidirectional connection")
	}
}

// dropNth returns an egress filter that drops the nth data segment it sees
// (1-based), once.
func dropNth(n int) netem.Filter {
	seen := 0
	return netem.FilterFunc(func(p *netem.Packet, out []*netem.Packet) []*netem.Packet {
		seg, ok := p.Payload.(*Segment)
		if !ok || seg.Len == 0 {
			return append(out, p)
		}
		seen++
		if seen == n {
			return out
		}
		return append(out, p)
	})
}

func TestFastRetransmit(t *testing.T) {
	w := newWorld(5)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, server := connect(t, w, sa, sb, 80)
	sa.Iface().AddEgressFilter(dropNth(10))
	const total = 300_000
	received := 0
	server.SetOnDeliver(func(n int) { received += n })
	client.Write(total)
	w.engine.RunFor(60 * time.Second)
	if received != total {
		t.Fatalf("received %d, want %d", received, total)
	}
	st := client.stats
	if st.FastRetransmits == 0 {
		t.Error("expected a fast retransmit")
	}
	if st.Timeouts != 0 {
		t.Errorf("expected recovery without RTO, got %d timeouts", st.Timeouts)
	}
	if server.stats.DupAcksSent < 3 {
		t.Errorf("receiver sent %d dupacks, want >= 3", server.stats.DupAcksSent)
	}
}

func TestDupAcksAlwaysPure(t *testing.T) {
	// Even with reverse data queued (bidirectional), DUPACKs must go out as
	// pure 40-byte ACKs, never piggybacked: after a loss we must observe a
	// run of >= 3 pure segments from the receiver repeating the same ack.
	w := newWorld(6)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, server := connect(t, w, sa, sb, 80)
	sa.Iface().AddEgressFilter(dropNth(12))

	type obs struct {
		ack  int64
		pure bool
	}
	var sent []obs
	sb.Iface().AddEgressFilter(netem.FilterFunc(func(p *netem.Packet, out []*netem.Packet) []*netem.Packet {
		if seg, ok := p.Payload.(*Segment); ok && seg.HasAck && !seg.SYN {
			sent = append(sent, obs{ack: seg.Ack, pure: seg.IsPureAck()})
		}
		return append(out, p)
	}))
	received := 0
	server.SetOnDeliver(func(n int) { received += n })
	client.Write(200_000)
	server.Write(200_000)
	w.engine.RunFor(60 * time.Second)
	if received != 200_000 {
		t.Fatalf("received %d", received)
	}
	if server.stats.DupAcksSent < 3 {
		t.Fatalf("receiver sent %d dupacks, want >= 3", server.stats.DupAcksSent)
	}
	// Find a run of >= 4 equal acks (original + dups). Data segments in the
	// run legitimately repeat the ack number (they are not DUPACKs); the
	// requirement is that the run contains >= 3 pure ACKs — the actual
	// DUPACKs, decoupled from the data stream per the spec.
	foundRun := false
	for i := 0; i < len(sent); {
		j := i + 1
		for j < len(sent) && sent[j].ack == sent[i].ack {
			j++
		}
		if j-i >= 4 {
			pure := 0
			for k := i; k < j; k++ {
				if sent[k].pure {
					pure++
				}
			}
			if pure >= 3 {
				foundRun = true
			}
		}
		i = j
	}
	if !foundRun {
		t.Error("never observed a run of >= 3 pure DUPACKs after the injected loss")
	}
}

func TestRTORecovery(t *testing.T) {
	// Drop a long burst so fast retransmit cannot help (every packet of the
	// first window gone) and the sender must fall back to RTO.
	w := newWorld(7)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, server := connect(t, w, sa, sb, 80)
	dropped := 0
	sa.Iface().AddEgressFilter(netem.FilterFunc(func(p *netem.Packet, out []*netem.Packet) []*netem.Packet {
		seg, ok := p.Payload.(*Segment)
		if ok && seg.Len > 0 && dropped < 4 {
			dropped++
			return out
		}
		return append(out, p)
	}))
	received := 0
	server.SetOnDeliver(func(n int) { received += n })
	client.Write(100_000)
	w.engine.RunFor(2 * time.Minute)
	if received != 100_000 {
		t.Fatalf("received %d, want 100000", received)
	}
	if client.stats.Timeouts == 0 {
		t.Error("expected at least one RTO")
	}
}

func TestSlowStartGrowth(t *testing.T) {
	w := newWorld(8)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, _ := connect(t, w, sa, sb, 80)
	if got := int64(client.cwnd); got != 2*MSS {
		t.Fatalf("initial cwnd = %d, want %d", got, 2*MSS)
	}
	client.Write(1_000_000)
	w.engine.RunFor(300 * time.Millisecond) // a few RTTs (RTT ≈ 24ms)
	if int64(client.cwnd) < 8*MSS {
		t.Errorf("cwnd = %d after several RTTs, want exponential growth", int64(client.cwnd))
	}
}

func TestCwndHalvesOnFastRetransmit(t *testing.T) {
	w := newWorld(9)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, server := connect(t, w, sa, sb, 80)
	received := 0
	server.SetOnDeliver(func(n int) { received += n })

	var maxCwnd int64
	var minAfterLoss int64 = 1 << 60
	dropped := false
	count := 0
	sa.Iface().AddEgressFilter(netem.FilterFunc(func(p *netem.Packet, out []*netem.Packet) []*netem.Packet {
		seg, ok := p.Payload.(*Segment)
		if !ok || seg.Len == 0 {
			return append(out, p)
		}
		if c := int64(client.cwnd); c > maxCwnd {
			maxCwnd = c
		}
		count++
		if !dropped && count == 40 {
			dropped = true
			return out
		}
		if dropped && int64(client.cwnd) < minAfterLoss {
			minAfterLoss = int64(client.cwnd)
		}
		return append(out, p)
	}))
	client.Write(2_000_000)
	w.engine.RunFor(2 * time.Minute)
	if received != 2_000_000 {
		t.Fatalf("received %d", received)
	}
	if !dropped {
		t.Fatal("loss never injected")
	}
	// After fast recovery completes, cwnd deflates to about half the peak
	// flight; we allow slack but require a real multiplicative decrease.
	if minAfterLoss > maxCwnd*3/4 {
		t.Errorf("cwnd never dropped after loss: max=%d minAfter=%d", maxCwnd, minAfterLoss)
	}
}

func TestRTTEstimate(t *testing.T) {
	w := newWorld(10)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, _ := connect(t, w, sa, sb, 80)
	client.Write(50_000)
	w.engine.RunFor(5 * time.Second)
	srtt := client.srtt
	// Path: 1ms + 10ms cloud + 1ms each way plus serialization ≈ 24ms+.
	if srtt < 20*time.Millisecond || srtt > 200*time.Millisecond {
		t.Errorf("SRTT = %v, want ~tens of ms", srtt)
	}
}

func TestGracefulClose(t *testing.T) {
	w := newWorld(11)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, server := connect(t, w, sa, sb, 80)
	received := 0
	var serverErr error = errors.New("sentinel")
	server.SetOnDeliver(func(n int) { received += n })
	server.SetOnClose(func(err error) { serverErr = err })
	var clientErr error
	client.SetOnClose(func(err error) { clientErr = err })
	client.Write(50_000)
	client.Close()
	w.engine.RunFor(30 * time.Second)
	if received != 50_000 {
		t.Fatalf("received %d before FIN, want 50000", received)
	}
	if serverErr != nil {
		t.Errorf("server close err = %v, want nil (clean EOF)", serverErr)
	}
	if !errors.Is(clientErr, ErrClosed) {
		t.Errorf("client close err = %v, want ErrClosed", clientErr)
	}
	if len(sa.conns) != 0 || len(sb.conns) != 0 {
		t.Errorf("conns not reaped: a=%d b=%d", len(sa.conns), len(sb.conns))
	}
}

func TestAbortSendsRST(t *testing.T) {
	w := newWorld(12)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, server := connect(t, w, sa, sb, 80)
	var serverErr error
	server.SetOnClose(func(err error) { serverErr = err })
	client.Abort()
	w.engine.RunFor(time.Second)
	if !errors.Is(serverErr, ErrReset) {
		t.Errorf("server err = %v, want ErrReset", serverErr)
	}
}

func TestTransferUnderWirelessLoss(t *testing.T) {
	// End-to-end reliability over a lossy wireless leg: everything arrives.
	w := newWorld(13)
	sa := w.wiredHost(1)
	sb, _ := w.wirelessHost(2, netem.WirelessConfig{Rate: 500 * netem.KBps, BER: 5e-6})
	client, server := connect(t, w, sa, sb, 80)
	const total = 300_000
	received := 0
	server.SetOnDeliver(func(n int) { received += n })
	client.Write(total)
	w.engine.RunFor(5 * time.Minute)
	if received != total {
		t.Fatalf("received %d, want %d", received, total)
	}
}

func TestSegmentHelpers(t *testing.T) {
	pure := &Segment{HasAck: true, Ack: 100}
	if !pure.IsPureAck() {
		t.Error("pure ack not recognized")
	}
	if pure.WireSize() != HeaderSize {
		t.Errorf("pure ack wire size = %d", pure.WireSize())
	}
	data := &Segment{HasAck: true, Len: 1000}
	if data.IsPureAck() {
		t.Error("data segment misclassified as pure ack")
	}
	if data.WireSize() != HeaderSize+1000 {
		t.Errorf("data wire size = %d", data.WireSize())
	}
	syn := &Segment{SYN: true}
	if syn.IsPureAck() {
		t.Error("SYN misclassified as pure ack")
	}
	if s := syn.String(); s == "" {
		t.Error("empty String()")
	}
}

func TestAddInterval(t *testing.T) {
	tests := []struct {
		name string
		set  []interval
		iv   interval
		want []interval
	}{
		{"empty", nil, interval{5, 10}, []interval{{5, 10}}},
		{"before", []interval{{20, 30}}, interval{5, 10}, []interval{{5, 10}, {20, 30}}},
		{"after", []interval{{0, 3}}, interval{5, 10}, []interval{{0, 3}, {5, 10}}},
		{"merge-left", []interval{{0, 6}}, interval{5, 10}, []interval{{0, 10}}},
		{"merge-right", []interval{{8, 20}}, interval{5, 10}, []interval{{5, 20}}},
		{"bridge", []interval{{0, 5}, {10, 20}}, interval{5, 10}, []interval{{0, 20}}},
		{"contained", []interval{{0, 100}}, interval{5, 10}, []interval{{0, 100}}},
		{"touching", []interval{{10, 20}}, interval{5, 10}, []interval{{5, 20}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := addInterval(append([]interval(nil), tt.set...), tt.iv)
			if len(got) != len(tt.want) {
				t.Fatalf("got %v, want %v", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("got %v, want %v", got, tt.want)
				}
			}
		})
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StateSynSent:     "syn-sent",
		StateSynRcvd:     "syn-rcvd",
		StateEstablished: "established",
		StateClosed:      "closed",
		State(0):         "unknown",
	} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}
