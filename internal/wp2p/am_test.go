package wp2p

import (
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/tcp"
)

var (
	mobile = netem.Addr{IP: 1, Port: 50000}
	remote = netem.Addr{IP: 2, Port: 6881}
)

func amFixture(seed int64) (*sim.Engine, *AMFilter) {
	e := sim.NewEngine(sim.WithSeed(seed))
	return e, NewAMFilter(e, AMConfig{})
}

func dataPkt(ack int64, length int) *netem.Packet {
	seg := &tcp.Segment{Seq: 0, Len: length, Ack: ack, HasAck: true}
	return &netem.Packet{Src: mobile, Dst: remote, Size: seg.WireSize(), Payload: seg}
}

func pureAckPkt(ack int64) *netem.Packet {
	seg := &tcp.Segment{Ack: ack, HasAck: true}
	return &netem.Packet{Src: mobile, Dst: remote, Size: seg.WireSize(), Payload: seg}
}

// feedIngress simulates n payload bytes arriving from the remote, driving
// the peer-cwnd estimate.
func feedIngress(f *AMFilter, n int) {
	seg := &tcp.Segment{Len: n, HasAck: true}
	f.observeIngress(&netem.Packet{Src: remote, Dst: mobile, Size: seg.WireSize(), Payload: seg}, nil)
}

func TestAMStatusYoungThenMature(t *testing.T) {
	_, f := amFixture(1)
	if got := f.Status(remote); got != FlowYoung {
		t.Errorf("unknown flow status = %v, want young", got)
	}
	feedIngress(f, 3*tcp.MSS)
	if got := f.Status(remote); got != FlowYoung {
		t.Errorf("3 MSS in window: %v, want young (γ=6)", got)
	}
	feedIngress(f, 4*tcp.MSS)
	if got := f.Status(remote); got != FlowMature {
		t.Errorf("7 MSS in window: %v, want mature", got)
	}
}

func TestAMStatusDecaysWithWindow(t *testing.T) {
	e, f := amFixture(2)
	feedIngress(f, 10*tcp.MSS)
	if f.Status(remote) != FlowMature {
		t.Fatal("setup: should be mature")
	}
	e.RunUntil(time.Second) // well past the 200ms window
	if got := f.Status(remote); got != FlowYoung {
		t.Errorf("after idle window: %v, want young again", got)
	}
}

func TestAMDecouplesNewPiggybackedAckWhenYoung(t *testing.T) {
	_, f := amFixture(3)
	out := f.filterEgress(dataPkt(1000, 1460), nil)
	if len(out) != 2 {
		t.Fatalf("got %d packets, want pure ACK + data", len(out))
	}
	pure := out[0].Payload.(*tcp.Segment)
	data := out[1].Payload.(*tcp.Segment)
	if !pure.IsPureAck() || pure.Ack != 1000 {
		t.Errorf("first packet = %v, want pure ack 1000", pure)
	}
	if out[0].Size != tcp.HeaderSize {
		t.Errorf("pure ack size = %d, want %d", out[0].Size, tcp.HeaderSize)
	}
	if data.Len != 1460 || data.Ack != 1000 {
		t.Errorf("data packet mangled: %v", data)
	}
	if f.stats.Decoupled != 1 {
		t.Errorf("Decoupled = %d", f.stats.Decoupled)
	}
}

func TestAMDoesNotDecoupleStaleAck(t *testing.T) {
	_, f := amFixture(4)
	f.filterEgress(dataPkt(1000, 1460), nil) // establishes lastAck = 1000
	out := f.filterEgress(dataPkt(1000, 1460), nil)
	if len(out) != 1 {
		t.Fatalf("stale ack decoupled: %d packets", len(out))
	}
	out = f.filterEgress(dataPkt(900, 1460), nil)
	if len(out) != 1 {
		t.Fatalf("regressed ack decoupled: %d packets", len(out))
	}
}

func TestAMDoesNotDecoupleWhenMature(t *testing.T) {
	_, f := amFixture(5)
	feedIngress(f, 10*tcp.MSS)
	out := f.filterEgress(dataPkt(1000, 1460), nil)
	if len(out) != 1 {
		t.Fatalf("mature flow decoupled: %d packets", len(out))
	}
	if f.stats.Decoupled != 0 {
		t.Errorf("Decoupled = %d", f.stats.Decoupled)
	}
}

func TestAMDropsEveryFourthDupAckWhenMature(t *testing.T) {
	_, f := amFixture(6)
	feedIngress(f, 10*tcp.MSS) // mature
	f.filterEgress(pureAckPkt(5000), nil)
	passed, dropped := 0, 0
	for i := 0; i < 12; i++ {
		if out := f.filterEgress(pureAckPkt(5000), nil); len(out) == 1 {
			passed++
		} else {
			dropped++
		}
	}
	if dropped != 3 || passed != 9 {
		t.Errorf("dropped=%d passed=%d, want 3/9 (one in four)", dropped, passed)
	}
	if f.stats.DupAcksDropped != 3 {
		t.Errorf("stats = %d", f.stats.DupAcksDropped)
	}
}

func TestAMKeepsDupAcksWhenYoung(t *testing.T) {
	_, f := amFixture(7)
	f.filterEgress(pureAckPkt(5000), nil)
	for i := 0; i < 12; i++ {
		if out := f.filterEgress(pureAckPkt(5000), nil); len(out) != 1 {
			t.Fatalf("young flow dropped a dupack at i=%d", i)
		}
	}
}

func TestAMAdvancingAckResetsDupCount(t *testing.T) {
	_, f := amFixture(8)
	feedIngress(f, 10*tcp.MSS)
	f.filterEgress(pureAckPkt(5000), nil)
	f.filterEgress(pureAckPkt(5000), nil) // dup 1
	f.filterEgress(pureAckPkt(5000), nil) // dup 2
	f.filterEgress(pureAckPkt(6000), nil) // new ack resets
	dropped := 0
	for i := 0; i < 4; i++ {
		if out := f.filterEgress(pureAckPkt(6000), nil); len(out) == 0 {
			dropped++
		}
	}
	if dropped != 1 {
		t.Errorf("dropped = %d in first 4 dups after reset, want 1", dropped)
	}
}

func TestAMPassthroughControlSegments(t *testing.T) {
	_, f := amFixture(9)
	for _, seg := range []*tcp.Segment{
		{SYN: true},
		{SYN: true, HasAck: true},
		{RST: true, HasAck: true},
	} {
		pkt := &netem.Packet{Src: mobile, Dst: remote, Size: seg.WireSize(), Payload: seg}
		if out := f.filterEgress(pkt, nil); len(out) != 1 || out[0] != pkt {
			t.Errorf("control segment %v not passed through", seg)
		}
	}
	// Non-TCP payloads pass untouched.
	raw := &netem.Packet{Src: mobile, Dst: remote, Size: 100, Payload: "opaque"}
	if out := f.filterEgress(raw, nil); len(out) != 1 || out[0] != raw {
		t.Error("non-TCP packet not passed through")
	}
}

func TestAMFlowStateEvictedOnConnClose(t *testing.T) {
	// Every reconnect during handoff churn arrives from a fresh remote
	// ephemeral port, so without eviction the flow map grows one entry per
	// connection forever. Track ties flow lifetime to the connection table:
	// after the churn settles, no flow state may outlive its connection.
	e := sim.NewEngine(sim.WithSeed(11))
	n := netem.NewNetwork(e, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond})
	wired := netem.NewAccessLink(e, netem.AccessLinkConfig{UpRate: 1 * netem.MBps, DownRate: 1 * netem.MBps})
	fixedStack := tcp.NewStack(e, n.Attach(2, wired, nil))
	wl := netem.NewWirelessChannel(e, netem.WirelessConfig{Rate: 300 * netem.KBps})
	mobIface := n.Attach(1, wl, nil)
	mobStack := tcp.NewStack(e, mobIface)
	f := NewAMFilter(e, AMConfig{})
	f.Install(mobIface)
	f.Track(mobStack)

	mobStack.MustListen(80, func(c *tcp.Conn) { c.Write(32 * 1024) })
	peak := 0
	for i := 0; i < 8; i++ {
		c := fixedStack.MustDial(netem.Addr{IP: 1, Port: 80})
		c.Write(32 * 1024) // bidirectional: the mobile's ACKs piggyback on data
		e.RunFor(5 * time.Second)
		if got := len(f.flows); got > peak {
			peak = got
		}
		c.Close()
		e.RunFor(5 * time.Second)
	}
	if peak == 0 {
		t.Fatal("setup: filter never tracked a flow")
	}
	if got := len(f.flows); got != 0 {
		t.Errorf("Flows = %d after churn (peak %d); flow state leaked past conn close", got, peak)
	}
}

func TestAMEndToEndImprovesLossyYoungFlow(t *testing.T) {
	// Functional check on a real stack: a mobile receiver downloading over
	// a lossy wireless leg with bidirectional traffic gets at least as much
	// data with AM installed as without. (Figure 8(a) quantifies this; the
	// bench reproduces it.)
	run := func(withAM bool) int64 {
		e := sim.NewEngine(sim.WithSeed(77))
		n := netem.NewNetwork(e, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond})
		wired := netem.NewAccessLink(e, netem.AccessLinkConfig{UpRate: 1 * netem.MBps, DownRate: 1 * netem.MBps})
		fixedStack := tcp.NewStack(e, n.Attach(2, wired, nil))
		wl := netem.NewWirelessChannel(e, netem.WirelessConfig{Rate: 300 * netem.KBps, BER: 8e-6})
		mobIface := n.Attach(1, wl, nil)
		mobStack := tcp.NewStack(e, mobIface)
		if withAM {
			NewAMFilter(e, AMConfig{}).Install(mobIface)
		}
		var server *tcp.Conn
		fixedStack.MustListen(80, func(c *tcp.Conn) { server = c })
		client := mobStack.MustDial(netem.Addr{IP: 2, Port: 80})
		e.RunFor(2 * time.Second)
		if server == nil {
			t.Fatal("no connection")
		}
		var rcvd int64
		client.OnDeliver = func(nb int) { rcvd += int64(nb) }
		// Bidirectional: mobile uploads while downloading, so its ACKs ride
		// on data packets — the piggybacking regime AM targets.
		server.Write(2_000_000)
		client.Write(2_000_000)
		e.RunFor(3 * time.Minute)
		return rcvd
	}
	plain := run(false)
	withAM := run(true)
	if plain == 0 || withAM == 0 {
		t.Fatalf("degenerate transfer: plain=%d am=%d", plain, withAM)
	}
	if float64(withAM) < 0.95*float64(plain) {
		t.Errorf("AM hurt throughput: %d vs %d", withAM, plain)
	}
	t.Logf("downloaded: plain=%d withAM=%d (%+.1f%%)", plain, withAM, 100*float64(withAM-plain)/float64(plain))
}
