package netem

import (
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/sim"
)

func jitterNet(seed int64, cfg NetworkConfig) (*sim.Engine, *Network, *Iface, *Iface, *captureHandler) {
	e := sim.NewEngine(sim.WithSeed(seed))
	n := NewNetwork(e, cfg)
	la := NewAccessLink(e, AccessLinkConfig{UpRate: 1 * MBps, DownRate: 1 * MBps})
	lb := NewAccessLink(e, AccessLinkConfig{UpRate: 1 * MBps, DownRate: 1 * MBps})
	h := &captureHandler{}
	ia := n.Attach(1, la, nil)
	ib := n.Attach(2, lb, h)
	return e, n, ia, ib, h
}

func TestPairDelayOverride(t *testing.T) {
	e, n, ia, _, h := jitterNet(1, NetworkConfig{CloudDelay: 10 * time.Millisecond})
	n.SetPairDelay(1, 2, 100*time.Millisecond)
	ia.Send(&Packet{Dst: Addr{IP: 2}, Size: 100})
	e.Run()
	if len(h.pkts) != 1 {
		t.Fatal("not delivered")
	}
	// Serialization 100B at 1MB/s = 0.1ms each way through access links;
	// the dominant term must be the 100ms pair delay, not the 10ms default.
	if e.Now() < 100*time.Millisecond || e.Now() > 110*time.Millisecond {
		t.Errorf("delivery at %v, want ≈ 100ms", e.Now())
	}
}

func TestPairDelayIsUnordered(t *testing.T) {
	e, n, _, ib, _ := jitterNet(2, NetworkConfig{CloudDelay: 5 * time.Millisecond})
	n.SetPairDelay(2, 1, 80*time.Millisecond) // set with reversed order
	got := false
	// Reuse iface 1's handler via a new capture.
	h := &captureHandler{}
	// iface 1 currently has nil handler; attach one.
	for ip, ifc := range n.ifaces {
		if ip == 1 {
			ifc.SetHandler(h)
		}
	}
	ib.Send(&Packet{Dst: Addr{IP: 1}, Size: 100})
	e.Run()
	if len(h.pkts) == 1 && e.Now() >= 80*time.Millisecond {
		got = true
	}
	if !got {
		t.Errorf("reverse-direction pair delay not applied: t=%v pkts=%d", e.Now(), len(h.pkts))
	}
}

func TestJitterSpreadsDeliveries(t *testing.T) {
	e, _, ia, _, h := jitterNet(3, NetworkConfig{CloudDelay: 10 * time.Millisecond, Jitter: 20 * time.Millisecond})
	const count = 200
	times := make([]time.Duration, 0, count)
	for i := 0; i < count; i++ {
		at := time.Duration(i) * time.Second
		e.Schedule(at, func() { ia.Send(&Packet{Dst: Addr{IP: 2}, Size: 100}) })
	}
	e.Run()
	if len(h.pkts) != count {
		t.Fatalf("delivered %d", len(h.pkts))
	}
	_ = times
	// Jitter must actually vary the per-packet latency; with 200 samples a
	// constant latency would be astronomically unlikely under this model.
	// We can't observe per-packet latencies from the handler directly, so
	// re-run with one packet per engine and compare.
	lat := func(seed int64) time.Duration {
		e2, _, ia2, _, h2 := jitterNet(seed, NetworkConfig{CloudDelay: 10 * time.Millisecond, Jitter: 20 * time.Millisecond})
		ia2.Send(&Packet{Dst: Addr{IP: 2}, Size: 100})
		e2.Run()
		if len(h2.pkts) != 1 {
			t.Fatal("not delivered")
		}
		return e2.Now()
	}
	a, b := lat(100), lat(200)
	if a == b {
		t.Errorf("jitter produced identical latencies %v across seeds", a)
	}
	for _, v := range []time.Duration{a, b} {
		if v < 10*time.Millisecond || v > 31*time.Millisecond {
			t.Errorf("latency %v outside [10ms, 30ms+serialization)", v)
		}
	}
}

// arrival sends one 100-byte packet 1 -> 2 at t=0 and returns when it lands.
func arrival(t *testing.T, e *sim.Engine, ia *Iface, h *captureHandler) time.Duration {
	t.Helper()
	ia.Send(&Packet{Dst: Addr{IP: 2}, Size: 100})
	e.Run()
	if len(h.pkts) != 1 {
		t.Fatal("not delivered")
	}
	return e.Now()
}

// TestCloudHopJitterKeepsItsDraw: a jittered crossing is not a fixed-delay
// lane event. It takes exactly one draw from the engine's random stream, at
// Deliver, and lands that much later than the unjittered crossing.
func TestCloudHopJitterKeepsItsDraw(t *testing.T) {
	const seed, jitter = 7, 20 * time.Millisecond
	e0, _, ia0, _, h0 := jitterNet(seed, NetworkConfig{CloudDelay: 10 * time.Millisecond})
	plain := arrival(t, e0, ia0, h0)

	e, _, ia, _, h := jitterNet(seed, NetworkConfig{CloudDelay: 10 * time.Millisecond, Jitter: jitter})
	got := arrival(t, e, ia, h)
	ref := sim.NewEngine(sim.WithSeed(seed)).Rand()
	draw := time.Duration(ref.Int63n(int64(jitter)))
	if got != plain+draw {
		t.Errorf("jittered arrival %v, want %v + draw %v", got, plain, draw)
	}
	if a, b := e.Rand().Int63(), ref.Int63(); a != b {
		t.Errorf("random stream after the crossing is not one draw ahead: next %d, want %d", a, b)
	}
	if a, b := e0.Rand().Int63(), sim.NewEngine(sim.WithSeed(seed)).Rand().Int63(); a != b {
		t.Errorf("unjittered crossing drew from the random stream")
	}
}

// TestCloudHopPairDelayBesideLane: with an override on one pair, that pair
// crosses in the override's time while another pair of the same network keeps
// the default delay.
func TestCloudHopPairDelayBesideLane(t *testing.T) {
	e, n, ia, _, hb := jitterNet(1, NetworkConfig{CloudDelay: 10 * time.Millisecond})
	hc := &captureHandler{}
	n.Attach(3, NewAccessLink(e, AccessLinkConfig{UpRate: 1 * MBps, DownRate: 1 * MBps}), hc)
	n.SetPairDelay(1, 3, 3*time.Millisecond)
	var atB, atC time.Duration
	ia.Send(&Packet{Dst: Addr{IP: 2}, Size: 100})
	ia.Send(&Packet{Dst: Addr{IP: 3}, Size: 100})
	for e.Step() {
		if len(hb.pkts) == 1 && atB == 0 {
			atB = e.Now()
		}
		if len(hc.pkts) == 1 && atC == 0 {
			atC = e.Now()
		}
	}
	// Each packet serializes 0.1 ms up and 0.1 ms down; the second waits
	// 0.1 ms behind the first on the shared uplink.
	const ser = 100 * time.Microsecond
	if want := 10*time.Millisecond + 2*ser; atB != want {
		t.Errorf("default pair landed at %v, want %v", atB, want)
	}
	if want := 3*time.Millisecond + 3*ser; atC != want {
		t.Errorf("overridden pair landed at %v, want %v", atC, want)
	}
}
