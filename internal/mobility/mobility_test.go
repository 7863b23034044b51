package mobility

import (
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
)

func fixture() (*sim.Engine, *netem.Network, *netem.Iface) {
	e := sim.NewEngine(sim.WithSeed(1))
	n := netem.NewNetwork(e, netem.NetworkConfig{})
	link := netem.NewAccessLink(e, netem.AccessLinkConfig{UpRate: 1000, DownRate: 1000})
	iface := n.Attach(1, link, nil)
	return e, n, iface
}

func TestIPAllocatorSequence(t *testing.T) {
	a := NewIPAllocator(100)
	if a.Next() != 100 || a.Next() != 101 || a.Next() != 102 {
		t.Error("allocator not sequential")
	}
}

func TestHandoffChangesAddressPeriodically(t *testing.T) {
	e, n, iface := fixture()
	h := NewHandoff(e, n, iface, NewIPAllocator(50), time.Minute)
	var changes [][2]netem.IP
	h.OnChange(func(old, new netem.IP) { changes = append(changes, [2]netem.IP{old, new}) })
	h.Start()
	e.RunUntil(3*time.Minute + time.Second)
	h.Stop()
	if h.Changes() != 3 {
		t.Fatalf("Changes = %d, want 3", h.Changes())
	}
	want := [][2]netem.IP{{1, 50}, {50, 51}, {51, 52}}
	for i, w := range want {
		if changes[i] != w {
			t.Errorf("change %d = %v, want %v", i, changes[i], w)
		}
	}
	if iface.IP() != 52 {
		t.Errorf("final IP = %v, want 52", iface.IP())
	}
}

func TestHandoffTrigger(t *testing.T) {
	e, n, iface := fixture()
	h := NewHandoff(e, n, iface, NewIPAllocator(50), time.Hour)
	h.Trigger()
	if iface.IP() != 50 || h.Changes() != 1 {
		t.Errorf("Trigger: ip=%v changes=%d", iface.IP(), h.Changes())
	}
	_ = e
}

func TestHandoffStop(t *testing.T) {
	e, n, iface := fixture()
	h := NewHandoff(e, n, iface, NewIPAllocator(50), time.Minute)
	h.Start()
	e.RunUntil(90 * time.Second)
	h.Stop()
	e.RunUntil(10 * time.Minute)
	if h.Changes() != 1 {
		t.Errorf("Changes = %d after Stop, want 1", h.Changes())
	}
	_ = iface
}

func TestHandoffBlackholesOldAddress(t *testing.T) {
	e, n, iface := fixture()
	dropped := 0
	n.OnDrop(func(_ *netem.Packet, r netem.DropReason) {
		if r == netem.DropNoRoute {
			dropped++
		}
	})
	// A second host to source packets from.
	link := netem.NewAccessLink(e, netem.AccessLinkConfig{UpRate: 1000, DownRate: 1000})
	other := n.Attach(2, link, nil)
	h := NewHandoff(e, n, iface, NewIPAllocator(50), time.Hour)
	h.Trigger()
	other.Send(&netem.Packet{Dst: netem.Addr{IP: 1}, Size: 100})
	e.Run()
	if dropped != 1 {
		t.Errorf("packets to old address dropped = %d, want 1", dropped)
	}
}

func TestDisconnectionDetachesAndReattaches(t *testing.T) {
	e, n, iface := fixture()
	d := NewDisconnection(e, n, iface)
	reconnected := false
	d.OnReconnect = func() { reconnected = true }
	d.DisconnectFor(time.Minute)
	if n.Attached(iface) {
		t.Fatal("iface still attached during disconnection")
	}
	e.RunUntil(2 * time.Minute)
	if !n.Attached(iface) {
		t.Fatal("iface not reattached")
	}
	if !reconnected {
		t.Error("OnReconnect never fired")
	}
	// Double disconnect while detached is a no-op.
	d.DisconnectFor(time.Minute)
}

func TestDefaultReactionFiresOnceAfterDelay(t *testing.T) {
	e, n, iface := fixture()
	h := NewHandoff(e, n, iface, NewIPAllocator(50), time.Hour)
	var at []time.Duration
	DefaultReaction(e, h, DetectionDelay, func() { at = append(at, e.Now()) })
	h.Trigger()
	if len(at) != 0 {
		t.Fatal("re-initiation fired before the detection delay")
	}
	e.RunUntil(time.Minute)
	if len(at) != 1 || at[0] != DetectionDelay {
		t.Fatalf("re-initiations at %v, want one at %v", at, DetectionDelay)
	}
}

func TestDefaultReactionPreservesExistingHook(t *testing.T) {
	e, n, iface := fixture()
	h := NewHandoff(e, n, iface, NewIPAllocator(50), time.Hour)
	hookRan := false
	h.OnChange(func(_, _ netem.IP) { hookRan = true })
	DefaultReaction(e, h, 0, func() {})
	h.Trigger()
	if !hookRan {
		t.Error("pre-existing OnChange hook was clobbered")
	}
}

func TestOnChangeObserversChain(t *testing.T) {
	e, n, iface := fixture()
	h := NewHandoff(e, n, iface, NewIPAllocator(50), time.Hour)
	var order []int
	h.OnChange(func(_, _ netem.IP) { order = append(order, 1) })
	h.OnChange(func(_, _ netem.IP) { order = append(order, 2) })
	h.Trigger()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("observers = %v, want [1 2] in registration order", order)
	}
	h.OnChange(nil) // clears
	h.Trigger()
	if len(order) != 2 {
		t.Errorf("observers fired after OnChange(nil): %v", order)
	}
}

func TestIPAllocatorGuards(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("NewIPAllocator(0)", func() { NewIPAllocator(0) })

	// An allocator at the top of the space hands out its last addresses and
	// then refuses to wrap around into addresses that may still be bound.
	a := NewIPAllocator(netem.IP(0xFFFFFFFE))
	if a.Next() != 0xFFFFFFFE || a.Next() != 0xFFFFFFFF {
		t.Fatal("allocator not sequential at top of space")
	}
	mustPanic("Next after exhaustion", func() { a.Next() })
	mustPanic("Next after exhaustion (again)", func() { a.Next() })
}

func TestHandoffRestartAfterStop(t *testing.T) {
	e, n, iface := fixture()
	h := NewHandoff(e, n, iface, NewIPAllocator(50), time.Minute)
	h.Start()
	h.Start() // second Start is a no-op, not a double schedule
	e.RunUntil(90 * time.Second)
	h.Stop()
	if h.Running() {
		t.Fatal("Running after Stop")
	}
	e.RunUntil(5 * time.Minute)
	if h.Changes() != 1 {
		t.Fatalf("Changes = %d after Stop, want 1", h.Changes())
	}
	// Restart resumes the schedule with a full period from now.
	h.Start()
	if !h.Running() {
		t.Fatal("not Running after restart")
	}
	e.RunUntil(5*time.Minute + 61*time.Second)
	if h.Changes() != 2 {
		t.Errorf("Changes = %d after restart, want 2", h.Changes())
	}
	if iface.IP() != 51 {
		t.Errorf("final IP = %v, want 51", iface.IP())
	}
}

func TestHandoffJitteredPeriods(t *testing.T) {
	e, n, iface := fixture()
	h := NewHandoff(e, n, iface, NewIPAllocator(50), time.Minute)
	h.SetJitter(20 * time.Second)
	var fireTimes []time.Duration
	h.OnChange(func(_, _ netem.IP) { fireTimes = append(fireTimes, e.Now()) })
	h.Start()
	e.RunUntil(30 * time.Minute)
	h.Stop()
	e.RunUntil(40 * time.Minute)
	if got := len(fireTimes); got < 20 || got > 45 {
		t.Fatalf("fires = %d over 30 min with 60s±20s period, want ~30", got)
	}
	if h.Changes() != len(fireTimes) {
		t.Errorf("Changes = %d, observers saw %d", h.Changes(), len(fireTimes))
	}
	prev := time.Duration(0)
	varied := false
	for i, at := range fireTimes {
		gap := at - prev
		prev = at
		if gap < 40*time.Second || gap > 80*time.Second {
			t.Fatalf("gap %d = %v, want within 60s±20s", i, gap)
		}
		if gap != time.Minute {
			varied = true
		}
	}
	if !varied {
		t.Error("every gap was exactly the period; jitter never applied")
	}

	// Determinism: the same engine seed reproduces the same fire times.
	e2, n2, iface2 := fixture()
	h2 := NewHandoff(e2, n2, iface2, NewIPAllocator(50), time.Minute)
	h2.SetJitter(20 * time.Second)
	var times2 []time.Duration
	h2.OnChange(func(_, _ netem.IP) { times2 = append(times2, e2.Now()) })
	h2.Start()
	e2.RunUntil(30 * time.Minute)
	h2.Stop()
	if len(times2) != len(fireTimes) {
		t.Fatalf("replay fired %d times, first run %d", len(times2), len(fireTimes))
	}
	for i := range times2 {
		if times2[i] != fireTimes[i] {
			t.Fatalf("fire %d at %v, first run %v: jittered schedule not deterministic", i, times2[i], fireTimes[i])
		}
	}

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("SetJitter ≥ period", func() { h2.SetJitter(time.Minute) })
	h2.Start()
	mustPanic("SetJitter while running", func() { h2.SetJitter(time.Second) })
}
