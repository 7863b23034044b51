package check_test

// External test package: it drives real netem/tcp worlds, and those packages
// import check, so these tests cannot live inside package check.

import (
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/check"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/tcp"
)

// transferWorld runs a wired server pushing data to a mobile client over a
// wireless leg, with a BER change injected mid-run. Both the control run
// (newBER = starting BER) and the perturbed run schedule the same event at
// the same virtual time, so their event sequences stay aligned and the only
// difference is the value applied.
func transferWorld(t *testing.T, seed int64, newBER float64) *check.Checker {
	t.Helper()
	e := sim.NewEngine(sim.WithSeed(seed))
	chk := check.Attach(e, check.Config{Every: 512, Digests: true, DigestEvery: 512})

	n := netem.NewNetwork(e, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond})
	wired := netem.NewAccessLink(e, netem.AccessLinkConfig{UpRate: 1 * netem.MBps, DownRate: 1 * netem.MBps})
	server := tcp.NewStack(e, n.Attach(2, wired, nil))
	wl := netem.NewWirelessChannel(e, netem.WirelessConfig{Rate: 300 * netem.KBps})
	client := tcp.NewStack(e, n.Attach(1, wl, nil))

	server.Listen(80, func(c *tcp.Conn) { c.Write(3_000_000) })
	client.Dial(netem.Addr{IP: 2, Port: 80})
	e.Schedule(10*time.Second, func() { wl.SetBER(newBER) })
	e.RunUntil(60 * time.Second)
	chk.Finish()
	return chk
}

func TestTransferRunsCleanUnderInvariants(t *testing.T) {
	// The lossy data path (corruption drops included) must satisfy byte
	// conservation, sequence-space sanity, and pool ownership throughout.
	chk := transferWorld(t, 3, 5e-5)
	if n := len(chk.Violations()); n != 0 {
		t.Fatalf("%d invariant violations (first: %v)", n, chk.Violations()[0])
	}
	if len(chk.Records()) == 0 {
		t.Fatal("no digest records collected")
	}
}

func TestDigestsIdenticalForSameSeed(t *testing.T) {
	a := transferWorld(t, 7, 0)
	b := transferWorld(t, 7, 0)
	idx, diverged := check.FirstDivergence(a.Records(), b.Records())
	if diverged {
		t.Fatalf("same-seed runs diverge at record %d: %+v vs %+v",
			idx, a.Records()[idx], b.Records()[idx])
	}
}

func TestFirstDivergenceLocalizesInjectedFork(t *testing.T) {
	// Control and perturbed runs share every event up to the BER change at
	// t=10s; the first diverging digest window must start at or after it —
	// never before, which would mean the digest hashes nondeterministic
	// state — and divergence must be permanent once entered.
	control := transferWorld(t, 7, 0)
	perturbed := transferWorld(t, 7, 1e-4)
	idx, diverged := check.FirstDivergence(control.Records(), perturbed.Records())
	if !diverged {
		t.Fatal("BER perturbation did not change the digests")
	}
	if idx == 0 {
		t.Fatal("streams diverge from the first sample; expected a shared prefix before t=10s")
	}
	last := control.Records()[idx-1]
	if last.Now > 10*time.Second {
		t.Errorf("last matching record at %v, after the t=10s fork was injected", last.Now)
	}
	for k := idx; k < min(len(control.Records()), len(perturbed.Records())); k++ {
		if control.Records()[k] == perturbed.Records()[k] {
			t.Fatalf("digests re-converged at record %d; divergence must be monotone", k)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
