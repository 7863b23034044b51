package experiments

import (
	"bytes"
	"testing"

	"github.com/wp2p/wp2p/internal/runner"
)

// withChecking arms invariant checking (and digests) for the duration of
// one test, restoring the package-global config afterwards.
func withChecking(t *testing.T, digests bool) {
	t.Helper()
	EnableChecking(0)
	if digests {
		EnableDigests(0)
	}
	t.Cleanup(DisableChecking)
}

// TestFiguresCleanUnderInvariants runs the fig2a and fig4a pipelines —
// wired+wireless data paths, BitTorrent swarms, handoff churn — with every
// invariant armed. A violation panics with the seed, so completing at all
// is most of the assertion.
func TestFiguresCleanUnderInvariants(t *testing.T) {
	for _, id := range []string{"fig2a", "fig4a"} {
		t.Run(id, func(t *testing.T) {
			withChecking(t, false)
			res := Registry(0.05, RegistryOptions{})[id]()
			if res == nil || len(res.Series) == 0 {
				t.Fatalf("%s produced no result under -check", id)
			}
			if n := CheckViolations(); n != 0 {
				t.Errorf("%s: %d invariant violations", id, n)
			}
		})
	}
}

// TestDigestsIdenticalAcrossParallelism pins the digest side of the
// determinism contract: the wp2p.digest.v1 bytes for a figure must be
// identical whether worlds run inline or across a worker pool, and across
// repeated same-seed invocations.
func TestDigestsIdenticalAcrossParallelism(t *testing.T) {
	prev := runner.SetWorkers(1)
	defer runner.SetWorkers(prev)

	capture := func(workers int) []byte {
		withChecking(t, true)
		runner.SetWorkers(workers)
		Registry(0.05, RegistryOptions{})["fig2a"]()
		var buf bytes.Buffer
		if err := WriteDigests(&buf); err != nil {
			t.Fatal(err)
		}
		DisableChecking()
		return buf.Bytes()
	}

	seq := capture(1)
	if len(seq) == 0 {
		t.Fatal("no digest bytes collected")
	}
	par := capture(4)
	again := capture(1)
	if !bytes.Equal(seq, par) {
		t.Error("digest stream differs between -parallel 1 and -parallel 4")
	}
	if !bytes.Equal(seq, again) {
		t.Error("digest stream differs between repeated same-seed runs")
	}
}
