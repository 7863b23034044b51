package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
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

// alwaysBroken is a registered component whose invariant never holds.
type alwaysBroken struct{}

func (alwaysBroken) CheckState(report func(invariant, detail string)) {
	report("test.always_broken", "1 != 2")
}

// TestViolationDumpsRecorderTailAndPanicsWithSeed drives World.onViolation
// end to end: a traced, checked world with a broken component must dump its
// flight-recorder tail to stderr and die naming the seed — on the
// single-engine path and through a sharded world's worker goroutines, both
// armed by the one attach.
func TestViolationDumpsRecorderTailAndPanicsWithSeed(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", workers), func(t *testing.T) {
			EnableTracing("", 0, io.Discard)
			t.Cleanup(DisableTracing)
			EnableChecking(1) // sweep after every event
			t.Cleanup(DisableChecking)

			w := NewWorldSharded(41, time.Minute,
				netem.NetworkConfig{CloudDelay: 15 * time.Millisecond}, ShardWorkers(workers))
			if w.Sharded != nil {
				defer w.Sharded.Close()
			}
			w.recFor(0).Emit("probe", "mark", "last words")
			w.Engine.Register(alwaysBroken{})
			w.Engine.Schedule(time.Millisecond, func() {})

			real := os.Stderr
			tmp, err := os.CreateTemp(t.TempDir(), "stderr")
			if err != nil {
				t.Fatal(err)
			}
			defer tmp.Close()
			os.Stderr = tmp
			var panicked any
			func() {
				defer func() { panicked = recover() }()
				w.RunFor(time.Second)
			}()
			os.Stderr = real
			dump, err := os.ReadFile(tmp.Name())
			if err != nil {
				t.Fatal(err)
			}

			msg, _ := panicked.(string)
			if !strings.HasPrefix(msg, "invariant violation (seed 41): ") || !strings.Contains(msg, "test.always_broken") {
				t.Errorf("panic = %v, want the seed and the violated invariant", panicked)
			}
			for _, want := range []string{"== invariant violation seed=41: recorder tail ==", "last words"} {
				if !strings.Contains(string(dump), want) {
					t.Errorf("stderr is missing %q:\n%s", want, dump)
				}
			}
			if n := CheckViolations(); n != 1 {
				t.Errorf("CheckViolations = %d, want 1", n)
			}
		})
	}
}
