package experiments

import (
	"reflect"
	"testing"

	"github.com/wp2p/wp2p/internal/runner"
)

// TestParallelMatchesSequential is the guardrail for the parallel sweep
// harness: a sample of registry experiments, spanning the tcp, bt, wp2p,
// and gnutella stacks, must produce bit-identical Result series whether
// the runs execute inline (pool of 1) or fanned across a worker pool.
// Every run owns a private Engine/World/RNG and all float reductions
// happen in run order, so any divergence here means shared state leaked
// into the harness.
func TestParallelMatchesSequential(t *testing.T) {
	const scale = 0.05
	sample := []string{"fig2a", "fig4bc", "fig9ab", "ext-gnutella"}
	prev := runner.SetWorkers(1)
	defer runner.SetWorkers(prev)
	for _, id := range sample {
		t.Run(id, func(t *testing.T) {
			runner.SetWorkers(1)
			seq := Registry(scale)[id]()
			runner.SetWorkers(4)
			par := Registry(scale)[id]()
			if !reflect.DeepEqual(seq.Series, par.Series) {
				t.Errorf("parallel series diverged from sequential:\nseq: %+v\npar: %+v",
					seq.Series, par.Series)
			}
			if !reflect.DeepEqual(seq.Notes, par.Notes) {
				t.Errorf("notes diverged:\nseq: %v\npar: %v", seq.Notes, par.Notes)
			}
			// The stats snapshot must be bit-identical too: the collector
			// merge is commutative, so worker completion order cannot show.
			if !reflect.DeepEqual(seq.Stats, par.Stats) {
				t.Errorf("stats snapshot diverged:\nseq: %+v\npar: %+v", seq.Stats, par.Stats)
			}
			if seq.Stats == nil || seq.Stats.Runs == 0 {
				t.Errorf("experiment %s collected no stats", id)
			}
		})
	}
}

// TestRegistryHonorsScale pins the fig2 satellite fix: the registry must
// thread its scale argument into every experiment config, including the
// fig2 pair that used to ignore it.
func TestRegistryHonorsScale(t *testing.T) {
	full := Fig2aConfig{}.withDefaults()
	tiny := Fig2aConfig{Scale: 0.05}.withDefaults()
	if tiny.Duration >= full.Duration {
		t.Errorf("fig2a scale ignored: tiny duration %v vs full %v", tiny.Duration, full.Duration)
	}
	traceLen := func(cfg Fig2bcConfig) float64 {
		x := Fig2bcPacketsAfterDrop(cfg).Series[0].X
		return x[len(x)-1]
	}
	if fullBC, tinyBC := traceLen(Fig2bcConfig{}), traceLen(Fig2bcConfig{Scale: 0.05}); tinyBC >= fullBC {
		t.Errorf("fig2bc scale ignored: tiny trace %v s vs full %v s", tinyBC, fullBC)
	}
	// An explicit duration must still win over scale.
	explicit := Fig2aConfig{Scale: 0.05, Duration: full.Duration}.withDefaults()
	if explicit.Duration != full.Duration {
		t.Errorf("explicit duration overridden: %v", explicit.Duration)
	}
}
