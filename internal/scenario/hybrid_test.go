package scenario

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/wp2p/wp2p/internal/experiments"
	"github.com/wp2p/wp2p/internal/runner"
)

// flowCrowdWith runs the example flash-crowd scenario with every wired
// group upgraded to flow fidelity, at the given shard worker count, with
// digests armed — returning the figure and digest bytes.
func flowCrowdWith(t *testing.T, shardWorkers int) (*experiments.Result, []byte) {
	t.Helper()
	spec, err := LoadFile("../../examples/scenarios/flash-crowd.json")
	if err != nil {
		t.Fatal(err)
	}
	experiments.EnableChecking(0)
	experiments.EnableDigests()
	t.Cleanup(experiments.DisableChecking)
	res, err := RunOpts(spec, 0.05, Options{ShardWorkers: shardWorkers, Fidelity: FidelityFlow})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := experiments.WriteDigests(&buf); err != nil {
		t.Fatal(err)
	}
	experiments.DisableChecking()
	return res, buf.Bytes()
}

// TestFlowModeShardWorkerInvariance pins the flow fabric's determinism
// contract under sharding: the fluid rate recomputations and fluid-packet
// deliveries must produce byte-identical digest streams and identical
// figures across -shards 1/2/4, exactly like the packet path.
func TestFlowModeShardWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run digest sweep")
	}
	baseRes, baseDig := flowCrowdWith(t, 1)
	if len(baseDig) == 0 {
		t.Fatal("no digest bytes collected")
	}
	for _, workers := range []int{2, 4} {
		res, dig := flowCrowdWith(t, workers)
		if !bytes.Equal(dig, baseDig) {
			t.Errorf("flow-mode digest stream differs between -shards 1 and -shards %d", workers)
		}
		if !reflect.DeepEqual(res.Series, baseRes.Series) {
			t.Errorf("flow-mode result series differ between -shards 1 and -shards %d", workers)
		}
	}
}

// TestFlowModeParallelInvariance pins the other worker axis: the runner
// pool size (-parallel) must not change flow-mode digests or results —
// every run owns a private engine and flow fabric.
func TestFlowModeParallelInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run digest sweep")
	}
	prev := runner.Workers()
	defer runner.SetWorkers(prev)

	runner.SetWorkers(1)
	baseRes, baseDig := flowCrowdWith(t, 0)
	if len(baseDig) == 0 {
		t.Fatal("no digest bytes collected")
	}
	runner.SetWorkers(4)
	res, dig := flowCrowdWith(t, 0)
	if !bytes.Equal(dig, baseDig) {
		t.Error("flow-mode digest stream differs between -parallel 1 and -parallel 4")
	}
	if !reflect.DeepEqual(res.Series, baseRes.Series) {
		t.Error("flow-mode result series differ between -parallel 1 and -parallel 4")
	}
}

// TestHybridScenarioValidates pins the bundled hybrid specs: both load
// cleanly and declare at least one flow-fidelity group, and forcing them
// fully packet-level via Options is accepted (the bench baseline mode).
func TestHybridScenarioValidates(t *testing.T) {
	for _, path := range []string{
		"../../examples/scenarios/fig4a-hybrid.json",
		"../../examples/scenarios/flash-crowd-large-hybrid.json",
	} {
		spec, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		hasFlow := false
		for i := range spec.Peers {
			if spec.Peers[i].Fidelity == FidelityFlow {
				hasFlow = true
			}
		}
		if !hasFlow {
			t.Errorf("%s: no flow-fidelity group — not a hybrid scenario", path)
		}
	}
	if _, err := RunOpts(&Spec{}, 1, Options{Fidelity: "quantum"}); err == nil {
		t.Error("RunOpts accepted an unknown fidelity override")
	}
}
