package scenario

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/wp2p/wp2p/internal/experiments"
	"github.com/wp2p/wp2p/internal/runner"
)

// hybridTolerance is the documented accuracy contract of flow fidelity:
// every figure point produced with the fluid wired core must land within
// 10% (relative) of the packet-level truth, with a 1 KB/s absolute floor so
// near-zero points don't blow up the ratio.
const hybridTolerance = 0.10

// TestFig4aFlowWithinTolerance validates the hybrid model on an all-wired
// figure: fig4a-hybrid.json puts the fixed peer on the fluid core while the
// seeds, whose group carries a mobility block, stay packet-level, and the
// mobility throughput-collapse curves must match fig4a.json's all-packet
// run within tolerance.
func TestFig4aFlowWithinTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("two fig4a sweeps")
	}
	run := func(file string) *experiments.Result {
		spec := loadExample(t, file)
		sweep := *spec.Sweep
		sweep.Values, sweep.X = []any{"0s", "30s"}, []float64{0, 0.5}
		spec.Sweep = &sweep
		res, err := RunOpts(spec, testScale, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	packet, flow := run("fig4a.json"), run("fig4a-hybrid.json")
	for si, s := range packet.Series {
		for i, p := range s.Y {
			f := flow.Series[si].Y[i]
			t.Logf("%s at %v min: flow=%.1f packet=%.1f KB/s", s.Label, s.X[i], f, p)
			if bound := max(hybridTolerance*p, 1); math.Abs(f-p) > bound {
				t.Errorf("%s at %v min: flow=%.3f packet=%.3f KB/s (tolerance %.3f)", s.Label, s.X[i], f, p, bound)
			}
		}
	}
}

// flowCrowdWith runs the example flash-crowd scenario with its three wired,
// immobile groups set to flow fidelity through their fidelity fields, at
// the given shard worker count, with digests armed — returning the figure
// and digest bytes.
func flowCrowdWith(t *testing.T, shardWorkers int) (*experiments.Result, []byte) {
	t.Helper()
	spec, err := LoadFile("../../examples/scenarios/flash-crowd.json")
	if err != nil {
		t.Fatal(err)
	}
	var flow []Override
	for i := range spec.Peers {
		flow = append(flow, Override{Path: fmt.Sprintf("peers[%d].fidelity", i), Value: FidelityFlow})
	}
	if spec, err = spec.Variant(flow); err != nil {
		t.Fatal(err)
	}
	experiments.EnableChecking(0)
	experiments.EnableDigests()
	t.Cleanup(experiments.DisableChecking)
	res, err := RunOpts(spec, 0.05, Options{ShardWorkers: shardWorkers})
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
// cleanly and declare at least one flow-fidelity group. Options can force a
// spec fully packet-level (the bench baseline mode) but not flow: that is
// each group's fidelity field.
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
	for _, bad := range []string{FidelityFlow, "quantum"} {
		if _, err := RunOpts(&Spec{}, 1, Options{Fidelity: bad}); err == nil || !strings.Contains(err.Error(), "peers[i].fidelity") {
			t.Errorf("RunOpts with Options.Fidelity %q: %v, want a rejection naming the group field", bad, err)
		}
	}
}
