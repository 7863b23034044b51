package scenario

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/wp2p/wp2p/internal/experiments"
)

// flashCrowdWith runs the example flash-crowd scenario at the given shard
// worker count with digests armed, returning the figure and digest bytes.
func flashCrowdWith(t *testing.T, workers int) (*experiments.Result, []byte) {
	t.Helper()
	spec, err := LoadFile("../../examples/scenarios/flash-crowd.json")
	if err != nil {
		t.Fatal(err)
	}
	experiments.EnableChecking(0)
	experiments.EnableDigests()
	t.Cleanup(experiments.DisableChecking)
	res, err := RunOpts(spec, 0.05, Options{ShardWorkers: workers})
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

// TestFlashCrowdShardWorkerInvariance is the acceptance-criterion sweep at
// the scenario layer: the flash-crowd schedule — deferred joins, a drain
// event, sampled measurement — must produce byte-identical digest streams and
// identical figures across -shards 1/2/4 for the same seed.
func TestFlashCrowdShardWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run digest sweep")
	}
	baseRes, baseDig := flashCrowdWith(t, 1)
	if len(baseDig) == 0 {
		t.Fatal("no digest bytes collected")
	}
	for _, workers := range []int{2, 4} {
		res, dig := flashCrowdWith(t, workers)
		if !bytes.Equal(dig, baseDig) {
			t.Errorf("digest stream differs between -shards 1 and -shards %d", workers)
		}
		if !reflect.DeepEqual(res.Series, baseRes.Series) {
			t.Errorf("result series differ between -shards 1 and -shards %d", workers)
		}
		if !reflect.DeepEqual(res.Stats, baseRes.Stats) {
			t.Errorf("stats snapshots differ between -shards 1 and -shards %d", workers)
		}
	}
}

// TestScenarioShardsNonBTRejected pins the gate: sharding is a BT-world
// feature, so a non-BT workload with -shards set must fail loudly rather
// than silently running single-engine.
func TestScenarioShardsNonBTRejected(t *testing.T) {
	spec := &Spec{
		Schema: SchemaVersion,
		Name:   "ed2k-sharded",
		Workload: WorkloadSpec{
			Protocol: ProtoEd2k,
		},
		Peers: []PeerGroup{{Name: "a"}},
	}
	if _, err := RunOpts(spec, 1, Options{ShardWorkers: 2}); err == nil {
		t.Fatal("non-BT workload accepted with ShardWorkers > 0")
	}
}
