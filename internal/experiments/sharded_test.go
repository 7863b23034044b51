package experiments

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/stats"
)

// TestShardedWorldDownloadSmoke drives a real BitTorrent download across the
// sharded world: seeds and leech land on different logical shards (the
// permutation over 8 shards guarantees it), so every piece crosses the
// fabric, and the leech's announce relays through the tracker proxy.
func TestShardedWorldDownloadSmoke(t *testing.T) {
	w := NewWorldSharded(42, 30*time.Second, netem.NetworkConfig{}, ShardConfig{Workers: 2})
	col := stats.NewCollector()
	finished := false
	defer func() {
		if !finished {
			w.Finish(col)
		}
	}()

	tor := bt.NewMetaInfo("smoke", 2*1024*1024, 256*1024)
	shards := map[int]bool{}
	for i := 0; i < 2; i++ {
		h := w.WiredHost(0, 0)
		shards[h.Shard] = true
		bt.NewClient(bt.Config{
			Transport: h.Transport, Torrent: tor, Tracker: w.Announcer(h), Seed: true,
		}).Start()
	}
	lh := w.WiredHost(0, 0)
	shards[lh.Shard] = true
	leech := bt.NewClient(bt.Config{
		Transport: lh.Transport, Torrent: tor, Tracker: w.Announcer(lh),
	})
	leech.Start()

	w.RunFor(5 * time.Minute)
	if len(shards) < 2 {
		t.Fatalf("all hosts landed on one shard (%v) — the smoke test exercised no cross-shard traffic", shards)
	}
	if !leech.Complete() {
		t.Fatalf("cross-shard download incomplete: %d bytes", leech.Downloaded())
	}
	w.Finish(col)
	finished = true
	cross := int64(0)
	for _, c := range col.Snapshot().Counters {
		if c.Name == "sim.shard.cross_events" {
			cross = c.Value
		}
	}
	if cross == 0 {
		t.Error("no cross-shard events recorded — the fabric was never used")
	}
}

// TestShardedWorldZeroWorkersIsLegacy pins the one-shard contract: a zero
// ShardConfig builds a single-engine world, which is a one-shard world
// whose only shard is the world's Engine and Net, with no coordinator.
func TestShardedWorldZeroWorkersIsLegacy(t *testing.T) {
	w := NewWorldSharded(1, time.Minute, netem.NetworkConfig{}, ShardConfig{})
	defer w.Finish(nil)
	if w.Sharded != nil {
		t.Fatal("zero ShardConfig built a sharded world")
	}
	if len(w.Shards) != 1 || w.Shards[0].Engine != w.Engine || w.Shards[0].Net != w.Net {
		t.Fatalf("zero ShardConfig: %d shards, want one aliasing the world's Engine and Net", len(w.Shards))
	}
	h := w.WiredHost(0, 0)
	if h.Engine != w.Engine || h.Net != w.Net || h.Shard != 0 {
		t.Fatal("host not placed on the world engine")
	}
	if w.Announcer(h) != bt.Announcer(w.Tracker) {
		t.Fatal("announcer is not the tracker itself")
	}
}

// TestZeroCloudDelayIsCoreDelay pins the builder's one core-delay decision:
// a zero CloudDelay gives every shard's network the 15 ms core, on the
// single-engine and the sharded path alike (netem's own default is 20 ms).
func TestZeroCloudDelayIsCoreDelay(t *testing.T) {
	for _, workers := range []int{0, 2} {
		w := NewWorldSharded(1, time.Minute, netem.NetworkConfig{}, ShardConfig{Workers: workers})
		for i, sh := range w.Shards {
			if got := sh.Net.PathDelay(10, 11); got != 15*time.Millisecond {
				t.Errorf("workers=%d shard %d: PathDelay = %v, want 15ms", workers, i, got)
			}
		}
		if w.Sharded != nil && w.Sharded.Lookahead() != 15*time.Millisecond {
			t.Errorf("workers=%d: lookahead = %v, want 15ms", workers, w.Sharded.Lookahead())
		}
		w.Finish(nil)
	}
}

// TestShardedPairDelayGuard: lowering a pair delay below the lookahead in a
// sharded world must panic at configuration time (the zero-latency-adjacent
// shard deadlock, caught early).
func TestShardedPairDelayGuard(t *testing.T) {
	w := NewWorldSharded(1, time.Minute, netem.NetworkConfig{}, ShardConfig{Workers: 1})
	defer w.Finish(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("sub-lookahead pair delay accepted in a sharded world")
		}
	}()
	w.Shards[0].Net.SetPairDelay(10, 11, time.Millisecond)
}

// fig4aWith runs the fig4a pipeline at the given worker count and returns
// the result and collected digest bytes.
func fig4aWith(t *testing.T, workers int) (*Result, []byte) {
	t.Helper()
	withChecking(t, true)
	res := Fig4aServerMobility(Fig4aConfig{
		Scale:   0.05,
		Periods: []time.Duration{0, time.Minute},
		Shards:  workers,
	})
	var buf bytes.Buffer
	if err := WriteDigests(&buf); err != nil {
		t.Fatal(err)
	}
	DisableChecking()
	return res, buf.Bytes()
}

// TestFig4aShardWorkerInvariance is the acceptance-criterion sweep at the
// experiments layer: fig4a's wp2p.digest.v1 stream and result series must be
// byte-identical across -shards 1/2/4 for the same seed.
func TestFig4aShardWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run digest sweep")
	}
	baseRes, baseDig := fig4aWith(t, 1)
	if len(baseDig) == 0 {
		t.Fatal("no digest bytes collected")
	}
	for _, workers := range []int{2, 4} {
		res, dig := fig4aWith(t, workers)
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
