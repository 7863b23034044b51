package sim

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// buildProfiledWorld wires a 4-shard engine with periodic per-shard work,
// one cross-shard migration pattern, and a global, then runs it profiled.
func buildProfiledWorld(t *testing.T, workers int) *ShardedEngine {
	t.Helper()
	se := NewShardedEngine(ShardedConfig{Shards: 4, Workers: workers, Lookahead: 10 * time.Millisecond, Seed: 7})
	t.Cleanup(se.Close)
	se.EnableProfile()
	for i := 0; i < len(se.shards); i++ {
		i := i
		eng := se.Shard(i)
		var tick func()
		tick = func() { eng.Schedule(time.Millisecond, tick) }
		eng.Schedule(time.Millisecond, tick)
		// Shard i sends one event to shard (i+1)%4 per 5ms, a lookahead away.
		var send func()
		send = func() {
			se.Inject(i, (i+1)%4, eng.Now()+se.Lookahead(), func() {})
			eng.Schedule(5*time.Millisecond, send)
		}
		eng.Schedule(5*time.Millisecond, send)
	}
	se.ScheduleGlobal(42*time.Millisecond, func() {})
	se.RunUntil(se.Now() + 100*time.Millisecond)
	return se
}

func TestBarrierProfileCounts(t *testing.T) {
	se := buildProfiledWorld(t, 2)
	bp := se.Profile()
	if bp == nil {
		t.Fatal("Profile() nil after EnableProfile")
	}
	if bp.Shards != 4 || bp.Workers != 2 {
		t.Fatalf("shape = %d shards / %d workers", bp.Shards, bp.Workers)
	}
	if bp.Windows == 0 || bp.WindowNS == 0 {
		t.Fatalf("no windows profiled: %+v", bp)
	}
	if bp.GlobalsRun != 1 {
		t.Fatalf("globals run = %d, want 1", bp.GlobalsRun)
	}
	if bp.GlobalCapped == 0 {
		t.Fatal("the 42ms global (off the 10ms window grid) must cap at least one window")
	}
	if bp.CrossEvents == 0 || bp.QueuePeak == 0 {
		t.Fatalf("cross-shard traffic not profiled: cross=%d peak=%d", bp.CrossEvents, bp.QueuePeak)
	}
	var events int64
	for _, sp := range bp.PerShard {
		events += sp.Events
		if sp.Events == 0 {
			t.Fatalf("a shard with a 1ms ticker fired no events: %+v", bp.PerShard)
		}
		if sp.ExecWallNS+sp.WaitWallNS > 0 && sp.ExecWallNS+sp.WaitWallNS < bp.RoundWallNS {
			t.Fatalf("shard exec+wait %d below total round wall %d", sp.ExecWallNS+sp.WaitWallNS, bp.RoundWallNS)
		}
	}
	if bp.RoundWallNS <= 0 {
		t.Fatal("round wall not measured")
	}
}

func TestBarrierProfileDeterministicFieldsWorkerInvariant(t *testing.T) {
	a := buildProfiledWorld(t, 1).Profile()
	b := buildProfiledWorld(t, 4).Profile()
	if a.Windows != b.Windows || a.WindowNS != b.WindowNS ||
		a.GlobalsRun != b.GlobalsRun || a.GlobalCapped != b.GlobalCapped ||
		a.CrossEvents != b.CrossEvents || a.QueuePeak != b.QueuePeak {
		t.Fatalf("deterministic profile fields differ across worker counts:\n1w: %+v\n4w: %+v", a, b)
	}
	for i := range a.PerShard {
		if a.PerShard[i].Events != b.PerShard[i].Events {
			t.Fatalf("shard %d events differ: %d vs %d", i, a.PerShard[i].Events, b.PerShard[i].Events)
		}
	}
}

func TestBarrierProfileMergeAndTable(t *testing.T) {
	a := buildProfiledWorld(t, 2).Profile()
	b := buildProfiledWorld(t, 2).Profile()
	wantWindows := a.Windows + b.Windows
	wantEvents0 := a.PerShard[0].Events + b.PerShard[0].Events
	a.Merge(b)
	if a.Windows != wantWindows || a.PerShard[0].Events != wantEvents0 {
		t.Fatalf("merge did not sum: %+v", a)
	}
	var buf bytes.Buffer
	a.WriteTable(&buf)
	out := buf.String()
	for _, want := range []string{"barrier profile: 4 shards", "windows", "migration-queue peak depth", "busy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "\n  "); got < 4 {
		t.Fatalf("table has too few rows:\n%s", out)
	}
}

func TestProfileNilWhenDisabled(t *testing.T) {
	se := NewShardedEngine(ShardedConfig{Shards: 2, Workers: 1, Lookahead: time.Millisecond, Seed: 1})
	defer se.Close()
	se.RunUntil(se.Now() + time.Millisecond)
	if se.Profile() != nil {
		t.Fatal("Profile() must be nil without EnableProfile")
	}
}
