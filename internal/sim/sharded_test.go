package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// shardedTrace runs a fixed cross-shard workload and returns the totally
// ordered log of (shard, time, tag) observations each shard produced,
// concatenated in shard order. The workload exercises local events,
// cross-shard injections (with the minimum legal delay), and a global event.
func shardedTrace(t *testing.T, shards, workers int) []string {
	t.Helper()
	const look = 10 * time.Millisecond
	s := NewShardedEngine(ShardedConfig{Shards: shards, Workers: workers, Lookahead: look, Seed: 7})
	defer s.Close()
	logs := make([][]string, shards)
	for i := 0; i < shards; i++ {
		i := i
		e := s.Shard(i)
		// Each shard ticks every 3ms, logging its clock and an RNG draw
		// (catches cross-worker RNG bleed), and every second tick pings the
		// next shard with the minimum legal lookahead delay.
		var tick func()
		n := 0
		tick = func() {
			n++
			logs[i] = append(logs[i], fmt.Sprintf("s%d local %v r%d", i, e.Now(), e.Rand().Intn(1000)))
			if n%2 == 0 {
				dst := (i + 1) % shards
				from, at := i, e.Now()+look
				s.Inject(from, dst, at, func() {
					logs[dst] = append(logs[dst], fmt.Sprintf("s%d recv-from-%d %v", dst, from, s.Shard(dst).Now()))
				})
			}
			if n < 20 {
				e.Schedule(3*time.Millisecond, tick)
			}
		}
		e.Schedule(time.Duration(i)*time.Millisecond, tick)
	}
	s.ScheduleGlobal(25*time.Millisecond, func() {
		for j := 0; j < shards; j++ {
			logs[j] = append(logs[j], fmt.Sprintf("s%d global %v", j, s.Shard(j).Now()))
		}
	})
	s.RunUntil(s.Now() + 200*time.Millisecond)
	var out []string
	for _, l := range logs {
		out = append(out, l...)
	}
	return out
}

// TestShardedWorkerCountInvariance is the core determinism property: the
// trajectory depends on the logical shard count, never on the worker count.
func TestShardedWorkerCountInvariance(t *testing.T) {
	base := shardedTrace(t, 4, 1)
	if len(base) == 0 {
		t.Fatal("workload produced no events")
	}
	for _, workers := range []int{2, 4, 8} {
		got := shardedTrace(t, 4, workers)
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d log entries, want %d", workers, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: log[%d] = %q, want %q", workers, i, got[i], base[i])
			}
		}
	}
}

// TestShardedZeroLookaheadPanics covers the barrier-deadlock regression: a
// zero-latency-adjacent shard topology must be rejected at construction, not
// hang at the first barrier.
func TestShardedZeroLookaheadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewShardedEngine accepted a zero lookahead for a multi-shard topology")
		}
	}()
	NewShardedEngine(ShardedConfig{Shards: 2, Lookahead: 0})
}

// TestShardedDeadlineHonored: shards with no pending work must not block at
// the barrier waiting for neighbors — RunUntil fast-forwards everyone to the
// deadline and returns.
func TestShardedDeadlineHonored(t *testing.T) {
	s := NewShardedEngine(ShardedConfig{Shards: 3, Workers: 2, Lookahead: time.Millisecond})
	defer s.Close()
	// One lonely event far before the deadline; the other shards are empty.
	fired := false
	s.Shard(1).Schedule(5*time.Millisecond, func() { fired = true })
	// And one event beyond the deadline that must stay queued.
	late := false
	s.Shard(2).Schedule(2*time.Second, func() { late = true })
	s.RunUntil(time.Second)
	if !fired {
		t.Error("pre-deadline event did not fire")
	}
	if late {
		t.Error("post-deadline event fired early")
	}
	for i := 0; i < len(s.shards); i++ {
		if now := s.Shard(i).Now(); now != time.Second {
			t.Errorf("shard %d clock = %v, want %v", i, now, time.Second)
		}
	}
	if s.Shard(2).Pending() != 1 {
		t.Errorf("post-deadline event lost: pending = %d", s.Shard(2).Pending())
	}
}

// TestShardedDeadlineInclusive: events at exactly the deadline fire, matching
// Engine.RunUntil semantics.
func TestShardedDeadlineInclusive(t *testing.T) {
	s := NewShardedEngine(ShardedConfig{Shards: 2, Workers: 2, Lookahead: time.Millisecond, Seed: 1})
	defer s.Close()
	var order []string
	s.Shard(0).Schedule(10*time.Millisecond, func() {
		order = append(order, "at-deadline")
		// Same-instant follow-up must also fire, like a single engine.
		s.Shard(0).Schedule(0, func() { order = append(order, "same-instant") })
	})
	s.RunUntil(10 * time.Millisecond)
	if len(order) != 2 || order[0] != "at-deadline" || order[1] != "same-instant" {
		t.Fatalf("deadline events = %v, want [at-deadline same-instant]", order)
	}
}

// TestShardedGlobalTiming: a global event runs with every shard clock at
// exactly its own timestamp, even mid-window.
func TestShardedGlobalTiming(t *testing.T) {
	const look = 50 * time.Millisecond
	s := NewShardedEngine(ShardedConfig{Shards: 2, Workers: 2, Lookahead: look, Seed: 1})
	defer s.Close()
	// Keep shard 0 busy so windows are long; the global lands mid-window.
	var tick func()
	e := s.Shard(0)
	tick = func() {
		if e.Now() < 100*time.Millisecond {
			e.Schedule(time.Millisecond, tick)
		}
	}
	e.Schedule(0, tick)
	var at0, at1 time.Duration
	s.ScheduleGlobal(13*time.Millisecond, func() {
		at0, at1 = s.Shard(0).Now(), s.Shard(1).Now()
	})
	s.RunUntil(s.Now() + 200*time.Millisecond)
	if at0 != 13*time.Millisecond || at1 != 13*time.Millisecond {
		t.Fatalf("global saw clocks (%v, %v), want (13ms, 13ms)", at0, at1)
	}
}

// TestShardedInjectDrainOrder: same-instant cross-shard arrivals execute in
// (source shard, FIFO) order regardless of which worker ran which source.
func TestShardedInjectDrainOrder(t *testing.T) {
	const look = 10 * time.Millisecond
	for _, workers := range []int{1, 3} {
		s := NewShardedEngine(ShardedConfig{Shards: 3, Workers: workers, Lookahead: look, Seed: 1})
		var got []string
		// Shards 1 and 2 each inject two events to shard 0, all stamped for
		// the same instant. Expected execution order: src 1 FIFO, then src 2
		// FIFO — independent of worker scheduling.
		for _, src := range []int{2, 1} { // construction order deliberately reversed
			src := src
			s.Shard(src).Schedule(time.Millisecond, func() {
				at := s.Shard(src).Now() + look
				for k := 0; k < 2; k++ {
					tag := fmt.Sprintf("src%d#%d", src, k)
					s.Inject(src, 0, at, func() { got = append(got, tag) })
				}
			})
		}
		s.RunUntil(s.Now() + 100*time.Millisecond)
		s.Close()
		want := []string{"src1#0", "src1#1", "src2#0", "src2#1"}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: got %v, want %v", workers, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: got %v, want %v", workers, got, want)
			}
		}
	}
}

// TestShardedCausalityAssertion: an injection stamped behind the barrier
// panics instead of silently firing late, with no checker attached.
func TestShardedCausalityAssertion(t *testing.T) {
	s := NewShardedEngine(ShardedConfig{Shards: 2, Workers: 1, Lookahead: 10 * time.Millisecond, Seed: 1})
	defer s.Close()
	s.Shard(0).Schedule(5*time.Millisecond, func() {
		// Violates the lookahead bound: stamped for "now", which is behind
		// the next barrier.
		s.Inject(0, 1, s.Shard(0).Now(), func() {})
	})
	defer func() {
		if recover() == nil {
			t.Fatal("lookahead violation was not caught")
		}
	}()
	s.RunUntil(s.Now() + time.Second)
}

// TestShardedNoProgressAssertion: a barrier round that fires nothing,
// drains nothing, runs no global and moves no clock would repeat forever. A
// one-shard engine is the only one allowed a zero lookahead, and the only
// way to size such a window; the barrier panics instead of spinning.
func TestShardedNoProgressAssertion(t *testing.T) {
	s := NewShardedEngine(ShardedConfig{Shards: 1, Seed: 1})
	defer s.Close()
	s.Shard(0).Schedule(time.Millisecond, func() {})
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "made no progress") {
			t.Fatalf("panic = %q, want the barrier's no-progress check", msg)
		}
	}()
	s.RunUntil(time.Second)
}

// TestShardedPanicPropagates: a panic in shard model code unwinds RunUntil
// on the caller, like a single-engine panic would.
func TestShardedPanicPropagates(t *testing.T) {
	s := NewShardedEngine(ShardedConfig{Shards: 4, Workers: 4, Lookahead: time.Millisecond, Seed: 1})
	defer s.Close()
	s.Shard(2).Schedule(time.Millisecond, func() { panic("model violation") })
	defer func() {
		if p := recover(); p != "model violation" {
			t.Fatalf("recovered %v, want the model panic", p)
		}
	}()
	s.RunUntil(s.Now() + time.Second)
}

// TestShardedRepeatedRuns: RunFor can be called in slices (the sampled
// scenario driver does) with injections pending across the boundary.
func TestShardedRepeatedRuns(t *testing.T) {
	const look = 10 * time.Millisecond
	s := NewShardedEngine(ShardedConfig{Shards: 2, Workers: 2, Lookahead: look, Seed: 1})
	defer s.Close()
	var hits []time.Duration
	s.Shard(0).Schedule(95*time.Millisecond, func() {
		at := s.Shard(0).Now() + look
		s.Inject(0, 1, at, func() { hits = append(hits, s.Shard(1).Now()) })
	})
	for i := 0; i < 4; i++ {
		s.RunUntil(s.Now() + 50*time.Millisecond)
		if want := time.Duration(i+1) * 50 * time.Millisecond; s.Now() != want {
			t.Fatalf("after slice %d: now = %v, want %v", i, s.Now(), want)
		}
	}
	if len(hits) != 1 || hits[0] != 105*time.Millisecond {
		t.Fatalf("cross-slice injection hits = %v, want [105ms]", hits)
	}
}
