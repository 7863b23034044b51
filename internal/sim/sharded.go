package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wp2p/wp2p/internal/stats"
)

// ShardedEngine coordinates several Engines — shards — through a
// conservative-lookahead barrier so one simulation can use several cores.
//
// The design separates the two things "-shards" could mean:
//
//   - The number of logical shards (Config.Shards) is part of the model: it
//     fixes which entities share an engine, an RNG stream, and event-sequence
//     numbering, so changing it changes the trajectory the same way changing
//     the seed does.
//   - The number of worker threads (Config.Workers) is pure hardware: shards
//     are isolated inside a window and the barrier drains cross-shard queues
//     in a fixed order, so any worker count replays the identical trajectory.
//     Digest streams are byte-identical across worker counts, which is the
//     reproducibility contract CI enforces (mirroring the -parallel
//     guarantee for independent runs).
//
// Time advances in half-open windows [wstart, wend) with wend − wstart ≤
// Lookahead, the minimum cross-shard interaction delay. Every cross-shard
// event therefore lands at or after the next barrier, so shards never need to
// roll back. Between windows the coordinator — single-threaded, workers
// parked — drains the cross-shard queues into the destination heaps, runs
// barrier hooks, and fires global events. Empty stretches of virtual time are
// skipped by starting each window at the earliest pending event, so a shard
// blocked at a barrier never spins: it either runs events or the whole world
// jumps forward.
type ShardedEngine struct {
	shards    []*Engine
	lookahead time.Duration
	workers   int

	// queues[src][dst] carries events crossing from shard src to shard dst.
	// During a window only shard src's worker appends to its row; the
	// coordinator drains every queue at the barrier in (dst, src, FIFO)
	// order, so destination-heap sequence numbers — and with them the whole
	// trajectory — are worker-count independent.
	queues [][]injectQueue

	// globals are control events that may touch several shards (scenario
	// faults, partitions). They run on the coordinator at a barrier whose
	// time equals their timestamp exactly: window ends are capped at the
	// next global, so every shard clock reads the global's own time when it
	// fires.
	globals []globalEvent
	gseq    uint64

	// barrierHooks run on the coordinator at every barrier (and once at
	// RunUntil entry), in registration order — the mount point for
	// cross-shard bookkeeping like the netem address directory.
	barrierHooks []func()

	// Persistent worker pool, spawned lazily at the first parallel window
	// and torn down by Close.
	work    chan *windowRound
	spawned int
	closed  bool

	panicMu  sync.Mutex
	panicVal any
	panicked bool

	// Coordinator-side counters, registered on shard 0 so they fold into
	// the same collector as every other instrument. All are worker-count
	// invariant (see shardprof.go for the determinism split).
	regWindows   *stats.Counter
	regCross     *stats.Counter
	regWindowNS  *stats.Counter
	regGlobals   *stats.Counter
	regGlobalCap *stats.Counter
	regQueuePeak *stats.Gauge

	// prof holds the wall-clock barrier profiler; nil until EnableProfile.
	prof *shardProf
}

// globalEvent is one coordinator-side control event.
type globalEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// injectQueue is one (src, dst) cross-shard channel. Plain slice: the owning
// side appends during a window, the coordinator drains at the barrier.
type injectQueue struct {
	items []injectItem
}

type injectItem struct {
	at time.Duration
	fn func()
}

// windowRound is one window's worth of work handed to the pool: workers pull
// shard indexes from idx until none remain.
type windowRound struct {
	wend      time.Duration
	inclusive bool
	idx       atomic.Int32
	wg        sync.WaitGroup
}

// ShardedConfig parameterizes a ShardedEngine.
type ShardedConfig struct {
	// Shards is the number of logical partitions (≥ 1). It is part of the
	// model: a different shard count is a different (equally valid)
	// trajectory, like a different seed.
	Shards int
	// Workers is the number of OS threads executing windows (0 = one per
	// shard, capped at GOMAXPROCS). Any value replays the same trajectory.
	Workers int
	// Lookahead is the minimum virtual-time delay of every cross-shard
	// interaction. It bounds the window length and must be positive when
	// Shards > 1: with a zero-latency cross-shard link no shard could ever
	// safely advance, and the barrier would deadlock. Construction panics
	// rather than letting that topology exist.
	Lookahead time.Duration
	// Seed seeds shard 0's engine exactly as a single-engine run would be
	// seeded; shard i gets Seed + i*shardSeedStride so the per-shard RNG
	// streams are decorrelated but reproducible.
	Seed int64
}

// shardSeedStride decorrelates per-shard RNG streams (2^32 · golden ratio,
// the usual Weyl increment).
const shardSeedStride = 0x9E3779B9

// NewShardedEngine builds the coordinator and its shard engines.
func NewShardedEngine(cfg ShardedConfig) *ShardedEngine {
	if cfg.Shards < 1 {
		panic("sim: ShardedConfig.Shards must be at least 1")
	}
	if cfg.Shards > 1 && cfg.Lookahead <= 0 {
		panic("sim: sharded lookahead must be positive — a zero-latency cross-shard topology would deadlock the barrier")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, cfg.Shards), 1)
	s := &ShardedEngine{
		lookahead: cfg.Lookahead,
		workers:   workers,
	}
	s.shards = make([]*Engine, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = NewEngine(WithSeed(cfg.Seed + int64(i)*shardSeedStride))
	}
	s.queues = make([][]injectQueue, cfg.Shards)
	for i := range s.queues {
		s.queues[i] = make([]injectQueue, cfg.Shards)
	}
	s.regWindows = s.shards[0].Stats().Counter("sim.shard.windows")
	s.regCross = s.shards[0].Stats().Counter("sim.shard.cross_events")
	s.regWindowNS = s.shards[0].Stats().Counter("sim.shard.window_ns")
	s.regGlobals = s.shards[0].Stats().Counter("sim.shard.globals_run")
	s.regGlobalCap = s.shards[0].Stats().Counter("sim.shard.global_capped_windows")
	s.regQueuePeak = s.shards[0].Stats().Gauge("sim.shard.queue_peak")
	return s
}

// Shard returns shard i's engine. Model code built on shard i must draw its
// events and randomness only from this engine.
func (s *ShardedEngine) Shard(i int) *Engine { return s.shards[i] }

// Lookahead reports the barrier's window bound — the minimum cross-shard
// interaction delay the model promised at construction.
func (s *ShardedEngine) Lookahead() time.Duration { return s.lookahead }

// Now returns the coordinated virtual time. Between windows every shard
// clock equals it.
func (s *ShardedEngine) Now() time.Duration { return s.shards[0].Now() }

// OnBarrier registers fn to run on the coordinator at every barrier, with
// all workers parked. Hooks run in registration order at RunUntil entry and
// after every window.
func (s *ShardedEngine) OnBarrier(fn func()) {
	if fn == nil {
		panic("sim: OnBarrier with nil hook")
	}
	s.barrierHooks = append(s.barrierHooks, fn)
}

// Inject queues fn to run on shard dst at absolute virtual time at. It is
// the only legal way for shard src's model code to affect shard dst, and is
// safe exactly where model code runs: on shard src's worker during a window,
// or on the coordinator (construction, global events, barrier hooks). at
// must be at least Lookahead past shard src's clock when called from inside
// a window; the barrier panics on an item stamped behind its clock.
func (s *ShardedEngine) Inject(src, dst int, at time.Duration, fn func()) {
	if fn == nil {
		panic("sim: Inject with nil function")
	}
	q := &s.queues[src][dst]
	q.items = append(q.items, injectItem{at: at, fn: fn})
}

// ScheduleGlobal queues fn to run on the coordinator at absolute virtual
// time at, with every shard clock equal to at and all workers parked —
// scenario-level control that may touch any shard. Calling it from shard
// model code is a race; call it from the coordinator (construction, another
// global, a barrier hook) only.
func (s *ShardedEngine) ScheduleGlobal(at time.Duration, fn func()) {
	if fn == nil {
		panic("sim: ScheduleGlobal with nil function")
	}
	if now := s.Now(); at < now {
		at = now
	}
	s.globals = append(s.globals, globalEvent{at: at, seq: s.gseq, fn: fn})
	s.gseq++
}

// RunUntil advances every shard to deadline, firing events with timestamps
// at or before it — the same contract as Engine.RunUntil, windowed. The
// deadline binds at barriers too: a shard with nothing to do does not block
// on its neighbors' clocks, the whole world fast-forwards to the next
// pending event or the deadline, whichever is earlier.
func (s *ShardedEngine) RunUntil(deadline time.Duration) {
	if s.closed {
		panic("sim: RunUntil on a closed ShardedEngine")
	}
	if len(s.shards) > 1 && s.lookahead <= 0 {
		panic("sim: sharded lookahead must be positive — a zero-latency cross-shard topology would deadlock the barrier")
	}
	// Entry barrier: construction-time injections and control scheduled
	// between runs become heap events before any window is sized.
	s.barrier()
	for {
		t, ok := s.nextTime()
		if !ok || t > deadline {
			// Nothing left on or before the deadline: advance every clock
			// to it and stop. RunBefore on an eventless prefix only moves
			// the clock.
			s.runRound(deadline, false)
			s.barrier()
			return
		}
		if t == deadline {
			// Final pass: deadline events fire inclusively, matching
			// Engine.RunUntil. Cross-shard sends they emit land strictly
			// after the deadline (delay ≥ lookahead > 0) and stay queued in
			// the destination heaps for a later run.
			s.runRound(deadline, true)
			s.barrier()
			continue
		}
		wend := t + s.lookahead
		if g, ok := s.nextGlobalTime(); ok && g < wend {
			// Stop the window at the global so it fires with every clock
			// reading exactly its own timestamp.
			wend = g
			s.regGlobalCap.Inc()
		}
		wend = min(wend, deadline)
		s.runRound(wend, false)
		drained, globalsRun := s.barrier()
		s.regWindows.Inc()
		s.regWindowNS.Add(int64(wend - t))
		if wend == t && drained == 0 && globalsRun == 0 {
			// Bounded-wait assertion: a degenerate window that moved no
			// time and did no work would repeat forever.
			panic(fmt.Sprintf("sim: sharded barrier made no progress at t=%v (lookahead %v)", t, s.lookahead))
		}
	}
}

// nextTime returns the earliest pending virtual time across every shard heap
// and the global queue. Cross-shard queues are empty here: barriers drain
// them before any window is sized.
func (s *ShardedEngine) nextTime() (time.Duration, bool) {
	var best time.Duration
	ok := false
	for _, sh := range s.shards {
		if at, has := sh.PeekNext(); has && (!ok || at < best) {
			best, ok = at, true
		}
	}
	if g, has := s.nextGlobalTime(); has && (!ok || g < best) {
		best, ok = g, true
	}
	return best, ok
}

func (s *ShardedEngine) nextGlobalTime() (time.Duration, bool) {
	ok := false
	var best time.Duration
	var bestSeq uint64
	for i := range s.globals {
		g := &s.globals[i]
		if !ok || g.at < best || (g.at == best && g.seq < bestSeq) {
			best, bestSeq, ok = g.at, g.seq, true
		}
	}
	return best, ok
}

// popGlobalDue removes and returns the earliest global with at ≤ now,
// breaking ties by scheduling order.
func (s *ShardedEngine) popGlobalDue(now time.Duration) (globalEvent, bool) {
	best := -1
	for i := range s.globals {
		g := &s.globals[i]
		if g.at > now {
			continue
		}
		if best < 0 || g.at < s.globals[best].at ||
			(g.at == s.globals[best].at && g.seq < s.globals[best].seq) {
			best = i
		}
	}
	if best < 0 {
		return globalEvent{}, false
	}
	g := s.globals[best]
	last := len(s.globals) - 1
	s.globals[best] = s.globals[last]
	s.globals[last] = globalEvent{}
	s.globals = s.globals[:last]
	return g, true
}

// barrier runs one full coordinator round: drain, hooks, due globals, and a
// final drain so work the hooks or globals injected is in the heaps before
// the next window is sized. It reports the cross-shard events drained and
// the globals run, the work the no-progress assertion looks for.
func (s *ShardedEngine) barrier() (drained, globalsRun int) {
	drained = s.drainAll()
	for _, h := range s.barrierHooks {
		h()
	}
	now := s.Now()
	var t0 time.Time
	if s.prof != nil {
		t0 = time.Now()
	}
	for {
		g, ok := s.popGlobalDue(now)
		if !ok {
			break
		}
		globalsRun++
		g.fn()
	}
	if s.prof != nil {
		s.prof.globalNS += time.Since(t0).Nanoseconds()
	}
	if globalsRun > 0 {
		s.regGlobals.Add(int64(globalsRun))
	}
	drained += s.drainAll()
	return drained, globalsRun
}

// drainAll moves every queued cross-shard event into its destination heap.
// Fixed (dst, src, FIFO) order makes the destination's sequence stamps —
// and so its tie-breaking among same-instant events — independent of how
// many workers produced the queues.
func (s *ShardedEngine) drainAll() int {
	var t0 time.Time
	if s.prof != nil {
		t0 = time.Now()
	}
	n := 0
	for dst := range s.shards {
		e := s.shards[dst]
		now := e.Now()
		for src := range s.shards {
			q := &s.queues[src][dst]
			if depth := int64(len(q.items)); depth > 0 {
				s.regQueuePeak.SetMax(depth)
			}
			for i := range q.items {
				it := q.items[i]
				if it.at < now {
					panic(fmt.Sprintf("sim: cross-shard event from shard %d to %d stamped %v, behind the barrier at %v — the sender violated the lookahead bound", src, dst, it.at, now))
				}
				e.ScheduleAt(it.at, it.fn)
				q.items[i] = injectItem{}
			}
			n += len(q.items)
			q.items = q.items[:0]
		}
	}
	if n > 0 {
		s.regCross.Add(int64(n))
	}
	if s.prof != nil {
		s.prof.drainNS += time.Since(t0).Nanoseconds()
	}
	return n
}

// runRound advances every shard to wend — exclusively (RunBefore) for
// ordinary windows, inclusively (RunUntil) for the final deadline pass —
// fanning shards over the worker pool when one is warranted.
func (s *ShardedEngine) runRound(wend time.Duration, inclusive bool) {
	var t0 time.Time
	if s.prof != nil {
		t0 = time.Now()
	}
	n := len(s.shards)
	w := min(s.workers, n)
	if w <= 1 || n == 1 {
		for i, sh := range s.shards {
			var e0 time.Time
			if s.prof != nil {
				e0 = time.Now()
			}
			if inclusive {
				sh.RunUntil(wend)
			} else {
				sh.RunBefore(wend)
			}
			if s.prof != nil {
				s.prof.execNS[i] += time.Since(e0).Nanoseconds()
			}
		}
		s.finishRound(t0)
		s.rethrow()
		return
	}
	s.ensureWorkers(w - 1)
	r := &windowRound{wend: wend, inclusive: inclusive}
	r.wg.Add(w - 1)
	for i := 0; i < w-1; i++ {
		s.work <- r
	}
	s.consume(r)
	r.wg.Wait()
	s.finishRound(t0)
	s.rethrow()
}

// finishRound accounts one runRound's wall time when profiling is armed.
// It runs on the coordinator after the round's WaitGroup barrier, so every
// worker's execNS writes for this round happen-before it.
func (s *ShardedEngine) finishRound(t0 time.Time) {
	if s.prof == nil {
		return
	}
	s.prof.roundNS += time.Since(t0).Nanoseconds()
	s.prof.rounds++
}

// consume pulls shard indexes from the round until none remain. A panic in
// model code (an invariant-checker violation, say) is captured and rethrown
// on the coordinator so it unwinds the run like a single-engine panic would.
func (s *ShardedEngine) consume(r *windowRound) {
	defer func() {
		if p := recover(); p != nil {
			s.storePanic(p)
		}
	}()
	for {
		i := int(r.idx.Add(1)) - 1
		if i >= len(s.shards) {
			return
		}
		var e0 time.Time
		if s.prof != nil {
			e0 = time.Now()
		}
		if r.inclusive {
			s.shards[i].RunUntil(r.wend)
		} else {
			s.shards[i].RunBefore(r.wend)
		}
		if s.prof != nil {
			// Exclusive per round (one worker runs shard i) and ordered
			// across rounds by the coordinator's wg.Wait — plain add is safe.
			s.prof.execNS[i] += time.Since(e0).Nanoseconds()
		}
	}
}

func (s *ShardedEngine) storePanic(p any) {
	s.panicMu.Lock()
	if !s.panicked {
		s.panicked = true
		s.panicVal = p
	}
	s.panicMu.Unlock()
}

func (s *ShardedEngine) rethrow() {
	s.panicMu.Lock()
	p, had := s.panicVal, s.panicked
	s.panicMu.Unlock()
	if had {
		panic(p)
	}
}

// ensureWorkers brings the persistent pool up to n goroutines.
func (s *ShardedEngine) ensureWorkers(n int) {
	if s.work == nil {
		s.work = make(chan *windowRound)
	}
	ch := s.work
	for ; s.spawned < n; s.spawned++ {
		go func() {
			for r := range ch {
				s.consume(r)
				r.wg.Done()
			}
		}()
	}
}

// Close tears down the worker pool. The shard engines remain readable
// (metrics, digests), but RunUntil panics afterwards. Idempotent.
func (s *ShardedEngine) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.work != nil {
		close(s.work)
		s.work = nil
	}
}

// String describes the coordinator state, for debugging.
func (s *ShardedEngine) String() string {
	return fmt.Sprintf("sim.ShardedEngine{shards: %d, workers: %d, now: %v, lookahead: %v}",
		len(s.shards), s.workers, s.Now(), s.lookahead)
}
