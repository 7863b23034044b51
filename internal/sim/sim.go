// Package sim provides a deterministic discrete-event simulation engine.
//
// All model time is virtual: the engine maintains a clock that jumps from
// event to event, so a simulated hour of a BitTorrent swarm runs in
// milliseconds of wall time. The engine is strictly single-threaded; model
// code runs only inside event callbacks, which makes every run with the same
// seed bit-for-bit reproducible.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/wp2p/wp2p/internal/stats"
)

// Engine is a discrete-event scheduler with a virtual clock.
//
// The zero value is not usable; create engines with NewEngine.
type Engine struct {
	now time.Duration
	// queue is a specialized binary min-heap ordered by (at, seq). It is
	// inlined here rather than built on container/heap: Schedule/Step are
	// the inner loop of every simulation (millions of packet and timer
	// events per run), and the interface-based heap costs an allocation
	// plus two indirect calls per operation.
	queue []*Event
	// free holds expired Event structs for reuse, so steady-state
	// Schedule/Step cycles allocate nothing.
	free    []*Event
	seq     uint64
	rng     *rand.Rand
	running bool
	stopped bool

	// lanes are the fixed-delay FIFOs that bypass the heap (see Lane);
	// laneMin is the lane whose head is the earliest lane event, nil when
	// every lane is empty, and lanePending counts the items in all of them.
	lanes       []*Lane
	laneMin     *Lane
	lanePending int

	// reg is the engine's metrics registry; every layer built on this
	// engine registers its instruments here. The engine's own counters are
	// pre-bound below so the Schedule/Step hot path stays allocation-free.
	reg            *stats.Registry
	statsScheduled *stats.Counter
	statsFired     *stats.Counter
	statsCancelled *stats.Counter
	statsFreeHits  *stats.Counter
	statsHeapDepth *stats.Gauge

	// components holds every model component built on this engine, in
	// construction order. Construction order is deterministic for a given
	// world builder, so walks over this slice (invariant sweeps, state
	// digests) are reproducible without sorting.
	components []any
	// compBuf backs components for small worlds so registration costs no
	// heap allocation; engines hosting more than its length spill into a
	// grown slice the usual way.
	compBuf    [24]any
	onRegister func(c any)
	// afterStep, when non-nil, runs after every fired event. It is the only
	// hook the hot path pays for — a single nil check per Step — and is how
	// the runtime invariant checker (internal/check) observes the run.
	afterStep func()
}

// Option configures an Engine.
type Option func(*Engine)

// WithSeed sets the seed of the engine's deterministic random source.
// Engines created with the same seed and fed the same event sequence
// produce identical runs.
func WithSeed(seed int64) Option {
	return func(e *Engine) { e.rng = rand.New(rand.NewSource(seed)) }
}

// NewEngine returns an engine with the clock at zero.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		rng: rand.New(rand.NewSource(1)),
		reg: stats.NewRegistry(),
	}
	e.statsScheduled = e.reg.Counter("sim.events_scheduled")
	e.statsFired = e.reg.Counter("sim.events_fired")
	e.statsCancelled = e.reg.Counter("sim.events_cancelled")
	e.statsFreeHits = e.reg.Counter("sim.freelist_hits")
	e.statsHeapDepth = e.reg.Gauge("sim.heap_max_depth")
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Stats returns the engine's metrics registry. Components built on the
// engine register their instruments here at construction time.
func (e *Engine) Stats() *stats.Registry { return e.reg }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source. Model code must
// draw all randomness from this source to preserve reproducibility.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Register records a component built on this engine. Components register
// themselves at construction (NewNetwork, NewAccessLink, NewStack, ...), so
// the slice reflects deterministic construction order. Cross-cutting tools
// walk it looking for optional capabilities — the invariant checker for
// CheckState/DigestInto hooks, for example — without the engine knowing
// their types.
func (e *Engine) Register(c any) {
	if c == nil {
		return
	}
	if e.components == nil {
		e.components = e.compBuf[:0]
	}
	e.components = append(e.components, c)
	if e.onRegister != nil {
		e.onRegister(c)
	}
}

// Components returns the registered components in registration order. The
// returned slice is the engine's own; callers must not mutate it.
func (e *Engine) Components() []any { return e.components }

// OnRegister installs a hook invoked for every component registered after
// this call (components already present are not replayed; callers wanting
// them walk Components themselves). A nil fn clears the hook. At most one
// hook is active at a time.
func (e *Engine) OnRegister(fn func(c any)) { e.onRegister = fn }

// SetAfterStep installs a hook that runs after every fired event, with the
// clock already advanced and the event callback returned. A nil fn clears
// it. The hook must not schedule events or draw randomness if the run's
// determinism relative to hook-free runs matters (the invariant checker
// obeys this).
func (e *Engine) SetAfterStep(fn func()) { e.afterStep = fn }

// Seq returns the number of events ever scheduled — the next event's
// sequence stamp. Together with Now and Pending it summarizes engine
// progress for state digests.
func (e *Engine) Seq() uint64 { return e.seq }

// Event is a scheduled callback. It can be cancelled before it fires.
//
// An Event handle is live from Schedule until the event fires or is
// cancelled. After that the engine recycles the struct for a later
// Schedule call, so a retained handle may suddenly describe an unrelated
// pending event. Holders that outlive their event must drop the handle
// when it fires (fire does that for a Timer, before calling its owner)
// and must not Cancel or inspect it afterwards.
//
// A pending event names exactly one of a callback (Schedule) and a timer
// (Timer.Reset); fire dispatches on which, and release clears both.
type Event struct {
	at      time.Duration
	seq     uint64
	fn      func()
	timer   *Timer
	index   int // position in the heap, -1 once removed
	expired bool
}

// Cancelled reports whether the event was cancelled or has already fired.
func (ev *Event) Cancelled() bool { return ev == nil || ev.expired }

// At returns the virtual time the event is scheduled to fire.
func (ev *Event) At() time.Duration { return ev.at }

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero. Events scheduled for the same instant fire in scheduling order.
// The returned handle is valid until the event fires or is cancelled; see
// the Event lifetime rules.
func (e *Engine) Schedule(delay time.Duration, fn func()) *Event {
	if fn == nil {
		panic("sim: Schedule called with nil function")
	}
	return e.schedule(delay, fn, nil)
}

// schedule queues an event that fires fn, or timer when fn is nil.
func (e *Engine) schedule(delay time.Duration, fn func(), timer *Timer) *Event {
	delay = max(delay, 0)
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.expired = false
		e.statsFreeHits.Inc()
	} else {
		ev = &Event{}
	}
	ev.at = e.now + delay
	ev.seq = e.seq
	ev.fn = fn
	ev.timer = timer
	e.seq++
	e.push(ev)
	e.statsScheduled.Inc()
	e.statsHeapDepth.SetMax(int64(len(e.queue) + e.lanePending))
	return ev
}

// ScheduleAt runs fn at absolute virtual time t. If t is in the past the
// event fires at the current time.
func (e *Engine) ScheduleAt(t time.Duration, fn func()) *Event {
	return e.Schedule(t-e.now, fn)
}

// Cancel removes a pending event and recycles it. Cancelling a nil, fired,
// or already cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.expired || ev.index < 0 {
		return
	}
	e.remove(ev.index)
	ev.expired = true
	e.statsCancelled.Inc()
	e.release(ev)
}

// Step fires the next pending event and advances the clock to it.
// It reports whether an event was fired.
func (e *Engine) Step() bool {
	_, lane, ok := e.next()
	if !ok {
		return false
	}
	e.fire(lane)
	if e.afterStep != nil {
		e.afterStep()
	}
	return true
}

// next finds the earliest pending event under the (at, seq) order: the heap
// top or the head of the earliest lane. lane is nil when it is the heap top.
func (e *Engine) next() (at time.Duration, lane *Lane, ok bool) {
	lane = e.laneMin
	if len(e.queue) == 0 {
		if lane == nil {
			return 0, nil, false
		}
		return lane.headAt, lane, true
	}
	top := e.queue[0]
	if lane != nil && before(lane.headAt, lane.headSeq, top.at, top.seq) {
		return lane.headAt, lane, true
	}
	return top.at, nil, true
}

// fire runs the event next found: the head of lane, or the heap top when
// lane is nil.
func (e *Engine) fire(lane *Lane) {
	e.statsFired.Inc()
	if lane != nil {
		at, fn := lane.pop()
		e.now = at
		fn()
		return
	}
	ev := e.pop()
	ev.expired = true
	e.now = ev.at
	if t := ev.timer; t != nil {
		// The timer forgets the handle before its owner runs, so the owner
		// may Reset it.
		t.ev = nil
		t.owner.OnTimer(t)
	} else {
		ev.fn()
	}
	e.release(ev)
}

// Run fires events until the queue is empty or Stop is called.
func (e *Engine) Run() { e.run(math.MaxInt64) }

// RunUntil fires events with timestamps at or before deadline, then sets the
// clock to deadline. Events scheduled after deadline remain queued.
func (e *Engine) RunUntil(deadline time.Duration) {
	e.run(deadline)
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

// RunBefore fires events with timestamps strictly before deadline, then sets
// the clock to deadline. It is the half-open window primitive the sharded
// barrier runs on: an event injected at exactly the next window boundary
// belongs to the next window, so two shards agreeing on a boundary never
// disagree about which side of it an event fired on.
func (e *Engine) RunBefore(deadline time.Duration) {
	if deadline > math.MinInt64 {
		e.run(deadline - 1) // the clock counts whole nanoseconds
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

// RunFor advances the simulation by d of virtual time.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now + d) }

// PeekNext returns the timestamp of the earliest pending event. ok is false
// when the queue is empty.
func (e *Engine) PeekNext() (at time.Duration, ok bool) {
	at, _, ok = e.next()
	return at, ok
}

// run fires events with timestamps at or before last until none is left or
// Stop is called.
func (e *Engine) run(last time.Duration) {
	if e.running {
		panic("sim: Run called re-entrantly from inside an event")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()
	for !e.stopped {
		at, lane, ok := e.next()
		if !ok || at > last {
			break
		}
		e.fire(lane)
		if e.afterStep != nil {
			e.afterStep()
		}
	}
}

// Stop halts the current Run/RunUntil after the in-flight event returns.
// Pending events stay queued, so the run can be resumed.
func (e *Engine) Stop() { e.stopped = true }

// Pending returns the number of queued events, on the heap and in lanes.
func (e *Engine) Pending() int { return len(e.queue) + e.lanePending }

// String describes the engine state, for debugging.
func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{now: %v, pending: %d}", e.now, e.Pending())
}

// CheckInvariants verifies the scheduler's internal invariants — heap
// ordering, index coherence, lane ordering, and that no pending event predates
// the clock — reporting each failure as report(invariant, detail). The engine
// validates itself so the invariant checker (internal/check) needs no access
// to the unexported heap; sim has no dependency on that package.
func (e *Engine) CheckInvariants(report func(invariant, detail string)) {
	for i, ev := range e.queue {
		if ev.index != i {
			report("sim.heap_index", fmt.Sprintf("queue[%d].index = %d", i, ev.index))
		}
		if ev.expired {
			report("sim.heap_expired", fmt.Sprintf("queue[%d] (at=%v seq=%d) already expired", i, ev.at, ev.seq))
		}
		if ev.at < e.now {
			report("sim.event_in_past", fmt.Sprintf("queue[%d] at=%v behind clock %v", i, ev.at, e.now))
		}
		if (ev.fn == nil) == (ev.timer == nil) {
			report("sim.event_target", fmt.Sprintf("queue[%d] (at=%v seq=%d) must name a callback or a timer, not both or neither", i, ev.at, ev.seq))
		} else if ev.timer != nil && ev.timer.ev != ev {
			report("sim.event_target", fmt.Sprintf("queue[%d] (at=%v seq=%d) fires a timer that no longer holds it", i, ev.at, ev.seq))
		}
		if i > 0 {
			if parent := e.queue[(i-1)/2]; eventLess(ev, parent) {
				report("sim.heap_order", fmt.Sprintf("queue[%d] (at=%v seq=%d) sorts before its parent (at=%v seq=%d)",
					i, ev.at, ev.seq, parent.at, parent.seq))
			}
		}
	}
	e.checkLanes(report)
}

// release clears an expired event and parks it for reuse. The free list is
// bounded by the peak number of simultaneously pending events.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	ev.timer = nil
	ev.index = -1
	e.free = append(e.free, ev)
}

// before is the firing order of all pending events, heap and lanes alike:
// earliest deadline first, ties broken by scheduling order.
func before(at1 time.Duration, seq1 uint64, at2 time.Duration, seq2 uint64) bool {
	if at1 != at2 {
		return at1 < at2
	}
	return seq1 < seq2
}

// eventLess orders the heap by (at, seq).
func eventLess(a, b *Event) bool { return before(a.at, a.seq, b.at, b.seq) }

func (e *Engine) push(ev *Event) {
	e.queue = append(e.queue, ev)
	e.siftUp(len(e.queue) - 1)
}

func (e *Engine) pop() *Event {
	q := e.queue
	n := len(q)
	ev := q[0]
	last := q[n-1]
	q[n-1] = nil
	e.queue = q[:n-1]
	if n > 1 {
		q[0] = last
		last.index = 0
		e.siftDown(0)
	}
	ev.index = -1
	return ev
}

// remove deletes the element at heap position i.
func (e *Engine) remove(i int) {
	q := e.queue
	n := len(q)
	last := q[n-1]
	q[n-1] = nil
	e.queue = q[:n-1]
	if i == n-1 {
		return
	}
	q[i] = last
	last.index = i
	e.siftDown(i)
	if last.index == i {
		e.siftUp(i)
	}
}

func (e *Engine) siftUp(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := q[parent]
		if !eventLess(ev, p) {
			break
		}
		q[i] = p
		p.index = i
		i = parent
	}
	q[i] = ev
	ev.index = i
}

func (e *Engine) siftDown(i int) {
	q := e.queue
	n := len(q)
	ev := q[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && eventLess(q[r], q[child]) {
			child = r
		}
		if !eventLess(q[child], ev) {
			break
		}
		q[i] = q[child]
		q[i].index = i
		i = child
	}
	q[i] = ev
	ev.index = i
}
