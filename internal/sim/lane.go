package sim

import (
	"fmt"
	"time"
)

// maxLanes caps the ring-backed lanes of one engine. Picking the next event
// scans every lane head when the earliest one fires, so the count must stay
// small; a world has a handful of fixed latencies (access-link delay, WLAN
// delay, core delay). Delays past the cap get a Lane that schedules on the
// heap, which costs what Schedule always did.
const maxLanes = 8

// laneInitCap is a lane ring's first capacity; a full ring doubles. The
// capacity stays a power of two because the ring indexes by mask.
const laneInitCap = 16

// Lane is a FIFO of events that all fire exactly one fixed delay after they
// are scheduled. The clock never goes back, so appending keeps the lane sorted
// by (at, seq) and its earliest event is always its head: a lane event costs
// a ring append and a ring pop where a heap event costs two sifts.
//
// A lane event takes its sequence stamp from the engine's counter at the
// moment it is scheduled, exactly as Schedule would, and the run loop fires
// whichever of the heap top and the earliest lane head sorts first by
// (at, seq). Moving a call site from Schedule(d, fn) to Lane(d).Schedule(fn)
// therefore changes neither the instant nor the order in which anything
// fires.
//
// Lane events have no handle and cannot be cancelled. Use a lane only for a
// delay that is the same on every call and an event that always fires;
// anything variable or cancellable belongs on Schedule.
type Lane struct {
	e     *Engine
	delay time.Duration
	// buf is a power-of-two ring holding n items from head. It is nil for a
	// lane past maxLanes, which forwards to Engine.Schedule.
	buf  []laneItem
	head int
	n    int
	// headAt and headSeq copy buf[head]'s stamp while n > 0, so picking the
	// next event and rescanning the lanes read the Lane struct alone.
	headAt  time.Duration
	headSeq uint64
}

// laneItem is a lane's pending event: the fields of Event that a
// non-cancellable event needs, stored by value so lanes borrow nothing from
// the Event free-list.
type laneItem struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// Lane returns the engine's lane for delay, creating it on first use. Every
// caller asking for the same delay shares one lane. A negative delay is
// treated as zero.
func (e *Engine) Lane(delay time.Duration) *Lane {
	delay = max(delay, 0)
	for _, l := range e.lanes {
		if l.delay == delay {
			return l
		}
	}
	l := &Lane{e: e, delay: delay}
	if len(e.lanes) < maxLanes {
		l.buf = make([]laneItem, laneInitCap)
		e.lanes = append(e.lanes, l)
	}
	return l
}

// Schedule runs fn after the lane's delay of virtual time, in the same
// (at, seq) position Engine.Schedule(delay, fn) would give it.
func (l *Lane) Schedule(fn func()) {
	e := l.e
	if l.buf == nil {
		e.Schedule(l.delay, fn)
		return
	}
	if fn == nil {
		panic("sim: Lane.Schedule called with nil function")
	}
	if l.n == len(l.buf) {
		l.grow()
	}
	it := l.at(l.n)
	it.at = e.now + l.delay
	it.seq = e.seq
	it.fn = fn
	e.seq++
	l.n++
	e.lanePending++
	if l.n == 1 {
		// Only an item that became its lane's head can be the new earliest;
		// it carries the highest seq so far, so it wins on time alone.
		l.headAt, l.headSeq = it.at, it.seq
		if e.laneMin == nil || it.at < e.laneMin.headAt {
			e.laneMin = l
		}
	}
	e.statsScheduled.Inc()
	e.statsHeapDepth.SetMax(int64(len(e.queue) + e.lanePending))
}

// grow doubles the ring, unwrapping it to start at index zero.
func (l *Lane) grow() {
	buf := make([]laneItem, 2*len(l.buf))
	k := copy(buf, l.buf[l.head:])
	copy(buf[k:], l.buf[:l.head])
	l.buf = buf
	l.head = 0
}

// at returns the i-th pending item, counting from the head.
func (l *Lane) at(i int) *laneItem { return &l.buf[(l.head+i)&(len(l.buf)-1)] }

// pop removes and returns the head of l, which must be e.laneMin, and finds
// the new earliest lane head. It finishes before the callback runs, so the
// callback may schedule on any lane, this one included.
func (l *Lane) pop() (at time.Duration, fn func()) {
	e := l.e
	it := &l.buf[l.head]
	at, fn = it.at, it.fn
	it.fn = nil
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	if l.n > 0 {
		it = &l.buf[l.head]
		l.headAt, l.headSeq = it.at, it.seq
	}
	e.lanePending--
	e.laneMin = e.earliestLane()
	return at, fn
}

// earliestLane scans the lane heads for the one that sorts first by
// (at, seq); nil when every lane is empty.
func (e *Engine) earliestLane() *Lane {
	var min *Lane
	for _, l := range e.lanes {
		if l.n > 0 && (min == nil || before(l.headAt, l.headSeq, min.headAt, min.headSeq)) {
			min = l
		}
	}
	return min
}

// checkLanes is the lane half of CheckInvariants: every lane sorted by
// (at, seq), nothing behind the clock, each cached head stamp and the pending
// count matching the rings, and the cached earliest lane really the earliest.
func (e *Engine) checkLanes(report func(invariant, detail string)) {
	pending := 0
	for li, l := range e.lanes {
		pending += l.n
		if l.n > 0 {
			if it := l.at(0); l.headAt != it.at || l.headSeq != it.seq {
				report("sim.lane_head", fmt.Sprintf("lane[%d] (delay %v) caches head (at=%v seq=%d), ring head is (at=%v seq=%d)",
					li, l.delay, l.headAt, l.headSeq, it.at, it.seq))
			}
		}
		for i := 0; i < l.n; i++ {
			it := l.at(i)
			if it.at < e.now {
				report("sim.lane_in_past", fmt.Sprintf("lane[%d] (delay %v) item %d at=%v behind clock %v", li, l.delay, i, it.at, e.now))
			}
			if i > 0 {
				if prev := l.at(i - 1); !before(prev.at, prev.seq, it.at, it.seq) {
					report("sim.lane_order", fmt.Sprintf("lane[%d] (delay %v) item %d (at=%v seq=%d) does not sort after item %d (at=%v seq=%d)",
						li, l.delay, i, it.at, it.seq, i-1, prev.at, prev.seq))
				}
			}
		}
	}
	if pending != e.lanePending {
		report("sim.lane_pending", fmt.Sprintf("lanes hold %d items, engine counts %d", pending, e.lanePending))
	}
	if want := e.earliestLane(); want != e.laneMin {
		report("sim.lane_min", fmt.Sprintf("cached earliest lane %s, scan finds %s", laneName(e.laneMin), laneName(want)))
	}
}

func laneName(l *Lane) string {
	if l == nil {
		return "none"
	}
	return fmt.Sprintf("delay %v", l.delay)
}
