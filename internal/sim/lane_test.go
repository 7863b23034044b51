package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// laneProg interprets one random program against one engine. Two of them,
// built from the same seed, draw the same random choices as long as their
// engines fire the same events in the same order — so any divergence between
// an engine with lanes and the all-heap reference shows up in the logs.
type laneProg struct {
	e      *Engine
	rng    *rand.Rand
	delays []time.Duration
	lanes  []*Lane // nil on the reference side: lane calls become Schedule
	log    []string
	nextID int
	live   []liveEvent // cancellable events still pending, in schedule order
	timers []*Timer
	owned  [4]progTimer // embedded Timers, or their Schedule twins on the reference side
	budget int          // events callbacks may still spawn
	steps  int          // afterStep invocations
	fired  int
}

type liveEvent struct {
	id int
	ev *Event
}

// progTimer is a timer the program owns by value. With lanes it is an embedded
// Timer bound in place, fired by the engine through OnTimer; on the reference
// side it is what a Timer was before the engine knew of timers: a Schedule of a
// closure that drops the handle, cancelled and scheduled afresh on every reset.
type progTimer struct {
	Timer
	p   *laneProg
	id  int
	ref *Event
}

func (pt *progTimer) OnTimer(*Timer) { pt.p.onFire(pt.id) }

func (pt *progTimer) reset(d time.Duration) {
	if pt.p.lanes != nil {
		pt.Reset(d)
		return
	}
	pt.stop()
	pt.ref = pt.p.e.Schedule(d, func() {
		pt.ref = nil
		pt.p.onFire(pt.id)
	})
}

func (pt *progTimer) stop() {
	if pt.p.lanes != nil {
		pt.Stop()
		return
	}
	pt.p.e.Cancel(pt.ref)
	pt.ref = nil
}

func (pt *progTimer) when() (time.Duration, bool) {
	if pt.p.lanes != nil {
		return pt.When()
	}
	if pt.ref == nil {
		return 0, false
	}
	return pt.ref.At(), true
}

func newLaneProg(seed int64, delays []time.Duration, useLanes bool) *laneProg {
	p := &laneProg{
		e:      NewEngine(WithSeed(seed)),
		rng:    rand.New(rand.NewSource(seed)),
		delays: delays,
		budget: 4000,
	}
	if useLanes {
		for _, d := range delays {
			p.lanes = append(p.lanes, p.e.Lane(d))
		}
	}
	for i := 0; i < 3; i++ {
		id := -(i + 1)
		p.timers = append(p.timers, NewTimer(p.e, func() { p.onFire(id) }))
	}
	for i := range p.owned {
		pt := &p.owned[i]
		pt.p, pt.id = p, -(len(p.timers) + i + 1)
		if useLanes {
			pt.Bind(p.e, pt)
		}
	}
	p.e.SetAfterStep(func() { p.steps++ })
	return p
}

func (p *laneProg) onFire(id int) {
	p.fired++
	p.log = append(p.log, fmt.Sprintf("fire %d @%d", id, p.e.Now()))
	for i := range p.live {
		if p.live[i].id == id {
			p.live = append(p.live[:i], p.live[i+1:]...)
			break
		}
	}
	for n := p.rng.Intn(3); n > 0 && p.budget > 0; n-- {
		p.budget--
		p.op()
	}
	if p.rng.Intn(40) == 0 {
		p.e.Stop()
	}
}

// op performs one random scheduling operation at the current instant.
func (p *laneProg) op() {
	switch k := p.rng.Intn(12); {
	case k >= 10:
		p.timerStorm()
	case k < 5:
		p.laneEvent(p.rng.Intn(len(p.delays)))
	case k < 8: // a heap event, half the time at a lane's delay to force ties
		d := time.Duration(p.rng.Intn(50)) * time.Microsecond
		if p.rng.Intn(2) == 0 {
			d = p.delays[p.rng.Intn(len(p.delays))]
		}
		id := p.nextID
		p.nextID++
		ev := p.e.Schedule(d, func() { p.onFire(id) })
		p.live = append(p.live, liveEvent{id, ev})
	case k < 9:
		if len(p.live) > 0 {
			i := p.rng.Intn(len(p.live))
			p.e.Cancel(p.live[i].ev)
			p.log = append(p.log, fmt.Sprintf("cancel %d", p.live[i].id))
			p.live = append(p.live[:i], p.live[i+1:]...)
		}
	default:
		p.timers[p.rng.Intn(len(p.timers))].Reset(p.delays[p.rng.Intn(len(p.delays))])
	}
}

// timerStorm re-arms and stops one owned timer several times at one instant,
// as tcp does with its RTO timer on every ACK of a burst: each Reset must take
// a fresh seq and hand the old Event back, and only the last arming may fire.
func (p *laneProg) timerStorm() {
	pt := &p.owned[p.rng.Intn(len(p.owned))]
	for n := 1 + p.rng.Intn(5); n > 0; n-- {
		if p.rng.Intn(4) == 0 {
			pt.stop()
		} else {
			pt.reset(p.delays[p.rng.Intn(len(p.delays))])
		}
	}
	at, armed := pt.when()
	p.log = append(p.log, fmt.Sprintf("storm %d: armed=%v at=%d seq=%d", pt.id, armed, at, p.e.Seq()))
}

// burst schedules n events back to back on one lane, growing its ring.
func (p *laneProg) burst(n int) {
	i := p.rng.Intn(len(p.delays))
	for ; n > 0; n-- {
		p.laneEvent(i)
	}
}

// laneEvent schedules one event on lane i, or its plain-Schedule twin on the
// reference side.
func (p *laneProg) laneEvent(i int) {
	id := p.nextID
	p.nextID++
	fn := func() { p.onFire(id) }
	if p.lanes != nil {
		p.lanes[i].Schedule(fn)
	} else {
		p.e.Schedule(p.delays[i], fn)
	}
}

func (p *laneProg) snapshot(what string) {
	at, ok := p.e.PeekNext()
	p.log = append(p.log, fmt.Sprintf("%s: now=%d seq=%d pending=%d next=%d/%v",
		what, p.e.Now(), p.e.Seq(), p.e.Pending(), at, ok))
}

// run drives the program: rounds of top-level operations, each followed by
// one randomly chosen way of advancing the engine.
func (p *laneProg) run(t *testing.T, rounds int) {
	for r := 0; r < rounds; r++ {
		for n := p.rng.Intn(6); n > 0; n-- {
			p.op()
		}
		if p.rng.Intn(12) == 0 {
			p.burst(20 + p.rng.Intn(60))
		}
		span := time.Duration(p.rng.Intn(300)) * time.Microsecond
		switch p.rng.Intn(5) {
		case 0:
			for n := 1 + p.rng.Intn(4); n > 0; n-- {
				ok := p.e.Step()
				p.snapshot(fmt.Sprintf("step=%v", ok))
			}
		case 1:
			p.e.RunUntil(p.e.Now() + span)
			p.snapshot("until")
		case 2:
			p.e.RunBefore(p.e.Now() + span)
			p.snapshot("before")
		case 3:
			// Land the half-open bound exactly on a pending event.
			if at, ok := p.e.PeekNext(); ok {
				p.e.RunBefore(at)
				p.snapshot("before-next")
				p.e.RunUntil(at)
				p.snapshot("until-next")
			}
		default:
			p.e.RunFor(span / 4)
			p.snapshot("for")
		}
		p.e.CheckInvariants(func(inv, detail string) {
			t.Fatalf("round %d: invariant %s: %s", r, inv, detail)
		})
		requireFreeListForgets(t, p.e)
	}
	p.e.Run()
	for p.e.Pending() > 0 { // a callback stopped the drain; resume it
		p.e.Run()
	}
	p.snapshot("drained")
}

// TestLaneDifferential runs random programs on an engine with lanes and
// embedded Timers and on one where every lane call and every timer arming is
// a plain Schedule of a closure: the firing sequence and the Now/Seq/Pending/
// PeekNext readings after every step must be identical.
func TestLaneDifferential(t *testing.T) {
	pool := []time.Duration{
		0, 20 * time.Microsecond, time.Microsecond, 50 * time.Microsecond, 7 * time.Microsecond,
		100 * time.Microsecond, 3 * time.Microsecond, 20*time.Microsecond + 1, 13 * time.Microsecond,
		250 * time.Microsecond, 2 * time.Microsecond, 31 * time.Microsecond,
	}
	var grew, wrapped, overflowed bool
	storms := 0
	for seed := int64(1); seed <= 36; seed++ {
		delays := pool[:1+int(seed-1)%len(pool)]
		a := newLaneProg(seed, delays, true)
		b := newLaneProg(seed, delays, false)
		a.run(t, 150)
		b.run(t, 150)
		if len(a.log) != len(b.log) {
			t.Errorf("seed %d: %d log lines with lanes, %d on the reference", seed, len(a.log), len(b.log))
		}
		for i := 0; i < len(a.log) && i < len(b.log); i++ {
			if a.log[i] != b.log[i] {
				t.Fatalf("seed %d: diverged at line %d:\n  lanes:     %s\n  reference: %s", seed, i, a.log[i], b.log[i])
			}
		}
		if a.steps != a.fired || b.steps != b.fired {
			t.Errorf("seed %d: afterStep ran %d/%d times for %d/%d fired events", seed, a.steps, b.steps, a.fired, b.fired)
		}
		if a.fired < 500 {
			t.Errorf("seed %d: only %d events fired; the program is too short to mean anything", seed, a.fired)
		}
		for _, l := range a.lanes {
			if l.buf == nil {
				overflowed = true
				continue
			}
			grew = grew || len(l.buf) > laneInitCap
			wrapped = wrapped || l.head > 0
		}
		for _, line := range a.log {
			if strings.HasPrefix(line, "storm") {
				storms++
			}
		}
		if want := min(len(delays), maxLanes); len(a.e.lanes) != want {
			t.Errorf("seed %d: %d ring lanes for %d delays, want %d", seed, len(a.e.lanes), len(delays), want)
		}
	}
	if !grew || !wrapped || !overflowed {
		t.Errorf("coverage: ring grew=%v, head moved=%v, lane past the cap=%v; want all three", grew, wrapped, overflowed)
	}
	if storms < 1000 {
		t.Errorf("coverage: %d timer storms in 36 programs, want 1000+", storms)
	}
}

func TestLaneSharedPerDelay(t *testing.T) {
	e := NewEngine()
	a, b := e.Lane(time.Millisecond), e.Lane(time.Millisecond)
	if a != b {
		t.Error("two Lane calls with one delay returned different lanes")
	}
	if e.Lane(-time.Second) != e.Lane(0) {
		t.Error("a negative delay is not the zero-delay lane")
	}
	if e.Lane(2*time.Millisecond) == a {
		t.Error("different delays share a lane")
	}
}

// TestLaneWrapKeepsOrder cycles a lane through its ring many times at a
// standing depth that straddles the wrap point.
func TestLaneWrapKeepsOrder(t *testing.T) {
	e := NewEngine()
	l := e.Lane(time.Millisecond)
	var got []int
	next := 0
	add := func() {
		id := next
		next++
		l.Schedule(func() { got = append(got, id) })
	}
	for i := 0; i < laneInitCap-3; i++ {
		add()
	}
	for i := 0; i < 10*laneInitCap; i++ {
		add()
		e.Step()
	}
	e.Run()
	if len(l.buf) != laneInitCap {
		t.Errorf("ring grew to %d at a standing depth below %d", len(l.buf), laneInitCap)
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("fired %v..., want schedule order", got[:i+1])
		}
	}
	if len(got) != next {
		t.Errorf("fired %d of %d", len(got), next)
	}
}

func TestLaneAfterStepOncePerEvent(t *testing.T) {
	e := NewEngine()
	l := e.Lane(time.Millisecond)
	steps := 0
	e.SetAfterStep(func() { steps++ })
	for i := 0; i < 5; i++ {
		l.Schedule(func() {})
	}
	e.Schedule(time.Millisecond, func() {})
	if !e.Step() {
		t.Fatal("Step found nothing to fire")
	}
	if steps != 1 {
		t.Errorf("afterStep ran %d times after one Step, want 1", steps)
	}
	e.Run()
	if steps != 6 {
		t.Errorf("afterStep ran %d times for 6 events", steps)
	}
}

func TestLaneCountsInEngineStats(t *testing.T) {
	e := NewEngine()
	l := e.Lane(time.Millisecond)
	for i := 0; i < 3; i++ {
		l.Schedule(func() {})
	}
	e.Schedule(time.Second, func() {})
	if e.Pending() != 4 {
		t.Errorf("Pending = %d, want 4", e.Pending())
	}
	if got := e.Stats().Gauge("sim.heap_max_depth").Value(); got != 4 {
		t.Errorf("sim.heap_max_depth = %d, want 4 (heap + lanes)", got)
	}
	if at, ok := e.PeekNext(); !ok || at != time.Millisecond {
		t.Errorf("PeekNext = %v, %v; want the lane head at 1ms", at, ok)
	}
	e.Run()
	if got := e.Stats().Counter("sim.events_scheduled").Value(); got != 4 {
		t.Errorf("sim.events_scheduled = %d, want 4", got)
	}
	if got := e.Stats().Counter("sim.events_fired").Value(); got != 4 {
		t.Errorf("sim.events_fired = %d, want 4", got)
	}
	if got := e.Stats().Counter("sim.freelist_hits").Value(); got != 0 {
		t.Errorf("sim.freelist_hits = %d, want 0: lane events borrow no Event", got)
	}
}

// TestRunBeforeIsHalfOpen: an event at exactly the bound, on the heap or in
// a lane, belongs to the next window; RunUntil at the same bound fires it.
func TestRunBeforeIsHalfOpen(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Lane(time.Millisecond).Schedule(func() { got = append(got, "lane") })
	e.Schedule(time.Millisecond, func() { got = append(got, "heap") })
	e.Schedule(time.Millisecond-1, func() { got = append(got, "early") })
	e.RunBefore(time.Millisecond)
	if len(got) != 1 || got[0] != "early" {
		t.Errorf("RunBefore(1ms) fired %v, want only the event before the bound", got)
	}
	if e.Now() != time.Millisecond || e.Pending() != 2 {
		t.Errorf("after RunBefore: now=%v pending=%d, want 1ms and 2", e.Now(), e.Pending())
	}
	e.RunUntil(time.Millisecond)
	if len(got) != 3 || got[1] != "lane" || got[2] != "heap" {
		t.Errorf("RunUntil(1ms) then gave %v, want early, lane, heap", got)
	}
}

func TestLaneNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Lane.Schedule(nil) did not panic")
		}
	}()
	NewEngine().Lane(time.Millisecond).Schedule(nil)
}

// laneInvariantEngine builds an engine at t=10µs with three lanes holding
// several items each, consistent until a test corrupts it.
func laneInvariantEngine() *Engine {
	e := NewEngine()
	a, b, c := e.Lane(5*time.Microsecond), e.Lane(50*time.Microsecond), e.Lane(20*time.Microsecond)
	for i := 0; i < 4; i++ {
		e.Schedule(time.Duration(i)*3*time.Microsecond, func() {
			a.Schedule(func() {})
			b.Schedule(func() {})
			c.Schedule(func() {})
		})
	}
	e.RunUntil(10 * time.Microsecond)
	return e
}

func laneReports(e *Engine) []string {
	var got []string
	e.CheckInvariants(func(inv, _ string) { got = append(got, inv) })
	return got
}

func TestCheckInvariantsLanes(t *testing.T) {
	if got := laneReports(laneInvariantEngine()); len(got) != 0 {
		t.Fatalf("consistent engine reports %v", got)
	}
	cases := []struct {
		want    string
		corrupt func(e *Engine)
	}{
		{"sim.lane_order", func(e *Engine) {
			l := e.lanes[1]
			*l.at(1), *l.at(2) = *l.at(2), *l.at(1)
		}},
		{"sim.lane_order", func(e *Engine) { // equal time, seq out of order
			l := e.lanes[1]
			l.at(2).at = l.at(1).at
			l.at(2).seq = l.at(1).seq
		}},
		{"sim.lane_in_past", func(e *Engine) { e.lanes[2].at(0).at = e.now - 1 }},
		{"sim.lane_head", func(e *Engine) { e.lanes[1].headSeq++ }},
		{"sim.lane_head", func(e *Engine) { e.lanes[2].headAt-- }},
		{"sim.lane_min", func(e *Engine) { e.laneMin = e.lanes[1] }},
		{"sim.lane_min", func(e *Engine) { e.laneMin = nil }},
		{"sim.lane_pending", func(e *Engine) { e.lanePending++ }},
	}
	for i, tc := range cases {
		e := laneInvariantEngine()
		if e.laneMin == e.lanes[1] || e.lanes[1].n < 3 {
			t.Fatalf("fixture drifted: lanes[1] must hold 3+ items and not be the earliest")
		}
		tc.corrupt(e)
		if got := laneReports(e); !strings.Contains(strings.Join(got, " "), tc.want) {
			t.Errorf("case %d: reports %v, want %s", i, got, tc.want)
		}
	}
}
