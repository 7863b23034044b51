package sim

import (
	"strings"
	"testing"
	"time"
)

// These tests pin the Event free-list contract: a handle is live until its
// event fires or is cancelled; after that the engine may hand the same
// struct back from a later Schedule, at which point the stale handle
// describes the new incarnation.

func TestEventRecycledAfterFire(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(time.Second, func() {})
	e.Run()
	if !a.Cancelled() {
		t.Fatal("fired event must report Cancelled() = true")
	}
	b := e.Schedule(2*time.Second, func() {})
	if a != b {
		t.Fatal("Schedule after a fire should reuse the expired Event struct")
	}
	// The recycled handle now describes the NEW event: live, rescheduled.
	if a.Cancelled() {
		t.Error("recycled handle reports Cancelled() for the new incarnation")
	}
	if a.At() != 3*time.Second {
		t.Errorf("recycled handle At() = %v, want 3s (new incarnation)", a.At())
	}
	e.Run()
	if !b.Cancelled() {
		t.Error("second incarnation should be expired after firing")
	}
}

func TestEventRecycledAfterCancel(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(time.Second, func() { t.Error("cancelled event fired") })
	e.Cancel(a)
	if !a.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
	fired := false
	b := e.Schedule(time.Second, func() { fired = true })
	if a != b {
		t.Fatal("Schedule after a cancel should reuse the Event struct")
	}
	e.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

// TestFreeListKeepsOrderingUnderChurn hammers mixed schedule/cancel/fire
// churn and verifies the specialized heap still fires strictly in (time,
// scheduling-order) sequence with recycled structs in play.
func TestFreeListKeepsOrderingUnderChurn(t *testing.T) {
	e := NewEngine(WithSeed(99))
	var fired []time.Duration
	live := make([]*Event, 0, 64)
	for round := 0; round < 50; round++ {
		for i := 0; i < 20; i++ {
			d := time.Duration(1+e.Rand().Intn(1000)) * time.Millisecond
			live = append(live, e.Schedule(d, func() { fired = append(fired, e.Now()) }))
		}
		// Cancel a third of what we scheduled this round.
		for i := 0; i < 6; i++ {
			e.Cancel(live[len(live)-1-i*3])
		}
		e.RunFor(500 * time.Millisecond)
		live = live[:0] // handles are dead after the run; drop them
	}
	e.Run()
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("fire times went backwards at %d: %v then %v", i, fired[i-1], fired[i])
		}
	}
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d after drain", e.Pending())
	}
}

// requireFreeListForgets: a parked Event names no callback and no timer, so
// the free-list keeps no closure and no timer's owner (a closed tcp.Conn,
// say) reachable.
func requireFreeListForgets(t *testing.T, e *Engine) {
	t.Helper()
	for i, ev := range e.free {
		if ev.fn != nil || ev.timer != nil {
			t.Fatalf("free[%d] still names its target: fn set=%v, timer set=%v", i, ev.fn != nil, ev.timer != nil)
		}
	}
}

type countingOwner struct{ fired int }

func (o *countingOwner) OnTimer(*Timer) { o.fired++ }

// TestRecycledEventForgetsTimer: an Event names a callback or a timer, and
// the free-list must not let one incarnation's target leak into the next. A
// timer's Event, cancelled or fired and then handed out by Schedule, runs the
// new callback and never the old owner; CheckInvariants reports a pending
// event that names both, neither, or a timer that does not hold it.
func TestRecycledEventForgetsTimer(t *testing.T) {
	e := NewEngine()
	var owner countingOwner
	var tm Timer
	tm.Bind(e, &owner)

	tm.Reset(time.Second)
	old := tm.ev
	tm.Stop()
	requireFreeListForgets(t, e)
	ran := 0
	if ev := e.Schedule(time.Second, func() { ran++ }); ev != old {
		t.Fatal("Schedule after Timer.Stop should reuse the timer's Event")
	}
	e.CheckInvariants(func(inv, detail string) { t.Errorf("recycled after Stop: %s: %s", inv, detail) })
	e.Run()
	if ran != 1 || owner.fired != 0 {
		t.Fatalf("recycled after Stop: callback ran %d times, stopped timer's owner %d; want 1 and 0", ran, owner.fired)
	}

	tm.Reset(time.Second)
	old = tm.ev
	e.Run()
	if owner.fired != 1 || tm.Armed() {
		t.Fatalf("timer fired its owner %d times, armed=%v; want 1 and unarmed", owner.fired, tm.Armed())
	}
	requireFreeListForgets(t, e)
	if ev := e.Schedule(time.Second, func() { ran++ }); ev != old {
		t.Fatal("Schedule after a timer fired should reuse its Event")
	}
	e.Run()
	if ran != 2 || owner.fired != 1 {
		t.Fatalf("recycled after fire: callback ran %d times, owner %d; want 2 and 1", ran, owner.fired)
	}

	// The other direction: a callback's Event reused by a timer.
	e.Cancel(e.Schedule(time.Second, func() { t.Error("cancelled callback ran") }))
	tm.Reset(time.Second)
	e.CheckInvariants(func(inv, detail string) { t.Errorf("timer on a recycled Event: %s: %s", inv, detail) })
	e.Run()
	if owner.fired != 2 {
		t.Fatalf("timer on a recycled Event fired its owner %d times, want 2", owner.fired)
	}

	for name, corrupt := range map[string]func(ev *Event, tm *Timer){
		"both":     func(ev *Event, tm *Timer) { ev.fn = func() {} },
		"neither":  func(ev *Event, tm *Timer) { ev.timer = nil },
		"disowned": func(ev *Event, tm *Timer) { tm.ev = nil },
	} {
		e := NewEngine()
		var tm Timer
		tm.Bind(e, &owner)
		tm.Reset(time.Second)
		if got := laneReports(e); len(got) != 0 {
			t.Fatalf("%s: consistent engine reports %v", name, got)
		}
		corrupt(tm.ev, &tm)
		if got := laneReports(e); !strings.Contains(strings.Join(got, " "), "sim.event_target") {
			t.Errorf("%s: reports %v, want sim.event_target", name, got)
		}
	}
}
