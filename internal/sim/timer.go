package sim

import "time"

// TimerOwner is what a firing Timer calls. The engine dispatches a timer's
// event to its owner directly, so arming a timer binds no closure.
type TimerOwner interface {
	OnTimer(t *Timer)
}

// timerFunc adapts a plain func to TimerOwner. A func value is pointer-shaped,
// so storing one in the interface allocates nothing.
type timerFunc func()

func (f timerFunc) OnTimer(*Timer) { f() }

// Timer is a re-armable one-shot timer bound to an engine, analogous to
// time.Timer but in virtual time. The zero value is unarmed and unbound:
// create timers with NewTimer, or embed one by value and Bind it in place.
// A bound Timer must not be copied — its pending Event points back at it.
type Timer struct {
	engine *Engine
	owner  TimerOwner
	ev     *Event
}

// NewTimer returns an unarmed timer that runs fn when it fires.
func NewTimer(engine *Engine, fn func()) *Timer {
	if fn == nil {
		panic("sim: NewTimer called with nil function")
	}
	t := &Timer{}
	t.Bind(engine, timerFunc(fn))
	return t
}

// Bind attaches an embedded, unarmed timer to its engine and to the owner
// its firings call. It is called once, before the first Reset.
func (t *Timer) Bind(engine *Engine, owner TimerOwner) {
	if owner == nil {
		panic("sim: Timer.Bind called with nil owner")
	}
	if t.ev != nil {
		panic("sim: Timer.Bind called on an armed timer")
	}
	t.engine, t.owner = engine, owner
}

// Reset arms the timer to fire after d, replacing any pending firing.
func (t *Timer) Reset(d time.Duration) {
	t.Stop()
	t.ev = t.engine.schedule(d, nil, t)
}

// Stop disarms the timer. Stopping an unarmed timer is a no-op.
func (t *Timer) Stop() {
	if t.ev != nil {
		t.engine.Cancel(t.ev)
		t.ev = nil
	}
}

// Armed reports whether a firing is pending.
func (t *Timer) Armed() bool { return t.ev != nil && !t.ev.Cancelled() }

// When returns the virtual time of the pending firing, or false when the
// timer is unarmed — letting callers skip a Reset that would land the event
// exactly where it already is.
func (t *Timer) When() (time.Duration, bool) {
	if t.ev == nil || t.ev.Cancelled() {
		return 0, false
	}
	return t.ev.At(), true
}

// Ticker repeatedly invokes a callback at a fixed virtual-time interval.
// The zero value is not usable; create tickers with NewTicker.
type Ticker struct {
	timer    Timer // owned by the ticker itself: each firing re-arms it
	interval time.Duration
	fn       func()
	stopped  bool
}

// NewTicker returns a started ticker that calls fn every interval, with the
// first call one interval from now.
func NewTicker(engine *Engine, interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: NewTicker interval must be positive")
	}
	if fn == nil {
		panic("sim: NewTicker called with nil function")
	}
	t := &Ticker{interval: interval, fn: fn}
	t.timer.Bind(engine, (*tickerOwner)(t))
	t.timer.Reset(interval)
	return t
}

// tickerOwner is a Ticker seen as the owner of its timer, so that Ticker
// itself exports no OnTimer.
type tickerOwner Ticker

// OnTimer runs one tick and re-arms.
func (o *tickerOwner) OnTimer(*Timer) {
	t := (*Ticker)(o)
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.timer.Reset(t.interval)
	}
}

// Stop permanently halts the ticker.
func (t *Ticker) Stop() {
	t.stopped = true
	t.timer.Stop()
}
