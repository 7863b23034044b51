package bt

import (
	"time"

	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
)

// Limiter is a virtual-time token bucket used to cap upload bandwidth. It
// can be shared by several clients on one host (one cap across all tasks, as
// in the paper's five-task experiments), and its rate can be retuned live —
// the knob wP2P's LIHD controller turns.
type Limiter struct {
	engine  *sim.Engine
	rate    float64 // bytes per second; <= 0 means unlimited
	burst   float64
	tokens  float64
	lastAt  time.Duration
	queue   []waiter
	drainEv *sim.Event
	drainFn func() // l.drain, bound once so re-arming never allocates a closure
}

// waiter is one queued acquisition: Acquire's callback, or — fn nil — the
// block grant p.grant(m), by value so that a waiting block costs no closure.
type waiter struct {
	n  float64
	fn func()
	p  *peerConn
	m  *msgRequest
}

func (w waiter) run() {
	if w.fn != nil {
		w.fn()
	} else {
		w.p.grant(w.m)
	}
}

// DefaultBurst bounds how much a limiter can send back-to-back.
const DefaultBurst = 2 * BlockSize

// NewLimiter creates a token bucket replenishing at rate. A zero or negative
// rate means unlimited.
func NewLimiter(engine *sim.Engine, rate netem.Rate) *Limiter {
	l := &Limiter{
		engine: engine,
		rate:   float64(rate),
		burst:  DefaultBurst,
		lastAt: engine.Now(),
	}
	l.tokens = l.burst
	l.drainFn = l.drain
	return l
}

// Rate returns the current replenishment rate in bytes/second (0 =
// unlimited).
func (l *Limiter) Rate() netem.Rate {
	if l.rate <= 0 {
		return 0
	}
	return netem.Rate(l.rate)
}

// SetRate retunes the bucket. Queued acquisitions are rescheduled at the new
// rate.
func (l *Limiter) SetRate(rate netem.Rate) {
	l.refill()
	l.rate = float64(rate)
	l.reschedule()
}

// Acquire runs fn once n bytes of budget are available, in FIFO order.
// With an unlimited rate fn runs immediately.
func (l *Limiter) Acquire(n int, fn func()) {
	l.acquire(waiter{n: float64(n), fn: fn})
}

func (l *Limiter) acquire(w waiter) {
	if l.rate <= 0 {
		w.run()
		return
	}
	l.refill()
	if len(l.queue) == 0 && l.tokens >= w.n {
		l.tokens -= w.n
		w.run()
		return
	}
	l.queue = append(l.queue, w)
	l.reschedule()
}

func (l *Limiter) refill() {
	now := l.engine.Now()
	if l.rate > 0 {
		l.tokens += l.rate * (now - l.lastAt).Seconds()
		l.tokens = min(l.tokens, max(l.burst, 0))
	}
	l.lastAt = now
}

// reschedule arms the drain event for the queue head.
func (l *Limiter) reschedule() {
	if l.drainEv != nil {
		l.engine.Cancel(l.drainEv)
		l.drainEv = nil
	}
	if len(l.queue) == 0 {
		return
	}
	if l.rate <= 0 {
		// Became unlimited: flush everyone.
		q := l.queue
		l.queue = nil
		for _, w := range q {
			w.run()
		}
		return
	}
	need := l.queue[0].n - l.tokens
	var wait time.Duration
	if need > 0 {
		wait = time.Duration(need / l.rate * float64(time.Second))
		if wait <= 0 {
			wait = time.Nanosecond
		}
	}
	l.drainEv = l.engine.Schedule(wait, l.drainFn)
}

func (l *Limiter) drain() {
	l.drainEv = nil
	l.refill()
	for len(l.queue) > 0 && l.tokens >= l.queue[0].n {
		// Pop by copy-down (reslicing from the front makes every later
		// append reallocate) and before the grant, which can re-enter.
		w := l.queue[0]
		n := copy(l.queue, l.queue[1:])
		l.queue[n] = waiter{}
		l.queue = l.queue[:n]
		l.tokens -= w.n
		w.run()
	}
	l.reschedule()
}
