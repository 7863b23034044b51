// Package mobility models mobile-host behaviour on top of netem: periodic
// IP handoffs (the paper emulates these with ifdown/ifup), temporary
// disconnections, and the client-side reactions of a default BitTorrent
// client, which re-initiates its task with a fresh peer-id after an address
// change.
package mobility

import (
	"time"

	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/stats"
)

// IPAllocator hands out fresh addresses for handoffs. The zero value is not
// usable; create allocators with NewIPAllocator.
type IPAllocator struct {
	next      netem.IP
	exhausted bool
}

// NewIPAllocator returns an allocator starting at base. Base 0 is rejected:
// address 0 means "unset" throughout netem, so handing it out would silently
// break source stamping.
func NewIPAllocator(base netem.IP) *IPAllocator {
	if base == 0 {
		panic("mobility: IPAllocator base must be non-zero")
	}
	return &IPAllocator{next: base}
}

// Next returns a fresh address. Once the 32-bit space is exhausted it panics
// rather than wrapping around: a wrapped allocator would re-issue addresses
// still bound to other interfaces, and netem.Rebind turns that construction
// bug into a hard-to-trace routing panic much later.
func (a *IPAllocator) Next() netem.IP {
	if a.exhausted {
		panic("mobility: IPAllocator exhausted its address space")
	}
	ip := a.next
	a.next++
	if a.next == 0 { // wrapped past the top of the space
		a.exhausted = true
	}
	return ip
}

// Handoff periodically moves an interface to a fresh address, blackholing
// the old one — the network-level event behind every mobility experiment in
// the paper. The zero value is not usable; create with NewHandoff.
type Handoff struct {
	engine *sim.Engine
	net    *netem.Network
	iface  *netem.Iface
	alloc  *IPAllocator
	period time.Duration
	jitter time.Duration
	ticker *sim.Ticker
	next   *sim.Event // pending fire when running jittered

	// changeObs observe every address change, in registration order.
	changeObs []func(old, new netem.IP)

	changes     int
	regHandoffs *stats.Counter
}

// NewHandoff prepares a periodic handoff; call Start to begin.
func NewHandoff(engine *sim.Engine, net *netem.Network, iface *netem.Iface, alloc *IPAllocator, period time.Duration) *Handoff {
	if period <= 0 {
		panic("mobility: handoff period must be positive")
	}
	return &Handoff{
		engine: engine, net: net, iface: iface, alloc: alloc, period: period,
		regHandoffs: engine.Stats().Counter("mobility.handoffs"),
	}
}

// OnChange registers an observer fired after each address change with the
// old and new addresses. Observers chain: each call appends, and every
// registered observer sees every change in registration order, so a scenario
// scheduler and the client's own reaction compose instead of silently
// replacing each other. Pass nil to remove all observers.
func (h *Handoff) OnChange(fn func(old, new netem.IP)) {
	if fn == nil {
		h.changeObs = nil
		return
	}
	h.changeObs = append(h.changeObs, fn)
}

// SetJitter randomizes the schedule: each gap is drawn uniformly from
// [period−j, period+j] on the engine's RNG, so handoffs stop beating against
// other periodic behaviour (announces, choke rounds) while staying fully
// deterministic for a given engine seed. It must be set before Start;
// j must satisfy 0 ≤ j < period.
func (h *Handoff) SetJitter(j time.Duration) {
	if j < 0 || j >= h.period {
		panic("mobility: handoff jitter must be in [0, period)")
	}
	if h.Running() {
		panic("mobility: SetJitter on a running handoff")
	}
	h.jitter = j
}

// Start begins the handoff schedule; the first change is one (possibly
// jittered) period away. Starting a running handoff is a no-op; a stopped
// handoff can be started again and resumes with a full period.
func (h *Handoff) Start() {
	if h.Running() {
		return
	}
	if h.jitter == 0 {
		h.ticker = sim.NewTicker(h.engine, h.period, h.fire)
		return
	}
	h.scheduleJittered()
}

// scheduleJittered arms the next jittered fire.
func (h *Handoff) scheduleJittered() {
	gap := h.period - h.jitter +
		time.Duration(h.engine.Rand().Int63n(int64(2*h.jitter)+1))
	h.next = h.engine.Schedule(gap, func() {
		h.next = nil
		h.fire()
		h.scheduleJittered()
	})
}

// Stop halts the schedule.
func (h *Handoff) Stop() {
	if h.ticker != nil {
		h.ticker.Stop()
		h.ticker = nil
	}
	if h.next != nil {
		h.engine.Cancel(h.next)
		h.next = nil
	}
}

// Running reports whether the schedule is armed.
func (h *Handoff) Running() bool { return h.ticker != nil || h.next != nil }

// Trigger performs one handoff immediately.
func (h *Handoff) Trigger() { h.fire() }

// Changes counts address changes so far.
func (h *Handoff) Changes() int { return h.changes }

func (h *Handoff) fire() {
	old := h.iface.IP()
	next := h.alloc.Next()
	h.net.Rebind(h.iface, next)
	h.changes++
	h.regHandoffs.Inc()
	for _, fn := range h.changeObs {
		fn(old, next)
	}
}

// Disconnection detaches an interface for a duration and reattaches it —
// radio-off mobility without an address change.
type Disconnection struct {
	engine *sim.Engine
	net    *netem.Network
	iface  *netem.Iface

	// OnReconnect fires when the interface comes back.
	OnReconnect func()
}

// NewDisconnection prepares a disconnector for the interface.
func NewDisconnection(engine *sim.Engine, net *netem.Network, iface *netem.Iface) *Disconnection {
	return &Disconnection{engine: engine, net: net, iface: iface}
}

// DisconnectFor detaches the interface now and reattaches it after d.
func (d *Disconnection) DisconnectFor(dur time.Duration) {
	if !d.net.Attached(d.iface) {
		return
	}
	d.net.Detach(d.iface)
	d.engine.Schedule(dur, func() {
		d.net.Reattach(d.iface)
		if d.OnReconnect != nil {
			d.OnReconnect()
		}
	})
}

// DetectionDelay is how long the default client's user or OS takes to
// notice a task that died with its address: the baseline every figure and
// scenario spec compares wP2P against (a spec's detection_delay overrides it).
const DetectionDelay = 15 * time.Second

// DefaultReaction wires the default (wP2P-unaware) client to a handoff:
// detectionDelay after each address change, reinit re-initiates the task (a
// bt or ed2k client under a fresh identity, forfeiting all tit-for-tat
// credit, paper §3.4; a wP2P client through its one reaction).
func DefaultReaction(engine *sim.Engine, h *Handoff, detectionDelay time.Duration, reinit func()) {
	h.OnChange(func(_, _ netem.IP) { engine.Schedule(detectionDelay, reinit) })
}
