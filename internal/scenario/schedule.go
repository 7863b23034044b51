package scenario

import (
	"time"

	"github.com/wp2p/wp2p/internal/mobility"
)

// armEvents schedules the spec's churn & fault-injection timeline onto the
// engine. Every time in the schedule — event offsets, storm spacing, ramp
// lengths, disconnect windows — is stretched by the horizon scale, so a
// schedule keeps its shape when the CLI shrinks a run.
//
// Events fire from engine time, their effects draw only on the engine RNG,
// and targets are resolved in group-declaration order, so a schedule is as
// deterministic as the protocols beneath it.
//
// Events are world-level control — they may touch instances on any shard —
// so they run through ScheduleControl: plain engine events on the
// single-engine path, coordinator globals (all workers parked, every shard
// clock at the event time) on the sharded one.
func (c *compiled) armEvents() {
	for i := range c.spec.Events {
		ev := &c.spec.Events[i]
		c.w.ScheduleControl(c.evDur(ev.At), func() { c.fire(ev) })
	}
}

// fire applies one event.
func (c *compiled) fire(ev *Event) {
	c.annotate(ev)
	switch ev.Action {
	case ActJoin:
		c.fireJoin(ev)
	case ActLeave:
		c.fireLeave(ev)
	case ActHandoff:
		for _, inst := range c.targets(ev.Peers, ev.Index) {
			if inst.handoff != nil {
				inst.handoff.Trigger()
			}
		}
	case ActHandoffStorm:
		for _, inst := range c.targets(ev.Peers, ev.Index) {
			if inst.handoff != nil {
				c.storm(inst, ev)
			}
		}
	case ActSetBER:
		for _, inst := range c.targets(ev.Peers, ev.Index) {
			inst.host.WLAN.SetBER(*ev.BER)
		}
	case ActRampBER:
		c.fireRamp(ev)
	case ActSetRate:
		for _, inst := range c.targets(ev.Peers, ev.Index) {
			switch {
			case inst.host.Link != nil:
				inst.host.Link.SetRate(ev.Up.R(), ev.Down.R())
			case inst.host.Flow != nil:
				inst.host.Flow.SetRate(ev.Up.R(), ev.Down.R())
			default:
				inst.host.WLAN.SetRate(ev.RateV.R())
			}
		}
	case ActDisconnect:
		dur := c.evDur(ev.For)
		if dur == 0 {
			dur = c.evDur(Duration(30 * time.Second))
		}
		for _, inst := range c.targets(ev.Peers, ev.Index) {
			if inst.disc == nil {
				inst.disc = mobility.NewDisconnection(inst.host.Engine, inst.host.Net, inst.host.Iface)
			}
			inst.disc.DisconnectFor(dur)
		}
	case ActPartition:
		c.setPartition(ev.A, ev.B, true)
		if ev.For > 0 {
			c.w.ScheduleControl(c.evDur(ev.For), func() { c.setPartition(ev.A, ev.B, false) })
		}
	case ActHeal:
		c.setPartition(ev.A, ev.B, false)
	}
}

// annotate marks the fault on the telemetry timeline (a no-op without
// -timeseries), so the timeline report can draw the storm that caused the
// throughput dip it shows.
func (c *compiled) annotate(ev *Event) {
	label := ev.Action
	if ev.Peers != "" {
		label += " " + ev.Peers
	}
	c.w.Annotate(c.w.Now(), label)
}

// fireJoin starts up to Count not-yet-started instances of the group, in
// index order (Count 0 = all remaining).
func (c *compiled) fireJoin(ev *Event) {
	left := ev.Count
	for _, inst := range c.targets(ev.Peers, ev.Index) {
		if inst.started {
			continue
		}
		if ev.Count > 0 && left == 0 {
			return
		}
		inst.start(c)
		left--
	}
}

// fireLeave stops up to Count running instances, from the end of the group
// so "the last arrivals leave first" — the shape of a flash crowd draining.
func (c *compiled) fireLeave(ev *Event) {
	insts := c.targets(ev.Peers, ev.Index)
	left := ev.Count
	for i := len(insts) - 1; i >= 0; i-- {
		if !insts[i].started {
			continue
		}
		if ev.Count > 0 && left == 0 {
			return
		}
		insts[i].stop()
		left--
	}
}

// storm fires a burst of handoffs: Count changes (default 3) spaced Period
// apart (default 10 s), each offset by a uniform draw in [−Jitter, +Jitter]
// from the world RNG. The triggers are scheduled on the instance's own shard
// — fire runs on the coordinator with workers parked, where touching a shard
// heap is safe — so each handoff later executes where its state lives.
func (c *compiled) storm(inst *instance, ev *Event) {
	n := ev.Count
	if n == 0 {
		n = 3
	}
	period := c.evDur(ev.Period)
	if period == 0 {
		period = c.evDur(Duration(10 * time.Second))
	}
	jitter := c.evDur(ev.Jitter)
	for k := 0; k < n; k++ {
		at := time.Duration(k) * period
		if jitter > 0 {
			at = max(at+time.Duration(c.w.Engine.Rand().Int63n(int64(2*jitter)+1))-jitter, 0)
		}
		inst.host.Engine.Schedule(at, inst.handoff.Trigger)
	}
}

// fireRamp walks the BER from its start value to the target in equal steps
// across the ramp window.
func (c *compiled) fireRamp(ev *Event) {
	insts := c.targets(ev.Peers, ev.Index)
	steps := ev.Steps
	if steps == 0 {
		steps = 10
	}
	over := c.evDur(ev.Over)
	for _, inst := range insts {
		start := inst.host.WLAN.BER()
		if ev.BER != nil {
			start = *ev.BER
			inst.host.WLAN.SetBER(start)
		}
		target := *ev.ToBER
		for k := 1; k <= steps; k++ {
			ber := start + (target-start)*float64(k)/float64(steps)
			inst.host.Engine.Schedule(over*time.Duration(k)/time.Duration(steps), func() {
				inst.host.WLAN.SetBER(ber)
			})
		}
	}
}

// setPartition blocks (or heals) the core between every instance pair of
// two groups, keyed on the addresses the instances hold right now.
func (c *compiled) setPartition(a, b string, blocked bool) {
	for _, ia := range c.groups[a] {
		for _, ib := range c.groups[b] {
			c.w.SetPairBlocked(ia.host.Iface.IP(), ib.host.Iface.IP(), blocked)
		}
	}
}
