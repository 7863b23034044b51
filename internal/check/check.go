// Package check is the simulation's runtime correctness layer: a pluggable
// invariant checker and a deterministic state-digest harness.
//
// Attach hooks a Checker into an engine's after-step slot. From there it
// enforces clock monotonicity on every event and, every Config.Every fired
// events, sweeps the engine plus every registered component that exports a
// CheckState hook — conservation laws, sequence-space sanity, pool
// ownership, slot accounting. Violations fail fast (panic) unless
// Config.OnViolation intercepts them.
//
// The digest side hashes the engine's clock and scheduler progress plus a
// canonical serialization of all DigestInto hooks (the stats registry is not
// part of it) into a Record every Config.DigestEvery events.
// Two same-seed runs must produce identical records; Stream/WriteStreams/
// ParseStreams give the `wp2p.digest.v1` interchange format, FirstDivergence
// binary-searches two streams to the first diverging event window, and
// Bisect (`wp2p bisect`) reports that window for two runs' files.
//
// The package imports only sim and stdlib, so every model layer
// (netem/tcp/bt/wp2p) can depend on it for the Digest type without cycles.
// When no Checker is attached the model pays nothing beyond one nil check
// per fired event and a handful of plain integer counters.
package check

import (
	"fmt"
	"time"

	"github.com/wp2p/wp2p/internal/sim"
)

// Checkable is implemented by components that can audit their own state.
// CheckState calls report once per violated invariant; a healthy component
// calls it zero times. Sweeps run between events (never mid-callback), so
// transient mid-event states are invisible by construction.
type Checkable interface {
	CheckState(report func(invariant, detail string))
}

// Digestable is implemented by components that can serialize their state
// into a digest. Implementations must feed a fixed field order and iterate
// any maps in sorted order, so equal states always hash equal.
type Digestable interface {
	DigestInto(d *Digest)
}

// Violation is one failed invariant.
type Violation struct {
	Invariant string        // dotted name, e.g. "netem.wired.up.conservation"
	Detail    string        // the numbers that disagree
	Event     int64         // fired-event count when detected
	Now       time.Duration // virtual time when detected
}

func (v Violation) String() string {
	return fmt.Sprintf("invariant %s violated at event %d t=%v: %s", v.Invariant, v.Event, v.Now, v.Detail)
}

// Config tunes an attached Checker.
type Config struct {
	// Every is the invariant-sweep period in fired events. 0 selects the
	// default (4096); negative disables sweeps entirely (digest-only use).
	Every int64
	// Digests enables state-digest records.
	Digests bool
	// DigestEvery is the record period in fired events (0 = same default).
	DigestEvery int64
	// OnViolation, when non-nil, receives each violation instead of the
	// default fail-fast panic. Tests use it to collect; the experiment
	// harness uses it to attach the flight-recorder tail before dying.
	OnViolation func(Violation)
}

// Record is one digest sample: the state hash at a known point in the run.
type Record struct {
	Event int64         // fired-event count when sampled
	Now   time.Duration // virtual time when sampled
	Sum   uint64        // FNV-1a sum of the canonical state serialization
}

// Checker watches one engine. Create with Attach.
type Checker struct {
	engine  *sim.Engine
	cfg     Config
	fired   int64
	lastNow time.Duration

	records    []Record
	violations []Violation
}

// Attach wires a Checker into the engine: after-step clock monotonicity,
// periodic invariant sweeps over every registered Checkable, and periodic
// digest records when cfg.Digests is set. The data path's own assertions
// (use-after-release of pooled packets and segments, barrier causality)
// run whether or not a Checker is attached.
func Attach(e *sim.Engine, cfg Config) *Checker {
	if cfg.Every == 0 {
		cfg.Every = 4096
	}
	if cfg.DigestEvery <= 0 {
		cfg.DigestEvery = 4096
	}
	c := &Checker{engine: e, cfg: cfg, lastNow: e.Now()}
	e.SetAfterStep(c.afterStep)
	return c
}

func (c *Checker) afterStep() {
	c.fired++
	now := c.engine.Now()
	if now < c.lastNow {
		c.report("sim.clock_monotonic", fmt.Sprintf("clock moved backwards: %v -> %v", c.lastNow, now))
	}
	c.lastNow = now
	if c.cfg.Every > 0 && c.fired%c.cfg.Every == 0 {
		c.Sweep()
	}
	if c.cfg.Digests && c.fired%c.cfg.DigestEvery == 0 {
		c.Sample()
	}
}

// Sweep audits the engine and every Checkable component now. Attach runs it
// periodically; tests and Finish call it directly.
func (c *Checker) Sweep() {
	c.engine.CheckInvariants(c.report)
	for _, comp := range c.engine.Components() {
		if ck, ok := comp.(Checkable); ok {
			ck.CheckState(c.report)
		}
	}
}

// Sample appends one digest record hashing the canonical engine state:
// clock, scheduler progress, and every Digestable component in registration
// order.
func (c *Checker) Sample() {
	d := NewDigest()
	d.I64(int64(c.engine.Now()))
	d.U64(c.engine.Seq())
	d.Int(c.engine.Pending())
	for _, comp := range c.engine.Components() {
		if dg, ok := comp.(Digestable); ok {
			dg.DigestInto(d)
		}
	}
	c.records = append(c.records, Record{Event: c.fired, Now: c.engine.Now(), Sum: d.Sum()})
}

// Finish closes out a run: one final sweep (end-state invariants, e.g.
// nothing left in flight) and one final digest record.
func (c *Checker) Finish() {
	if c.cfg.Every > 0 {
		c.Sweep()
	}
	if c.cfg.Digests {
		c.Sample()
	}
}

// Records returns the digest records taken so far, in order.
func (c *Checker) Records() []Record { return c.records }

// Violations returns every violation seen (only ever non-empty when
// OnViolation suppresses the default panic).
func (c *Checker) Violations() []Violation { return c.violations }

func (c *Checker) report(invariant, detail string) {
	v := Violation{Invariant: invariant, Detail: detail, Event: c.fired, Now: c.engine.Now()}
	c.violations = append(c.violations, v)
	if c.cfg.OnViolation != nil {
		c.cfg.OnViolation(v)
		return
	}
	panic("check: " + v.String())
}
