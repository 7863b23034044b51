package check

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/sim"
)

func TestDigestDeterministicAndSensitive(t *testing.T) {
	feed := func(d *Digest) {
		d.Str("component")
		d.I64(42)
		d.U64(7)
		d.Int(3)
		d.F64(1.5)
		d.Bool(true)
	}
	a, b := NewDigest(), NewDigest()
	feed(a)
	feed(b)
	if a.Sum() != b.Sum() {
		t.Errorf("same input, different sums: %x vs %x", a.Sum(), b.Sum())
	}
	c := NewDigest()
	feed(c)
	c.I64(43)
	if c.Sum() == a.Sum() {
		t.Error("extra field did not change the sum")
	}
	// Length-prefixed strings: ("ab","c") must not collide with ("a","bc").
	d1, d2 := NewDigest(), NewDigest()
	d1.Str("ab")
	d1.Str("c")
	d2.Str("a")
	d2.Str("bc")
	if d1.Sum() == d2.Sum() {
		t.Error("string concatenation collision")
	}
}

func TestStreamRoundTrip(t *testing.T) {
	in := []Stream{
		{
			Label: "seed=1",
			Records: []Record{
				{Event: 4096, Now: time.Second, Sum: 0xdeadbeef},
				{Event: 8192, Now: 2 * time.Second, Sum: 0x1234},
			},
			Tail: []string{"ev 1 drop", "ev 2 deliver"},
		},
		{Label: "seed=2 with spaces", Records: []Record{{Event: 1, Now: 1, Sum: 1}}},
	}
	var buf bytes.Buffer
	if err := WriteStreams(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ParseStreams(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestFirstDivergence(t *testing.T) {
	recs := func(sums ...uint64) []Record {
		out := make([]Record, len(sums))
		for i, s := range sums {
			out[i] = Record{Event: int64(i+1) * 100, Now: time.Duration(i), Sum: s}
		}
		return out
	}
	cases := []struct {
		name     string
		a, b     []Record
		idx      int
		diverged bool
	}{
		{"identical", recs(1, 2, 3), recs(1, 2, 3), 3, false},
		{"first", recs(9, 2, 3), recs(1, 2, 3), 0, true},
		{"middle", recs(1, 2, 3, 4), recs(1, 2, 9, 4), 2, true},
		{"last", recs(1, 2, 3), recs(1, 2, 9), 2, true},
		{"prefix", recs(1, 2), recs(1, 2, 3), 2, true},
		{"empty", nil, nil, 0, false},
	}
	for _, tc := range cases {
		idx, diverged := FirstDivergence(tc.a, tc.b)
		if idx != tc.idx || diverged != tc.diverged {
			t.Errorf("%s: got (%d,%v), want (%d,%v)", tc.name, idx, diverged, tc.idx, tc.diverged)
		}
	}
}

// brokenComponent reports a violation on every sweep, standing in for a
// model component with corrupted state.
type brokenComponent struct{}

func (c *brokenComponent) CheckState(report func(invariant, detail string)) {
	report("test.broken", "state is corrupt")
}

func TestCheckerDetectsViolation(t *testing.T) {
	e := sim.NewEngine(sim.WithSeed(1))
	e.Register(&brokenComponent{})
	var got []Violation
	c := Attach(e, Config{Every: 10, OnViolation: func(v Violation) { got = append(got, v) }})
	e.Register(&brokenComponent{})

	var tick func()
	tick = func() {
		if e.Now() < time.Second {
			e.Schedule(time.Millisecond, tick)
		}
	}
	e.Schedule(time.Millisecond, tick)
	e.Run()

	if len(got) == 0 {
		t.Fatal("no violations reported")
	}
	// Both broken components report on each sweep.
	if got[0].Invariant != "test.broken" || got[0].Detail != "state is corrupt" {
		t.Errorf("violation = %+v", got[0])
	}
	if got[0].Event == 0 && got[0].Now == 0 {
		t.Error("violation carries no position")
	}
	if len(c.Violations()) != len(got) {
		t.Errorf("Violations() = %d, callback saw %d", len(c.Violations()), len(got))
	}
}

func TestCheckerPanicsByDefault(t *testing.T) {
	e := sim.NewEngine(sim.WithSeed(1))
	e.Register(&brokenComponent{})
	c := Attach(e, Config{Every: 1})
	defer func() {
		if recover() == nil {
			t.Error("default violation handling did not panic")
		}
	}()
	c.Sweep()
}

func TestCheckerDigestRecordsDeterministic(t *testing.T) {
	run := func() []Record {
		e := sim.NewEngine(sim.WithSeed(7))
		c := Attach(e, Config{Digests: true, DigestEvery: 16})
		var tick func()
		tick = func() {
			if e.Now() < time.Second {
				e.Schedule(time.Duration(1+e.Rand().Intn(5))*time.Millisecond, tick)
			}
		}
		e.Schedule(time.Millisecond, tick)
		e.Run()
		c.Finish()
		return c.Records()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no digest records")
	}
	if !reflect.DeepEqual(a, b) {
		idx, _ := FirstDivergence(a, b)
		t.Errorf("same-seed runs diverge at record %d", idx)
	}
	// Records are in event order and strictly increasing.
	for i := 1; i < len(a); i++ {
		if a[i].Event <= a[i-1].Event {
			t.Errorf("records out of order at %d: %d then %d", i, a[i-1].Event, a[i].Event)
		}
	}
}
