package sim

import (
	"testing"
	"time"
)

// The engine's Schedule/Step cycle is the inner loop of every experiment
// (each run schedules millions of packet and timer events), so these
// benchmarks report allocations: the specialized heap plus the Event
// free-list keep the steady-state hot path at ~0 allocs/op.

// BenchmarkEngineSchedule measures one schedule+fire cycle — the free-list
// hit path once the first event has been recycled.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Microsecond, fn)
		e.Step()
	}
}

// BenchmarkEngineScheduleDepth100 is the same cycle against a standing
// queue of 100 pending events, so the heap sift costs are realistic.
func BenchmarkEngineScheduleDepth100(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 100; i++ {
		e.Schedule(time.Duration(i+1)*time.Hour, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Microsecond, fn)
		e.Step()
	}
}

// BenchmarkEngineLane is the schedule+fire cycle of a fixed-delay lane event
// against a standing heap of 1,000 pending events: a ring append and pop,
// with the heap top compared but never sifted.
func BenchmarkEngineLane(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 1000; i++ {
		e.Schedule(time.Duration(i+1)*time.Hour, fn)
	}
	l := e.Lane(time.Microsecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Schedule(fn)
		e.Step()
	}
}

// BenchmarkEngineTimerChurn measures re-arming a Timer, the cancel +
// reschedule pattern of TCP retransmission and delayed-ACK timers.
func BenchmarkEngineTimerChurn(b *testing.B) {
	e := NewEngine()
	tm := NewTimer(e, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(time.Millisecond)
	}
	tm.Stop()
}

// BenchmarkEngineCancelHeavy schedules a batch, cancels every other event,
// and drains the rest — the pattern of request-timeout sweeps.
func BenchmarkEngineCancelHeavy(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	const batch = 64
	evs := make([]*Event, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			evs[j] = e.Schedule(time.Duration(j+1)*time.Millisecond, fn)
		}
		for j := 0; j < batch; j += 2 {
			e.Cancel(evs[j])
		}
		e.Run()
	}
}
