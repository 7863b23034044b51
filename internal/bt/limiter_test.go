package bt

import (
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
)

func TestLimiterUnlimited(t *testing.T) {
	e := sim.NewEngine()
	l := NewLimiter(e, 0)
	ran := false
	l.Acquire(1<<20, func() { ran = true })
	if !ran {
		t.Fatal("unlimited limiter deferred the callback")
	}
}

func TestLimiterEnforcesRate(t *testing.T) {
	e := sim.NewEngine()
	l := NewLimiter(e, 10*netem.KBps) // 10 000 B/s, burst 32 KiB
	var grants []time.Duration
	// Ten 32 KiB acquisitions = 320 KiB ≈ 32s at 10 KB/s (after the burst).
	for i := 0; i < 10; i++ {
		l.Acquire(32*1024, func() { grants = append(grants, e.Now()) })
	}
	e.Run()
	if len(grants) != 10 {
		t.Fatalf("granted %d, want 10", len(grants))
	}
	last := grants[9]
	// First grant is free (full burst); the remaining nine drain at
	// 32768 B / 10000 B/s ≈ 3.28s each ⇒ ≈ 29.5s total.
	if last < 25*time.Second || last > 35*time.Second {
		t.Errorf("last grant at %v, want ≈ 29.5s", last)
	}
	for i := 1; i < len(grants); i++ {
		if grants[i] < grants[i-1] {
			t.Error("grants out of FIFO order")
		}
	}
}

func TestLimiterSetRateSpeedsUp(t *testing.T) {
	e := sim.NewEngine()
	l := NewLimiter(e, 1*netem.KBps)
	var doneAt time.Duration
	for i := 0; i < 5; i++ {
		l.Acquire(16*1024, func() { doneAt = e.Now() })
	}
	// After 1 virtual second, open the throttle wide.
	e.Schedule(time.Second, func() { l.SetRate(1 * netem.MBps) })
	e.Run()
	if doneAt > 3*time.Second {
		t.Errorf("drain finished at %v; SetRate did not take effect", doneAt)
	}
}

func TestLimiterSetRateUnlimitedFlushes(t *testing.T) {
	e := sim.NewEngine()
	l := NewLimiter(e, 1) // 1 B/s: effectively stuck
	done := 0
	for i := 0; i < 3; i++ {
		l.Acquire(10000, func() { done++ })
	}
	e.Schedule(time.Second, func() { l.SetRate(0) })
	e.RunUntil(2 * time.Second)
	if done != 3 {
		t.Errorf("done = %d after unlimiting, want 3", done)
	}
}

func TestLimiterQueueLen(t *testing.T) {
	e := sim.NewEngine()
	l := NewLimiter(e, 1*netem.KBps)
	for i := 0; i < 4; i++ {
		l.Acquire(32*1024, func() {})
	}
	if len(l.queue) < 3 {
		t.Errorf("QueueLen = %d, want >= 3 queued", len(l.queue))
	}
	e.Run()
	if len(l.queue) != 0 {
		t.Errorf("QueueLen = %d after drain", len(l.queue))
	}
}

// TestZeroAllocLimiterRearm pins the bound drain callback: re-arming the drain
// event for a waiting queue (cancel + schedule, here through SetRate) costs no
// allocation once the engine's event free-list is warm.
func TestZeroAllocLimiterRearm(t *testing.T) {
	e := sim.NewEngine()
	l := NewLimiter(e, 1*netem.KBps)
	l.Acquire(64*1024, func() {})
	l.Acquire(64*1024, func() {})
	l.SetRate(2 * netem.KBps)
	allocs := testing.AllocsPerRun(100, func() {
		l.SetRate(1 * netem.KBps)
		l.SetRate(2 * netem.KBps)
	})
	if allocs != 0 {
		t.Errorf("limiter re-arm allocates %.1f per op, want 0", allocs)
	}
	if len(l.queue) != 2 {
		t.Fatalf("QueueLen = %d, want the 2 waiters still queued", len(l.queue))
	}

	// Queued grants: a queue that fills and drains over and over stays in one
	// backing array (drain pops by copy-down; reslicing from the front made
	// every few appends reallocate), and a block's grant queues as a value,
	// not a closure.
	l.SetRate(0) // flush the two waiters above
	l.SetRate(1 * netem.MBps)
	granted := 0
	fn := func() { granted++ }
	p, m := &peerConn{closed: true}, &msgRequest{Length: BlockSize} // grant returns at once
	cycle := func() {
		for i := 0; i < 6; i++ { // past the burst, so most of them queue
			l.Acquire(BlockSize, fn)
			l.acquire(waiter{n: BlockSize, p: p, m: m})
		}
		if len(l.queue) < 8 {
			t.Fatalf("QueueLen = %d, want most of the 12 grants queued", len(l.queue))
		}
		e.RunFor(time.Second)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("queued grants allocate %.1f per cycle, want 0", allocs)
	}
	if len(l.queue) != 0 || granted != 6*102 {
		t.Errorf("QueueLen = %d, granted = %d; want 0 and %d", len(l.queue), granted, 6*102)
	}
}

func TestLedger(t *testing.T) {
	l := NewCreditLedger()
	if l.entries["x"] != nil {
		t.Error("fresh ledger knows a peer")
	}
	l.Add("x", 100, 0)
	l.Add("x", 50, 0)
	l.Add("y", -5, 0) // ignored
	if got := l.Credit("x", 0); got != 150 {
		t.Errorf("Credit(x) = %v, want 150", got)
	}
	if l.entries["y"] != nil {
		t.Error("negative add created an entry")
	}
	if len(l.entries) != 1 {
		t.Errorf("Len = %d, want 1", len(l.entries))
	}
}

func TestLedgerDecay(t *testing.T) {
	l := NewCreditLedgerWithHalfLife(10 * time.Minute)
	l.Add("x", 1000, 0)
	if got := l.Credit("x", 10*time.Minute); got < 499 || got > 501 {
		t.Errorf("credit after one half-life = %v, want ≈ 500", got)
	}
	if got := l.Credit("x", 20*time.Minute); got < 249 || got > 251 {
		t.Errorf("credit after two half-lives = %v, want ≈ 250", got)
	}
	// Standing expressed as an equivalent rate.
	l2 := NewCreditLedgerWithHalfLife(10 * time.Minute)
	l2.Add("y", 600_000, 0)
	if got := l2.Rate("y", 0); got != 1000 {
		t.Errorf("Rate = %v, want 1000 B/s (600 KB over 600 s)", got)
	}
	// Zero-history peers rate zero.
	if got := l2.Rate("stranger", 0); got != 0 {
		t.Errorf("stranger rate = %v", got)
	}
}

func TestLedgerDefaultHalfLifeOnBadInput(t *testing.T) {
	l := NewCreditLedgerWithHalfLife(-1)
	l.Add("x", 100, 0)
	if got := l.Credit("x", 0); got != 100 {
		t.Errorf("Credit = %v", got)
	}
}
