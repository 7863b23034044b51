package wp2p

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/sim"
)

func mfCtx(n int, progress float64, seed int64) *bt.PickContext {
	ctx := &bt.PickContext{
		Have:     bt.NewBitfield(n),
		Pending:  bt.NewBitfield(n),
		PeerHas:  bt.NewBitfield(n),
		Avail:    make([]int, n),
		Progress: progress,
		Rand:     rand.New(rand.NewSource(seed)),
	}
	ctx.PeerHas.SetAll()
	return ctx
}

func TestMFAllSequentialAtZeroProgress(t *testing.T) {
	mf := NewMobilityFetch(nil) // PrProgress
	for i := 0; i < 50; i++ {
		ctx := mfCtx(100, 0, int64(i))
		// Make piece 70 rarest so rarest-first would pick it.
		for j := range ctx.Avail {
			ctx.Avail[j] = 5
		}
		ctx.Avail[70] = 1
		if got := mf.PickPiece(ctx); got != 0 {
			t.Fatalf("at progress 0 picked %d, want sequential (0)", got)
		}
	}
	r, s := mf.rarestPicks, mf.seqPicks
	if r != 0 || s != 50 {
		t.Errorf("picks: rarest=%d seq=%d", r, s)
	}
}

func TestMFAllRarestAtFullProgress(t *testing.T) {
	mf := NewMobilityFetch(nil)
	for i := 0; i < 50; i++ {
		ctx := mfCtx(100, 1.0, int64(i))
		for j := range ctx.Avail {
			ctx.Avail[j] = 5
		}
		ctx.Avail[70] = 1
		if got := mf.PickPiece(ctx); got != 70 {
			t.Fatalf("at progress 1 picked %d, want rarest (70)", got)
		}
	}
	r, s := mf.rarestPicks, mf.seqPicks
	if s != 0 || r != 50 {
		t.Errorf("picks: rarest=%d seq=%d", r, s)
	}
}

func TestMFBlendsAtIntermediateProgress(t *testing.T) {
	mf := NewMobilityFetch(nil)
	rng := rand.New(rand.NewSource(9))
	n := 1000
	rarest := 0
	for i := 0; i < n; i++ {
		ctx := mfCtx(100, 0.3, rng.Int63())
		for j := range ctx.Avail {
			ctx.Avail[j] = 5
		}
		ctx.Avail[70] = 1
		if mf.PickPiece(ctx) == 70 {
			rarest++
		}
	}
	frac := float64(rarest) / float64(n)
	if math.Abs(frac-0.3) > 0.06 {
		t.Errorf("rarest fraction = %.2f at progress 0.3, want ≈ 0.30", frac)
	}
}

func TestMFCustomPr(t *testing.T) {
	mf := NewMobilityFetch(func(*bt.PickContext) float64 { return 0 })
	ctx := mfCtx(10, 0.99, 1)
	if got := mf.PickPiece(ctx); got != 0 {
		t.Errorf("custom pr=0 picked %d, want 0", got)
	}
}

func TestStabilityTracker(t *testing.T) {
	e := sim.NewEngine()
	tr := NewStabilityTracker(e)
	e.RunUntil(3 * time.Minute)
	if got := tr.Connected(); got != 3*time.Minute {
		t.Errorf("Connected = %v", got)
	}
	tr.Reset()
	if got := tr.Connected(); got != 0 {
		t.Errorf("Connected after Reset = %v", got)
	}
}

func TestPrStabilityDoubles(t *testing.T) {
	e := sim.NewEngine()
	tr := NewStabilityTracker(e)
	pr := PrStability(tr, 0.2, 5*time.Minute)
	ctx := &bt.PickContext{}
	if got := pr(ctx); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("pr at t=0: %v, want 0.2", got)
	}
	e.RunUntil(5 * time.Minute)
	if got := pr(ctx); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("pr after one doubling: %v, want 0.4", got)
	}
	e.RunUntil(30 * time.Minute)
	if got := pr(ctx); got != 1 {
		t.Errorf("pr capped: %v, want 1", got)
	}
	// A disconnection resets selfishness.
	tr.Reset()
	if got := pr(ctx); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("pr after reset: %v, want 0.2", got)
	}
}

func TestPrStabilityDefaults(t *testing.T) {
	e := sim.NewEngine()
	tr := NewStabilityTracker(e)
	pr := PrStability(tr, 0, 0)
	if got := pr(&bt.PickContext{}); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("default base = %v, want 0.2", got)
	}
}

func TestIdentityStore(t *testing.T) {
	e := sim.NewEngine(sim.WithSeed(3))
	s := NewIdentityStore()
	h1 := bt.NewMetaInfo("a", 1000, 0).InfoHash()
	h2 := bt.NewMetaInfo("b", 1000, 0).InfoHash()
	id1 := s.For(h1, e.Rand())
	if got := s.For(h1, e.Rand()); got != id1 {
		t.Error("same swarm returned a different id")
	}
	if got := s.For(h2, e.Rand()); got == id1 {
		t.Error("different swarms share an id")
	}
	if len(s.ids) != 2 {
		t.Errorf("stored ids = %d", len(s.ids))
	}
}
