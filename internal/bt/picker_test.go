package bt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func pickCtx(n int) *PickContext {
	return &PickContext{
		Have:    NewBitfield(n),
		Pending: NewBitfield(n),
		PeerHas: NewBitfield(n),
		Avail:   make([]int, n),
		Rand:    rand.New(rand.NewSource(5)),
	}
}

func TestRarestFirstPicksRarest(t *testing.T) {
	ctx := pickCtx(5)
	ctx.PeerHas.SetAll()
	ctx.Avail = []int{5, 3, 1, 4, 2}
	if got := (RarestFirst{}).PickPiece(ctx); got != 2 {
		t.Errorf("picked %d, want rarest (2)", got)
	}
}

func TestRarestFirstSkipsOwnedAndPending(t *testing.T) {
	ctx := pickCtx(4)
	ctx.PeerHas.SetAll()
	ctx.Avail = []int{1, 1, 2, 3}
	ctx.Have.Set(0)
	ctx.Pending.Set(1)
	if got := (RarestFirst{}).PickPiece(ctx); got != 2 {
		t.Errorf("picked %d, want 2", got)
	}
}

func TestRarestFirstRespectsPeerHas(t *testing.T) {
	ctx := pickCtx(4)
	ctx.PeerHas.Set(3) // peer only has piece 3
	ctx.Avail = []int{0, 0, 0, 9}
	if got := (RarestFirst{}).PickPiece(ctx); got != 3 {
		t.Errorf("picked %d, want 3", got)
	}
}

func TestRarestFirstExhausted(t *testing.T) {
	ctx := pickCtx(3)
	ctx.PeerHas.SetAll()
	ctx.Have.SetAll()
	if got := (RarestFirst{}).PickPiece(ctx); got != -1 {
		t.Errorf("picked %d from nothing, want -1", got)
	}
}

func TestRarestFirstTieBreakIsUniformish(t *testing.T) {
	counts := map[int]int{}
	ctx := pickCtx(4)
	ctx.PeerHas.SetAll()
	ctx.Avail = []int{2, 2, 2, 2}
	for i := 0; i < 400; i++ {
		counts[(RarestFirst{}).PickPiece(ctx)]++
	}
	for p := 0; p < 4; p++ {
		if counts[p] < 40 {
			t.Errorf("piece %d picked %d/400 times; tie-break not random", p, counts[p])
		}
	}
}

func TestSequentialPicksLowest(t *testing.T) {
	ctx := pickCtx(6)
	ctx.PeerHas.SetAll()
	ctx.Have.Set(0)
	ctx.Pending.Set(1)
	if got := (Sequential{}).PickPiece(ctx); got != 2 {
		t.Errorf("picked %d, want 2", got)
	}
}

// Property: every picker returns either -1 or an eligible piece.
func TestPropertyPickersReturnEligible(t *testing.T) {
	pickers := []Picker{RarestFirst{}, Sequential{}}
	prop := func(haveBits, pendingBits, peerBits []bool, seed int64) bool {
		n := 50
		ctx := pickCtx(n)
		ctx.Rand = rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			if i < len(haveBits) && haveBits[i] {
				ctx.Have.Set(i)
			}
			if i < len(pendingBits) && pendingBits[i] {
				ctx.Pending.Set(i)
			}
			if i < len(peerBits) && peerBits[i] {
				ctx.PeerHas.Set(i)
			}
			ctx.Avail[i] = i % 7
		}
		for _, pk := range pickers {
			got := pk.PickPiece(ctx)
			if got == -1 {
				// Must truly have no eligible piece.
				for i := 0; i < n; i++ {
					if refEligible(ctx, i) {
						return false
					}
				}
				continue
			}
			if !refEligible(ctx, got) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// The per-index pickers the word-scan ones replaced, kept as the reference
// the equivalence test compares against: one Has call per bitfield per
// piece, in index order.

func refEligible(ctx *PickContext, i int) bool {
	return ctx.PeerHas.Has(i) && !ctx.Have.Has(i) && !ctx.Pending.Has(i)
}

func refRarestFirst(ctx *PickContext) int {
	best := -1
	bestAvail := int(^uint(0) >> 1)
	ties := 0
	for i := 0; i < ctx.PeerHas.Len(); i++ {
		if !refEligible(ctx, i) {
			continue
		}
		a := 0
		if i < len(ctx.Avail) {
			a = ctx.Avail[i]
		}
		switch {
		case a < bestAvail:
			best, bestAvail, ties = i, a, 1
		case a == bestAvail:
			ties++
			if ctx.Rand != nil && ctx.Rand.Intn(ties) == 0 {
				best = i
			}
		}
	}
	return best
}

func refSequential(ctx *PickContext) int {
	for i := 0; i < ctx.PeerHas.Len(); i++ {
		if refEligible(ctx, i) {
			return i
		}
	}
	return -1
}

// randomBitfield sets each of n pieces with probability density.
func randomBitfield(r *rand.Rand, n int, density float64) *Bitfield {
	b := NewBitfield(n)
	if density >= 1 {
		b.SetAll()
		return b
	}
	for i := 0; i < n; i++ {
		if r.Float64() < density {
			b.Set(i)
		}
	}
	return b
}

// TestPickerMatchesReference pins the word-scan pickers to the per-index
// loops: over random (Have, Pending, PeerHas, Avail) tuples they return the
// same piece and leave the generator in the same state, so no sim digest can
// move. Sizes straddle the word boundary, the three bitfields may differ in
// length, Avail may be short, and Rand may be nil.
func TestPickerMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		pick Picker
		ref  func(*PickContext) int
	}{
		{"RarestFirst", RarestFirst{}, refRarestFirst},
		{"Sequential", Sequential{}, refSequential},
	}
	sizes := []int{0, 1, 63, 64, 65, 100, 127, 128, 129, 1000, 4096}
	densities := []float64{0, 0.02, 0.5, 0.98, 1}
	r := rand.New(rand.NewSource(41))
	const tuples = 3000
	for n := 0; n < tuples; n++ {
		size := sizes[r.Intn(len(sizes))]
		other := func() int { // a length for Have/Pending: mostly equal, sometimes not
			if r.Intn(4) > 0 {
				return size
			}
			return sizes[r.Intn(len(sizes))]
		}
		ctx := &PickContext{
			PeerHas: randomBitfield(r, size, densities[r.Intn(len(densities))]),
			Have:    randomBitfield(r, other(), densities[r.Intn(len(densities))]),
			Pending: randomBitfield(r, other(), densities[r.Intn(len(densities))]),
		}
		availLen := size
		if r.Intn(4) == 0 && size > 0 {
			availLen = r.Intn(size)
		}
		ctx.Avail = make([]int, availLen)
		spread := 1 + r.Intn(6) // few distinct values: plenty of ties
		for i := range ctx.Avail {
			ctx.Avail[i] = r.Intn(spread)
		}
		seed := r.Int63()
		noRand := r.Intn(8) == 0
		for _, tc := range cases {
			var wantRand, gotRand *rand.Rand
			if !noRand {
				wantRand, gotRand = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			}
			ctx.Rand = wantRand
			wantPiece := tc.ref(ctx)
			ctx.Rand = gotRand
			gotPiece := tc.pick.PickPiece(ctx)
			if gotPiece != wantPiece {
				t.Fatalf("tuple %d %s: picked %d, reference %d (n=%d have=%d pending=%d avail=%d rand=%v)",
					n, tc.name, gotPiece, wantPiece, size, ctx.Have.Len(), ctx.Pending.Len(), availLen, !noRand)
			}
			if !noRand && gotRand.Int63() != wantRand.Int63() {
				t.Fatalf("tuple %d %s: generator state differs from the reference after the pick (n=%d)", n, tc.name, size)
			}
		}
	}
}

var pickerSink int

// BenchmarkPicker times one pick over 4,096 pieces with a third already
// owned — the live-loopback torrent's shape, where the picker runs on the
// transport's single run-loop goroutine.
func BenchmarkPicker(b *testing.B) {
	const pieces = 4096
	for _, bc := range []struct {
		name string
		pick Picker
	}{{"rarest", RarestFirst{}}, {"sequential", Sequential{}}} {
		b.Run(bc.name, func(b *testing.B) {
			ctx := pickCtx(pieces)
			ctx.PeerHas.SetAll()
			for i := range ctx.Avail {
				ctx.Avail[i] = 1 + ctx.Rand.Intn(8)
				if i%3 == 0 {
					ctx.Have.Set(i)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pickerSink += bc.pick.PickPiece(ctx)
			}
		})
	}
}
