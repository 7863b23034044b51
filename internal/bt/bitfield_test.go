package bt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitfieldBasics(t *testing.T) {
	b := NewBitfield(100)
	if b.Len() != 100 || b.Count() != 0 || b.Complete() {
		t.Fatalf("fresh bitfield: len=%d count=%d complete=%v", b.Len(), b.Count(), b.Complete())
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(99)
	if b.Count() != 4 {
		t.Errorf("Count = %d, want 4", b.Count())
	}
	for _, i := range []int{0, 63, 64, 99} {
		if !b.Has(i) {
			t.Errorf("Has(%d) = false", i)
		}
	}
	if b.Has(1) || b.Has(-1) || b.Has(100) {
		t.Error("spurious Has")
	}
	b.Set(0) // idempotent
	if b.Count() != 4 {
		t.Errorf("double Set changed count to %d", b.Count())
	}
	b.Clear(0)
	if b.Has(0) || b.Count() != 3 {
		t.Errorf("Clear failed: count=%d", b.Count())
	}
	b.Clear(0) // idempotent
	if b.Count() != 3 {
		t.Errorf("double Clear changed count to %d", b.Count())
	}
}

func TestBitfieldSetAllComplete(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 100, 128} {
		b := NewBitfield(n)
		b.SetAll()
		if !b.Complete() || b.Count() != n {
			t.Errorf("n=%d: complete=%v count=%d", n, b.Complete(), b.Count())
		}
		if b.Has(n) {
			t.Errorf("n=%d: Has(n) = true past the end", n)
		}
	}
}

func TestBitfieldClone(t *testing.T) {
	b := NewBitfield(10)
	b.Set(3)
	c := b.Clone()
	c.Set(4)
	if b.Has(4) {
		t.Error("mutating clone affected original")
	}
	if !c.Has(3) {
		t.Error("clone lost bits")
	}
}

func TestBitfieldPrefixLen(t *testing.T) {
	tests := []struct {
		set  []int
		n    int
		want int
	}{
		{nil, 10, 0},
		{[]int{0}, 10, 1},
		{[]int{0, 1, 2}, 10, 3},
		{[]int{0, 1, 3}, 10, 2},
		{[]int{1, 2, 3}, 10, 0},
		{[]int{0, 1, 2, 3, 4}, 5, 5},
	}
	for _, tt := range tests {
		b := NewBitfield(tt.n)
		for _, i := range tt.set {
			b.Set(i)
		}
		if got := b.PrefixLen(); got != tt.want {
			t.Errorf("set %v: PrefixLen = %d, want %d", tt.set, got, tt.want)
		}
	}
}

func TestBitfieldSetPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Set did not panic")
		}
	}()
	NewBitfield(5).Set(5)
}

// Property: a bitfield agrees with a reference map implementation under an
// arbitrary operation sequence.
func TestPropertyBitfieldMatchesReference(t *testing.T) {
	prop := func(ops []uint16) bool {
		const n = 200
		b := NewBitfield(n)
		ref := make(map[int]bool)
		for _, op := range ops {
			i := int(op % n)
			if op&0x8000 != 0 {
				b.Clear(i)
				delete(ref, i)
			} else {
				b.Set(i)
				ref[i] = true
			}
		}
		if b.Count() != len(ref) {
			return false
		}
		for i := 0; i < n; i++ {
			if b.Has(i) != ref[i] {
				return false
			}
		}
		// PrefixLen is the first unset index.
		want := n
		for i := 0; i < n; i++ {
			if !ref[i] {
				want = i
				break
			}
		}
		return b.PrefixLen() == want
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// refHasAnyNotIn is the per-index loop updateInterest ran before the word
// scan: two Has calls per piece.
func refHasAnyNotIn(b, other *Bitfield) bool {
	for i := 0; i < b.Len(); i++ {
		if b.Has(i) && !other.Has(i) {
			return true
		}
	}
	return false
}

// TestHasAnyNotInMatchesReference pins the word scan behind updateInterest to
// the per-index loop over random pairs: sizes straddle the word boundary, the
// two maps may differ in length either way, and the densities include the
// empty and full maps and the one-piece-missing pair a Have usually sees.
func TestHasAnyNotInMatchesReference(t *testing.T) {
	sizes := []int{0, 1, 63, 64, 65, 4096}
	densities := []float64{0, 0.02, 0.5, 0.98, 1}
	r := rand.New(rand.NewSource(43))
	for n := 0; n < 5000; n++ {
		size := sizes[r.Intn(len(sizes))]
		otherSize := size
		if r.Intn(4) == 0 {
			otherSize = sizes[r.Intn(len(sizes))]
		}
		b := randomBitfield(r, size, densities[r.Intn(len(densities))])
		var other *Bitfield
		if r.Intn(3) == 0 && otherSize == size {
			// A superset of b, less at most one piece: the steady state of a
			// download, where the answer hangs on a single bit.
			other = b.Clone()
			for i := 0; i < size; i++ {
				if r.Intn(2) == 0 {
					other.Set(i)
				}
			}
			if size > 0 && r.Intn(2) == 0 {
				other.Clear(r.Intn(size))
			}
		} else {
			other = randomBitfield(r, otherSize, densities[r.Intn(len(densities))])
		}
		if got, want := b.hasAnyNotIn(other), refHasAnyNotIn(b, other); got != want {
			t.Fatalf("pair %d: hasAnyNotIn = %v, reference %v (n=%d other=%d, %v vs %v)",
				n, got, want, size, otherSize, b, other)
		}
	}
}
