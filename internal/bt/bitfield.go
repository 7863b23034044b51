package bt

import "fmt"

// Bitfield tracks piece possession. The zero value covers no pieces; create
// bitfields with NewBitfield.
type Bitfield struct {
	bits []uint64 // nil while a map made without words (peerConn.remoteHas) is still empty
	n    int      // number of pieces
	set  int      // population count, maintained incrementally
}

// NewBitfield returns an empty bitfield over n pieces.
func NewBitfield(n int) *Bitfield {
	if n < 0 {
		panic("bt: negative bitfield size")
	}
	return &Bitfield{bits: make([]uint64, (n+63)/64), n: n}
}

// words returns the backing words, making them on first use.
func (b *Bitfield) words() []uint64 {
	if b.bits == nil {
		b.bits = make([]uint64, (b.n+63)/64)
	}
	return b.bits
}

// reset empties b and resizes it to n pieces, in its own words when they
// are enough.
func (b *Bitfield) reset(n int) {
	if w := (n + 63) / 64; cap(b.bits) >= w {
		b.bits = b.bits[:w]
		clear(b.bits)
	} else {
		b.bits = make([]uint64, w)
	}
	b.n, b.set = n, 0
}

// Len returns the number of pieces the bitfield covers.
func (b *Bitfield) Len() int { return b.n }

// Has reports whether piece i is set. Out-of-range indexes are false.
func (b *Bitfield) Has(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	w := uint(i) / 64
	return w < uint(len(b.bits)) && b.bits[w]&(1<<(uint(i)%64)) != 0
}

// Set marks piece i present. Out-of-range indexes panic.
func (b *Bitfield) Set(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bt: Set(%d) out of range [0,%d)", i, b.n))
	}
	w, m := i/64, uint64(1)<<uint(i%64)
	if bits := b.words(); bits[w]&m == 0 {
		bits[w] |= m
		b.set++
	}
}

// Clear marks piece i absent.
func (b *Bitfield) Clear(i int) {
	if i < 0 || i >= b.n || b.bits == nil {
		return
	}
	w, m := i/64, uint64(1)<<uint(i%64)
	if b.bits[w]&m != 0 {
		b.bits[w] &^= m
		b.set--
	}
}

// Count returns the number of set pieces.
func (b *Bitfield) Count() int { return b.set }

// Complete reports whether every piece is set.
func (b *Bitfield) Complete() bool { return b.set == b.n }

// Clone returns an independent copy.
func (b *Bitfield) Clone() *Bitfield {
	c := &Bitfield{n: b.n}
	c.copyFrom(b)
	return c
}

// copyFrom overwrites b with src, a map over the same number of pieces, in
// b's own words.
func (b *Bitfield) copyFrom(src *Bitfield) {
	if src.n != b.n {
		panic(fmt.Sprintf("bt: copyFrom a map of %d pieces into one of %d", src.n, b.n))
	}
	if src.set == 0 { // nothing to hold: b's words, if any, stay its own
		clear(b.bits)
	} else {
		copy(b.words(), src.bits)
	}
	b.set = src.set
}

// hasAnyNotIn reports whether b holds a piece that other lacks — b &^ other
// is non-empty — a word at a time. Bits past a bitfield's length are never
// set, so maps of unequal length compare as Has does: out of range is false.
func (b *Bitfield) hasAnyNotIn(other *Bitfield) bool {
	for w, m := range b.bits {
		if w < len(other.bits) {
			m &^= other.bits[w]
		}
		if m != 0 {
			return true
		}
	}
	return false
}

// SetAll marks every piece present.
func (b *Bitfield) SetAll() {
	b.words()
	for i := range b.bits {
		b.bits[i] = ^uint64(0)
	}
	if rem := b.n % 64; rem != 0 && len(b.bits) > 0 {
		b.bits[len(b.bits)-1] = (1 << uint(rem)) - 1
	}
	b.set = b.n
}

// PrefixLen returns the length of the contiguous set prefix — the quantity
// behind "playable percentage": media plays only as far as in-order data
// extends.
func (b *Bitfield) PrefixLen() int {
	for i := 0; i < b.n; i++ {
		if !b.Has(i) {
			return i
		}
	}
	return b.n
}

// String renders the bitfield compactly for debugging.
func (b *Bitfield) String() string {
	return fmt.Sprintf("Bitfield{%d/%d}", b.set, b.n)
}
