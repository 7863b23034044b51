package bt

import (
	"math/bits"
	"math/rand"
)

// PickContext carries the state a piece picker decides from.
type PickContext struct {
	// Have is the local piece map.
	Have *Bitfield
	// Pending marks pieces already fully requested (in flight).
	Pending *Bitfield
	// PeerHas is the candidate peer's piece map.
	PeerHas *Bitfield
	// Avail[i] is how many connected peers have piece i.
	Avail []int
	// Progress is the downloaded fraction of the file in [0, 1].
	Progress float64
	// Rand is the deterministic random source.
	Rand *rand.Rand
}

// eligibleWord returns pieces 64w..64w+63 the peer has that are neither
// owned nor pending, as a bit mask: PeerHas &^ Have &^ Pending. Bits past a
// bitfield's length are never set, so maps of unequal length compare as
// Has does: out of range is false.
func (ctx *PickContext) eligibleWord(w int) uint64 {
	m := ctx.PeerHas.bits[w]
	if w < len(ctx.Have.bits) {
		m &^= ctx.Have.bits[w]
	}
	if w < len(ctx.Pending.bits) {
		m &^= ctx.Pending.bits[w]
	}
	return m
}

// Picker selects the next piece to fetch from a peer, or -1 if nothing is
// eligible. Implementations must not mutate the context.
//
// The pickers below scan the eligible set a word at a time and visit its
// set bits in ascending piece order — the order a per-index loop visits
// them — so each draws from Rand exactly as such a loop would
// (TestPickerMatchesReference pins piece and generator state).
type Picker interface {
	PickPiece(ctx *PickContext) int
}

// RarestFirst picks the eligible piece held by the fewest connected peers,
// breaking ties uniformly at random — classic BitTorrent behaviour. It
// maximizes the client's usefulness to the swarm but leaves essentially no
// in-order prefix until the download nears completion (paper §3.6).
type RarestFirst struct{}

// PickPiece implements Picker.
func (RarestFirst) PickPiece(ctx *PickContext) int {
	best := -1
	bestAvail := int(^uint(0) >> 1)
	ties := 0
	avail, rnd := ctx.Avail, ctx.Rand
	for w := range ctx.PeerHas.bits {
		for m := ctx.eligibleWord(w); m != 0; m &= m - 1 {
			i := w<<6 + bits.TrailingZeros64(m)
			a := 0
			if i < len(avail) {
				a = avail[i]
			}
			if a > bestAvail {
				continue // the common case once a rare piece has been seen
			}
			if a < bestAvail {
				best, bestAvail, ties = i, a, 1
				continue
			}
			// Reservoir-sample among ties for a uniform choice.
			ties++
			if rnd != nil && rnd.Intn(ties) == 0 {
				best = i
			}
		}
	}
	return best
}

// Sequential picks the lowest-index eligible piece, maximizing the playable
// prefix at the cost of contributing only common pieces to the swarm.
type Sequential struct{}

// PickPiece implements Picker.
func (Sequential) PickPiece(ctx *PickContext) int {
	for w := range ctx.PeerHas.bits {
		if m := ctx.eligibleWord(w); m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
	return -1
}
