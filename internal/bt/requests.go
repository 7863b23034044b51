package bt

import (
	"fmt"
	"time"
)

// blockRef names one block of one piece.
type blockRef struct {
	piece int
	block int
}

// The two request indexes below keep ordset.Set's slot discipline — a new key
// appends, a delete moves the last entry into the vacated slot — because the
// stale sweep and returnRequests act in slot order, which reaches every
// digest. They are not Sets because a Set hashes its key (DESIGN §17).

// blockOwners is one slot of a requestIndex: a block in flight and the peers
// asked for it, in request order, inline: pickEndgameBlock caps them.
type blockOwners struct {
	key int32
	n   int32
	by  [endgameMaxDup]*peerConn
}

func (o *blockOwners) peers() []*peerConn { return o.by[:o.n] }

// requestIndex is Client.requested: an ordered index over the dense block
// number piece·perPiece + block, with a slice for key → slot.
type requestIndex struct {
	perPiece int     // blocks in a full piece
	keys     int     // NumPieces × perPiece
	slot     []int32 // key → slot + 1, 0 when absent; made by the first add
	ents     []blockOwners
}

func newRequestIndex(t *MetaInfo) requestIndex {
	perPiece := (t.PieceLen + BlockSize - 1) / BlockSize
	return requestIndex{perPiece: perPiece, keys: t.NumPieces() * perPiece}
}

// Len returns the number of blocks in flight.
func (x *requestIndex) Len() int { return len(x.ents) }

// find returns ref's slot or -1. ref names a block of the torrent (wireBlock).
func (x *requestIndex) find(ref blockRef) int {
	if x.slot == nil {
		return -1
	}
	return int(x.slot[ref.piece*x.perPiece+ref.block]) - 1
}

// owners returns how many peers were asked for ref.
func (x *requestIndex) owners(ref blockRef) int {
	if i := x.find(ref); i >= 0 {
		return int(x.ents[i].n)
	}
	return 0
}

// add records p as the latest requester of ref; a block not yet in flight
// takes the next slot.
func (x *requestIndex) add(ref blockRef, p *peerConn) {
	i := x.find(ref)
	if i < 0 {
		if x.slot == nil {
			// Sized once: doubling it cost 34 MB a rep (EXPERIMENTS.md).
			x.slot = make([]int32, x.keys)
		}
		i = len(x.ents)
		key := ref.piece*x.perPiece + ref.block
		x.ents = append(x.ents, blockOwners{key: int32(key)})
		x.slot[key] = int32(i + 1)
	}
	o := &x.ents[i]
	o.by[o.n] = p
	o.n++
}

// drop removes p from ref's requesters, keeping the others in order, and
// deletes the entry with its last one.
func (x *requestIndex) drop(ref blockRef, p *peerConn) {
	i := x.find(ref)
	if i < 0 {
		return
	}
	o := &x.ents[i]
	for j, q := range o.peers() {
		if q == p {
			o.n--
			copy(o.by[j:], o.by[j+1:])
			o.by[o.n] = nil
			break
		}
	}
	if o.n == 0 {
		x.take(ref)
	}
}

// take deletes ref and returns the requesters it had.
func (x *requestIndex) take(ref blockRef) blockOwners {
	i := x.find(ref)
	if i < 0 {
		return blockOwners{}
	}
	o := x.ents[i]
	last := len(x.ents) - 1
	x.ents[i] = x.ents[last]
	x.slot[x.ents[i].key] = int32(i + 1)
	x.ents[last] = blockOwners{}
	x.ents = x.ents[:last]
	x.slot[o.key] = 0
	return o
}

// each visits every block in flight in slot order. The index must not be
// mutated during the walk.
func (x *requestIndex) each(visit func(ref blockRef, owners []*peerConn)) {
	for i := range x.ents {
		k := int(x.ents[i].key)
		visit(blockRef{k / x.perPiece, k % x.perPiece}, x.ents[i].peers())
	}
}

// checkCoherent reports slot-table ↔ entry-array incoherence.
func (x *requestIndex) checkCoherent(report func(detail string)) {
	for i := range x.ents {
		o := &x.ents[i]
		if got := int(x.slot[o.key]) - 1; got != i || o.n < 1 || o.n > endgameMaxDup {
			report(fmt.Sprintf("key %d with %d requesters in slot %d, slot table says %d", o.key, o.n, i, got))
		}
	}
}

// outRequest is one block a peer was asked for, and when.
type outRequest struct {
	ref blockRef
	at  time.Duration
}

// requestList is peerConn.requestsOut. fillRequests stops at pipelineDepth
// entries, so finding one is a scan.
type requestList []outRequest

func (l requestList) find(ref blockRef) int {
	for i := range l {
		if l[i].ref == ref {
			return i
		}
	}
	return -1
}

// put records that ref was requested at at; one already listed keeps its slot.
func (l *requestList) put(ref blockRef, at time.Duration) {
	if i := l.find(ref); i >= 0 {
		(*l)[i].at = at
		return
	}
	if *l == nil {
		*l = make(requestList, 0, pipelineDepth) // all it will hold
	}
	*l = append(*l, outRequest{ref, at})
}

// del removes ref and reports whether it was listed.
func (l *requestList) del(ref blockRef) bool {
	i := l.find(ref)
	if i < 0 {
		return false
	}
	last := len(*l) - 1
	(*l)[i] = (*l)[last]
	*l = (*l)[:last]
	return true
}
