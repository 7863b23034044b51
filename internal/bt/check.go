package bt

import (
	"fmt"

	"github.com/wp2p/wp2p/internal/check"
)

// CheckState audits the swarm-layer bookkeeping that the paper's results
// lean on: choker slot accounting, piece-state coherence between have /
// pending / active, the byte tally behind completion times, and the
// availability counters the rarest-first picker ranks by.
func (c *Client) CheckState(report func(invariant, detail string)) {
	id := string(c.peerID)

	// The choker fills UnchokeSlots regular slots plus one additive
	// optimistic unchoke; anything beyond that means slot accounting broke.
	unchoked := 0
	for _, p := range c.peers {
		if !p.closed && !p.amChoking {
			unchoked++
		}
	}
	if limit := c.cfg.UnchokeSlots + 1; unchoked > limit {
		report("bt.choker.slots",
			fmt.Sprintf("%s: %d peers unchoked, limit %d (%d slots + optimistic)",
				id, unchoked, limit, c.cfg.UnchokeSlots))
	}

	// Piece-state coherence: active entries and the pending bitfield are two
	// views of the same set, and a piece can never be in-flight and complete.
	if got, want := c.pending.Count(), len(c.active); got != want {
		report("bt.pieces.pending",
			fmt.Sprintf("%s: pending bitfield has %d pieces, active list %d", id, got, want))
	}
	for _, pp := range c.active {
		if !c.pending.Has(pp.piece) {
			report("bt.pieces.pending",
				fmt.Sprintf("%s: active piece %d not marked pending", id, pp.piece))
		}
		if c.have.Has(pp.piece) {
			report("bt.pieces.have",
				fmt.Sprintf("%s: piece %d both complete and in-flight", id, pp.piece))
		}
		// A spare record that is also active would be handed to a second
		// piece by the next pick.
		for _, sp := range c.spare {
			if sp == pp {
				report("bt.pieces.free",
					fmt.Sprintf("%s: the record of in-flight piece %d is also spare", id, pp.piece))
			}
		}
	}

	// bytesHave feeds the download-time figures; recompute it from the have
	// bitfield.
	var bytes int64
	for i := 0; i < c.torrent.NumPieces(); i++ {
		if c.have.Has(i) {
			bytes += int64(c.torrent.PieceSize(i))
		}
	}
	if bytes != c.bytesHave {
		report("bt.bytes_have",
			fmt.Sprintf("%s: bytesHave %d, have bitfield sums to %d", id, c.bytesHave, bytes))
	}

	// The request index is bt's own, not an ordset.Set (DESIGN §17).
	c.requested.checkCoherent(func(detail string) { report("bt.requested.index", id+": "+detail) })

	// Availability counters are bounded by the connected-peer count.
	for i, a := range c.avail {
		if a < 0 || a > len(c.peers) {
			report("bt.avail",
				fmt.Sprintf("%s: piece %d availability %d outside [0,%d]", id, i, a, len(c.peers)))
			break
		}
	}
}

// DigestInto folds the client's swarm state into a determinism digest.
// Peers are hashed in slice order, which is itself deterministic (dial and
// accept order is event order).
func (c *Client) DigestInto(d *check.Digest) {
	d.Str("bt.Client")
	d.Str(string(c.peerID))
	d.Int(c.have.Count())
	d.Int(c.pending.Count())
	d.I64(c.bytesHave)
	d.I64(c.downloaded)
	d.I64(c.uploaded)
	d.I64(int64(c.completedAt))
	d.Int(len(c.known))
	d.Int(len(c.active))
	d.Int(c.requested.Len())
	d.Int(len(c.peers))
	for _, p := range c.peers {
		d.Str(string(p.id))
		d.Bool(p.closed)
		d.Bool(p.amChoking)
		d.Bool(p.peerChoking)
		d.Bool(p.amInterested)
		d.Bool(p.peerInterested)
		d.Int(len(p.requestsOut))
		d.I64(p.piecesRcvd)
	}
}
