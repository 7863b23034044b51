package bt

import "slices"

// choker implements tit-for-tat: every choke interval it unchokes the
// interested peers that serve us best (as a leech) or that we can push data
// to fastest (as a seed), plus one rotating optimistic unchoke that lets
// newcomers bootstrap. Ranking falls back to the per-peer-id credit ledger
// when rates are cold, which is how a reconnecting known identity regains
// service quickly and an unknown identity starts from nothing.
type choker struct {
	client     *Client
	optimistic *peerConn
	ticks      int

	// Scratch buffers reused across ticks so the steady-state rechoke
	// allocates nothing; lengths are reset each run.
	interested []*peerConn
	rs         []rankedPeer
	unchoked   []*peerConn
	candidates []*peerConn
}

// rankedPeer pairs a connection with its tit-for-tat score for one tick.
type rankedPeer struct {
	p     *peerConn
	score float64
}

// byScoreDesc ranks the better score first: a goes before b exactly when
// a.score > b.score. A stable sort's result is fixed by that order alone, so
// ties (equal or cold rates) keep their order in interested.
func byScoreDesc(a, b rankedPeer) int {
	switch {
	case a.score > b.score:
		return -1
	case b.score > a.score:
		return 1
	}
	return 0
}

func (ck *choker) run() {
	c := ck.client
	now := c.engine.Now()
	ck.ticks++

	interested := ck.interested[:0]
	for _, p := range c.peers {
		if p.peerInterested {
			interested = append(interested, p)
		}
	}
	ck.interested = interested

	// Rotate the optimistic unchoke every OptimisticInterval.
	rotate := ck.ticks%max(1, int(c.cfg.OptimisticInterval/c.cfg.ChokeInterval)) == 0
	if ck.optimistic != nil && (ck.optimistic.closed || !ck.optimistic.peerInterested) {
		ck.optimistic = nil
	}
	if rotate || ck.optimistic == nil {
		ck.optimistic = ck.pickOptimistic(interested)
	}

	seedMode := c.have.Complete()
	rs := ck.rs[:0]
	for _, p := range interested {
		var score float64
		if seedMode {
			// Seeds rank by how fast they can push to each peer.
			score = p.upRate.Rate(now)
		} else {
			// Leeches rank by what each peer contributes: the short-window
			// rate plus the decayed per-peer-id standing, so a known
			// identity that just reconnected still outranks a stranger —
			// the hook identity retention (IA) exploits and identity loss
			// (paper §3.4) forfeits.
			score = p.downRate.Rate(now) + c.ledger.Rate(p.id, now)
		}
		rs = append(rs, rankedPeer{p: p, score: score})
	}
	ck.rs = rs
	slices.SortStableFunc(rs, byScoreDesc)

	// Fill the regular (tit-for-tat) slots from the ranking, then add the
	// optimistic unchoke on top. Per BEP-3 (and the Legout et al.
	// measurement setup) the optimistic unchoke is additive — it must not
	// consume a regular slot, or the newcomer bootstrap would come at the
	// expense of the best reciprocator.
	slots := c.cfg.UnchokeSlots
	unchoked := ck.unchoked[:0]
	for _, r := range rs {
		if len(unchoked) >= slots {
			break
		}
		if r.p == ck.optimistic {
			continue
		}
		unchoked = append(unchoked, r.p)
	}
	if ck.optimistic != nil {
		unchoked = append(unchoked, ck.optimistic)
	}
	ck.unchoked = unchoked

	// Membership by linear scan: the unchoke set is a handful of slots, so
	// scanning beats a per-tick map both in allocations and in practice.
	for _, p := range c.peers {
		choke := true
		for _, u := range unchoked {
			if u == p {
				choke = false
				break
			}
		}
		p.setChoke(choke)
	}
}

// pickOptimistic chooses a random interested peer that is currently choked,
// favouring nobody — the swarm's bootstrap mechanism.
func (ck *choker) pickOptimistic(interested []*peerConn) *peerConn {
	candidates := ck.candidates[:0]
	for _, p := range interested {
		if p.amChoking {
			candidates = append(candidates, p)
		}
	}
	ck.candidates = candidates
	if len(candidates) == 0 {
		return nil
	}
	return candidates[ck.client.engine.Rand().Intn(len(candidates))]
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
