package wp2p

import (
	"math"
	"time"

	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/stats"
)

// PrFunc returns the probability p_r of fetching rarest-first (as opposed
// to in-sequence) for the current pick.
type PrFunc func(ctx *bt.PickContext) float64

// PrProgress is the schedule the paper's evaluation uses: p_r equals the
// downloaded fraction, so the client starts nearly sequential ("no benefit
// to rarest-fetch if we disconnect early") and converges to rarest-first as
// the download — and hence its usefulness to the swarm — matures.
func PrProgress(ctx *bt.PickContext) float64 { return ctx.Progress }

// StabilityTracker measures time since the last disconnection, the
// network-stability signal §4.3 describes.
type StabilityTracker struct {
	engine *sim.Engine
	since  time.Duration
}

// NewStabilityTracker starts tracking from now.
func NewStabilityTracker(engine *sim.Engine) *StabilityTracker {
	return &StabilityTracker{engine: engine, since: engine.Now()}
}

// Reset marks a disconnection at the current time.
func (s *StabilityTracker) Reset() { s.since = s.engine.Now() }

// Connected returns the time connected since the last disconnection.
func (s *StabilityTracker) Connected() time.Duration { return s.engine.Now() - s.since }

// PrStability builds the paper's alternative schedule: exponentially
// decreasing selfishness with connection stability. p_r starts at base
// (the paper suggests ~20%) and doubles every `doubling` of uninterrupted
// connectivity, capped at 1.
func PrStability(tr *StabilityTracker, base float64, doubling time.Duration) PrFunc {
	if base <= 0 {
		base = 0.2
	}
	if doubling <= 0 {
		doubling = 5 * time.Minute
	}
	return func(*bt.PickContext) float64 {
		pr := base * math.Exp2(float64(tr.Connected())/float64(doubling))
		if pr > 1 {
			return 1
		}
		return pr
	}
}

// MobilityFetch is the MF piece picker: each pick fetches the rarest
// eligible piece with probability p_r and the lowest-index eligible piece
// with probability 1−p_r, trading swarm utility against having a playable
// in-order prefix if the mobile host disconnects.
type MobilityFetch struct {
	// Pr is the rarest-first probability schedule (default PrProgress).
	Pr PrFunc

	rarest bt.RarestFirst
	seq    bt.Sequential

	rarestPicks int64
	seqPicks    int64

	// Optional registry counters, set by bindStats (wp2p.New does this; a
	// standalone picker keeps only the local fields).
	regRarest *stats.Counter
	regSeq    *stats.Counter
}

// NewMobilityFetch builds the picker with the given schedule (nil selects
// PrProgress).
func NewMobilityFetch(pr PrFunc) *MobilityFetch {
	if pr == nil {
		pr = PrProgress
	}
	return &MobilityFetch{Pr: pr}
}

// bindStats attaches the picker's decision counters to a registry.
func (m *MobilityFetch) bindStats(reg *stats.Registry) {
	m.regRarest = reg.Counter("wp2p.mf.picks.rarest")
	m.regSeq = reg.Counter("wp2p.mf.picks.sequential")
}

// PickPiece implements bt.Picker.
func (m *MobilityFetch) PickPiece(ctx *bt.PickContext) int {
	pr := m.Pr(ctx)
	if ctx.Rand != nil && ctx.Rand.Float64() < pr {
		m.rarestPicks++
		if m.regRarest != nil {
			m.regRarest.Inc()
		}
		return m.rarest.PickPiece(ctx)
	}
	m.seqPicks++
	if m.regSeq != nil {
		m.regSeq.Inc()
	}
	return m.seq.PickPiece(ctx)
}
