package tcp

import (
	"fmt"

	"github.com/wp2p/wp2p/internal/stats"
)

// SegmentPool is a free-list of Segment structs, mirroring the sim.Event and
// netem.PacketPool contracts: single-goroutine (pools are per-stack and
// stacks are per-engine, so -parallel runs never share one), bounded in
// practice by the peak number of segments in flight, guarded against double
// release. A recycled segment keeps its Msgs backing array, so framing a
// message onto a data segment stops allocating once the pool is warm.
//
// Health is visible in the engine registry as tcp.pool.hits /
// tcp.pool.misses / tcp.pool.live_peak (instruments are shared by all pools
// on the engine, reading as per-engine totals like the other tcp counters).
type SegmentPool struct {
	free  []*Segment
	live  int64
	alloc int64 // structs ever minted; conservation: alloc == live + len(free)

	regHits   *stats.Counter
	regMisses *stats.Counter
	regLive   *stats.Gauge
}

// NewSegmentPool builds a pool bound to the registry. Stacks create their
// own; wP2P's AM filter also keeps one for the pure ACKs it fabricates.
func NewSegmentPool(reg *stats.Registry) *SegmentPool {
	return &SegmentPool{
		regHits:   reg.Counter("tcp.pool.hits"),
		regMisses: reg.Counter("tcp.pool.misses"),
		regLive:   reg.Gauge("tcp.pool.live_peak"),
	}
}

// Get returns a zeroed Segment (with any recycled Msgs capacity retained).
// Ownership travels with the wire packet: whichever stack consumes the
// segment releases it; a segment lost in flight is simply left to the GC.
func (sp *SegmentPool) Get() *Segment {
	var s *Segment
	if n := len(sp.free); n > 0 {
		s = sp.free[n-1]
		sp.free[n-1] = nil
		sp.free = sp.free[:n-1]
		s.pooled = false
		sp.regHits.Inc()
	} else {
		s = &Segment{pool: sp}
		sp.alloc++
		sp.regMisses.Inc()
	}
	sp.live++
	sp.regLive.SetMax(sp.live)
	return s
}

// put parks the struct back in the free-list, clearing message framing so
// the pool does not keep application objects alive.
func (sp *SegmentPool) put(s *Segment) {
	if s.pooled {
		panic("tcp: Segment released twice")
	}
	for i := range s.Msgs {
		s.Msgs[i] = AppMessage{}
	}
	msgs := s.Msgs[:0]
	*s = Segment{pool: sp, pooled: true, Msgs: msgs, gen: s.gen + 1}
	sp.live--
	sp.free = append(sp.free, s)
}

// checkState audits pool ownership: every struct ever minted is either
// checked out or parked in the free-list.
func (sp *SegmentPool) checkState(report func(invariant, detail string)) {
	if sp.live < 0 {
		report("tcp.pool.live", fmt.Sprintf("live segment count negative: %d", sp.live))
	}
	if got := sp.live + int64(len(sp.free)); got != sp.alloc {
		report("tcp.pool.conservation",
			fmt.Sprintf("live %d + free %d != allocated %d", sp.live, len(sp.free), sp.alloc))
	}
	for _, s := range sp.free {
		if !s.pooled {
			report("tcp.pool.free_unpooled", "free-list holds a segment not marked pooled")
			break
		}
	}
}
