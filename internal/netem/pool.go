package netem

import "github.com/wp2p/wp2p/internal/stats"

// PacketPool is a per-Network free-list of Packet structs, mirroring the
// sim.Event free-list contract: single-goroutine (one pool per engine, no
// cross-run sharing, so -parallel stays bit-identical), bounded in practice
// by the peak number of packets in flight, and guarded against double
// release.
//
// Pool health is visible through the engine registry as netem.pool.hits /
// netem.pool.misses / netem.pool.live_peak: a warmed-up run should show the
// miss counter flat (every Get served from the free-list) and live_peak
// equal to the high-water mark of in-flight packets.
type PacketPool struct {
	free  []*Packet
	live  int64
	alloc int64 // structs ever minted; conservation: alloc == live + len(free)

	regHits   *stats.Counter
	regMisses *stats.Counter
	regLive   *stats.Gauge
}

func newPacketPool(reg *stats.Registry) *PacketPool {
	return &PacketPool{
		regHits:   reg.Counter("netem.pool.hits"),
		regMisses: reg.Counter("netem.pool.misses"),
		regLive:   reg.Gauge("netem.pool.live_peak"),
	}
}

// Get returns a zeroed Packet owned by the caller. Hand it to Iface.Send (or
// Release it) exactly once; the data path recycles it at its terminal point.
func (pp *PacketPool) Get() *Packet {
	var p *Packet
	if n := len(pp.free); n > 0 {
		p = pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		p.pooled = false
		pp.regHits.Inc()
	} else {
		p = &Packet{pool: pp}
		pp.alloc++
		pp.regMisses.Inc()
	}
	pp.live++
	pp.regLive.SetMax(pp.live)
	return p
}

// put parks the struct back in the free-list. Only Packet.Release calls
// this, so hand-built packets (pool == nil) never reach it.
func (pp *PacketPool) put(p *Packet) {
	if p.pooled {
		panic("netem: Packet released twice")
	}
	*p = Packet{pool: pp, pooled: true, gen: p.gen + 1}
	pp.live--
	pp.free = append(pp.free, p)
}

// checkState audits pool ownership: every struct ever minted is either
// checked out (live) or parked in the free-list, never both, never neither.
func (pp *PacketPool) checkState(report func(invariant, detail string)) {
	if pp.live < 0 {
		report("netem.pool.live", "live packet count negative: "+itoa(pp.live))
	}
	if got := pp.live + int64(len(pp.free)); got != pp.alloc {
		report("netem.pool.conservation",
			"live "+itoa(pp.live)+" + free "+itoa(int64(len(pp.free)))+" != allocated "+itoa(pp.alloc))
	}
	for _, p := range pp.free {
		if !p.pooled {
			report("netem.pool.free_unpooled", "free-list holds a packet not marked pooled")
			break
		}
	}
}
