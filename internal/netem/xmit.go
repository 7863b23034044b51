package netem

import (
	"strconv"
	"time"

	"github.com/wp2p/wp2p/internal/check"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/stats"
)

// queued pairs a packet with its delivery continuation.
type queued struct {
	pkt     *Packet
	deliver Deliver
}

// transmitter serializes packets at a fixed rate through a drop-tail FIFO,
// then applies propagation delay and an optional per-packet loss probability.
// It models one direction of a wired link, or the single shared server of a
// half-duplex wireless channel.
//
// The hot path is allocation-free: the serialization completion is a single
// pre-bound continuation (the busy flag guarantees one packet on the wire at
// a time, so its state lives in cur/curAirtime), and the propagation stage —
// where many packets can be in flight at once — runs on pooled xmitHop
// continuations scheduled on the engine's fixed-delay lane for this link's
// propagation delay, which skips the event heap.
type transmitter struct {
	engine   *sim.Engine
	rate     Rate
	delay    time.Duration
	lane     *sim.Lane     // engine.Lane(delay), bound by bindStats
	overhead time.Duration // fixed per-packet channel-access cost (MAC)
	queueCap int           // packets; <=0 means unlimited

	// lossProb returns the probability that a packet of the given size is
	// corrupted in flight; nil means lossless.
	lossProb func(size int) float64

	// dropObs observe every discarded packet, in registration order.
	dropObs []func(pkt *Packet, reason DropReason)

	// queue[qhead:] is the drop-tail FIFO. startNext dequeues by advancing
	// qhead, not by shifting the slice; the dead prefix is reclaimed when the
	// FIFO empties, or by compaction when an append would otherwise grow it.
	queue []queued
	qhead int
	busy  bool
	stats Stats

	// Conservation ledger (plain increments, always on): every packet
	// offered to the transmitter is eventually dropped, corrupted, queued,
	// on the wire, propagating, or delivered — see checkState.
	offered      int64
	delivered    int64
	propInFlight int64
	// checkEnabled arms the strict data-path assertions (generation-stamp
	// verification across the propagation hop); set via the owning medium's
	// SetCheckEnabled.
	checkEnabled bool

	// cur is the packet being serialized, valid while busy; onTxDone is the
	// pre-bound completion consuming it.
	cur        queued
	curAirtime time.Duration
	onTxDone   func()

	// hopFree recycles propagation-delay continuations.
	hopFree *xmitHop

	// Registry instruments, pre-bound by bindStats; media sharing an engine
	// and prefix share these counters, so they read as per-class totals.
	regTxPackets *stats.Counter
	regTxBytes   *stats.Counter
	regOverflow  *stats.Counter
	regCorrupted *stats.Counter
	regAirtime   *stats.Counter
	regQueuePeak *stats.Gauge
}

// xmitHop carries one delivered packet across the propagation delay; fn is
// bound once at allocation so scheduling it costs nothing.
type xmitHop struct {
	x       *transmitter
	pkt     *Packet
	deliver Deliver
	next    *xmitHop
	fn      func()
	gen     uint32 // pkt's generation when the hop was scheduled
}

func (h *xmitHop) run() {
	x := h.x
	pkt, deliver, gen := h.pkt, h.deliver, h.gen
	h.pkt, h.deliver = nil, nil
	h.next = x.hopFree
	x.hopFree = h
	x.propInFlight--
	x.delivered++
	if x.checkEnabled && (pkt.pooled || pkt.gen != gen) {
		panic("netem: packet recycled while crossing propagation delay (use-after-release)")
	}
	deliver.Deliver(pkt)
}

// bindStats attaches the transmitter to the engine's registry under the
// given medium-class prefix ("netem.wired", "netem.wireless") and binds the
// serialization-complete continuation and the propagation lane.
func (x *transmitter) bindStats(prefix string) {
	reg := x.engine.Stats()
	x.regTxPackets = reg.Counter(prefix + ".tx_packets")
	x.regTxBytes = reg.Counter(prefix + ".tx_bytes")
	x.regOverflow = reg.Counter(prefix + ".drops.queue_overflow")
	x.regCorrupted = reg.Counter(prefix + ".drops.corrupted")
	x.regAirtime = reg.Counter(prefix + ".airtime_ns")
	x.regQueuePeak = reg.Gauge(prefix + ".queue_peak")
	x.onTxDone = x.txDone
	x.lane = x.engine.Lane(x.delay)
}

// enqueue admits a packet for transmission, dropping it if the buffer is
// full. The transmitter owns the packet until it delivers or drops it.
func (x *transmitter) enqueue(pkt *Packet, deliver Deliver) {
	x.offered++
	if x.queueCap > 0 && x.waiting() >= x.queueCap {
		x.stats.Drops++
		x.regOverflow.Inc()
		x.drop(pkt, DropQueueOverflow)
		pkt.Release()
		return
	}
	if x.qhead > 0 && len(x.queue) == cap(x.queue) {
		// Slide the live entries down over the dead prefix and drop the
		// stale copies left behind them, so append has room again.
		n := copy(x.queue, x.queue[x.qhead:])
		clear(x.queue[n:])
		x.queue, x.qhead = x.queue[:n], 0
	}
	x.queue = append(x.queue, queued{pkt: pkt, deliver: deliver})
	x.regQueuePeak.SetMax(int64(x.waiting()))
	if !x.busy {
		x.startNext()
	}
}

// waiting reports the packets in the FIFO (not the one on the wire).
func (x *transmitter) waiting() int { return len(x.queue) - x.qhead }

func (x *transmitter) startNext() {
	if x.waiting() == 0 {
		x.busy = false
		return
	}
	item := x.queue[x.qhead]
	x.queue[x.qhead] = queued{}
	x.qhead++
	if x.qhead == len(x.queue) {
		x.queue, x.qhead = x.queue[:0], 0
	}
	x.busy = true
	x.cur = item
	x.curAirtime = x.overhead + x.rate.txTime(item.pkt.Size)
	x.engine.Schedule(x.curAirtime, x.onTxDone)
}

// txDone fires when the current packet finishes serializing: account for
// airtime, flip the corruption coin, and either hand the packet to a pooled
// propagation hop or drop it.
func (x *transmitter) txDone() {
	item, airtime := x.cur, x.curAirtime
	x.cur = queued{}
	x.stats.TxPackets++
	x.stats.TxBytes += int64(item.pkt.Size)
	x.regTxPackets.Inc()
	x.regTxBytes.Add(int64(item.pkt.Size))
	x.regAirtime.Add(int64(airtime))
	corrupted := x.lossProb != nil &&
		x.engine.Rand().Float64() < x.lossProb(item.pkt.Size)
	if corrupted {
		x.stats.Corrupted++
		x.regCorrupted.Inc()
		x.drop(item.pkt, DropCorrupted)
		item.pkt.Release()
	} else {
		h := x.hopFree
		if h != nil {
			x.hopFree = h.next
		} else {
			h = &xmitHop{x: x}
			h.fn = h.run
		}
		h.pkt, h.deliver = item.pkt, item.deliver
		h.gen = item.pkt.gen
		x.propInFlight++
		x.lane.Schedule(h.fn)
	}
	x.startNext()
}

func (x *transmitter) drop(pkt *Packet, reason DropReason) {
	for _, fn := range x.dropObs {
		fn(pkt, reason)
	}
}

// setRate changes the serialization rate. The packet currently on the wire
// (if any) finishes at the old rate; queued and future packets serialize at
// the new one — how a real shaper or a renegotiated link behaves.
func (x *transmitter) setRate(r Rate) { x.rate = r }

// inFlight reports packets queued or being serialized.
func (x *transmitter) inFlight() int {
	n := x.waiting()
	if x.busy {
		n++
	}
	return n
}

// checkState audits the transmitter's byte-conservation ledger: every
// packet ever offered is accounted for as dropped, corrupted, queued, on
// the wire, propagating, or delivered.
func (x *transmitter) checkState(name string, report func(invariant, detail string)) {
	busy := int64(0)
	if x.busy {
		busy = 1
		if x.cur.pkt == nil {
			report(name+".wire", "transmitter busy with no current packet")
		} else if x.cur.pkt.pooled {
			report(name+".wire_pooled", "packet on the wire is parked in the free-list")
		}
	}
	got := x.stats.Drops + x.stats.Corrupted + x.delivered + int64(x.waiting()) + busy + x.propInFlight
	if got != x.offered {
		report(name+".conservation", "offered "+itoa(x.offered)+
			" != dropped "+itoa(x.stats.Drops)+" + corrupted "+itoa(x.stats.Corrupted)+
			" + delivered "+itoa(x.delivered)+" + queued "+itoa(int64(x.waiting()))+
			" + wire "+itoa(busy)+" + propagating "+itoa(x.propInFlight))
	}
	for _, item := range x.queue[x.qhead:] {
		if item.pkt == nil || item.pkt.pooled {
			report(name+".queue_pooled", "queued packet is nil or parked in the free-list")
			break
		}
	}
}

// digestInto hashes the transmitter's externally observable state.
func (x *transmitter) digestInto(d *check.Digest) {
	d.I64(int64(x.rate))
	d.I64(x.offered)
	d.I64(x.delivered)
	d.I64(x.propInFlight)
	d.I64(x.stats.TxPackets)
	d.I64(x.stats.TxBytes)
	d.I64(x.stats.Drops)
	d.I64(x.stats.Corrupted)
	d.Int(x.waiting())
	d.Bool(x.busy)
}

// itoa is strconv.FormatInt(v, 10); the invariant reports build their
// detail strings without fmt to keep this file dependency-light.
func itoa(v int64) string { return strconv.FormatInt(v, 10) }
