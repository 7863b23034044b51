// Package flow implements a fluid (flow-level) model of wired access links.
//
// Instead of serializing every packet through a transmitter, each wired bulk
// transfer is a *flow* with a rate: the capacity of every pipe (one direction
// of one access link) is max-min fair-shared among the flows crossing it, and
// rates are recomputed only when a flow arrives, departs, or a link's
// capacity changes — and at most once per delivery tick, however many flows
// came and went on it. Bytes still move as the protocol
// layers' real packets (TCP segments, BitTorrent messages): a packet enqueued
// on a flow is delivered through the existing netem.Deliver continuation when
// the fluid has pushed its bytes across the bottleneck, so everything above
// the medium — TCP, the clients, the filters — runs unchanged.
//
// The win is event count. A wired→wired packet costs five engine events at
// packet fidelity (two serializations, two propagations, one cloud crossing);
// in a fabric's end-to-end mode it costs at most one, and usually much less:
// deliveries are quantized onto a fine calendar grid (Config.Quantum), and
// every packet due on one tick — across all streams — drains in a single
// engine event. Wireless and mobile peers always stay packet-level; where a
// flow terminates at such a peer the fabric acts as a boundary adapter,
// handing the packet to the normal cloud + access-medium path after the
// fluid crossing. DESIGN.md §16 derives the model and its validated
// tolerance against packet-level truth.
package flow

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/wp2p/wp2p/internal/check"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/stats"
)

// Config parameterizes a Fabric.
type Config struct {
	// EndToEnd lets a transfer between two fluid hosts cross both access
	// links inside one rate computation and deliver in a single event,
	// bypassing the cloud-hop scheduling entirely (the partition and route
	// checks the cloud applies run at delivery instead). Only valid on a
	// single-engine world: sharded worlds must leave it false so cross-shard
	// packets keep flowing through the network's migration path, which keeps
	// digests worker-count-invariant.
	EndToEnd bool

	// Quantum coalesces deliveries onto a sim-time grid: each packet lands
	// at its exact crossing + path time rounded UP to the next grid tick, so
	// every delivery due on one tick — across all streams — shares a single
	// engine event, and re-timing a pending delivery after a rate change is
	// a list append instead of heap surgery. Deliveries are late by less
	// than one quantum, never early; determinism is unaffected. Zero selects
	// DefaultQuantum; Exact (any negative value) disables quantization and
	// delivers through per-stream timers at precise times.
	Quantum time.Duration
}

// DefaultQuantum is the delivery grid used when Config.Quantum is zero:
// fine enough to be invisible next to millisecond-scale path delays, coarse
// enough to fold millions of per-packet delivery events into shared ticks.
const DefaultQuantum = 100 * time.Microsecond

// Exact is the Config.Quantum value that disables delivery quantization.
const Exact time.Duration = -1

// Fabric owns every fluid link on one engine (one shard) and the streams
// crossing them. It implements check.Checkable/Digestable and
// registers itself on the engine, so invariant sweeps and determinism
// digests cover the fluid state like any other component.
type Fabric struct {
	engine   *sim.Engine
	net      *netem.Network
	endToEnd bool
	quantum  time.Duration // 0 = exact per-stream delivery timers

	links   map[netem.IP]*Link
	ips     []netem.IP // attach order; sorted on demand for digests
	streams []*stream  // creation order; looked up through Link.to / Link.from

	// dirty is the pipe work-queue of the relaxation wave: pipes whose
	// allocation may be stale are appended and drained FIFO. While a calendar
	// tick drains (draining), recompute only queues its seeds here and one
	// wave runs when the drain ends.
	dirty      []*pipe
	draining   bool
	nextPipeID int

	activeStreams int

	// Packet-conservation ledger: everything offered to the fabric is
	// eventually delivered, dropped, or still queued.
	offered, delivered, dropped int64

	regActive    *stats.Gauge
	regOpened    *stats.Counter
	regUpdates   *stats.Counter
	regDelivered *stats.Counter
	regBytes     *stats.Counter
	regOverflow  *stats.Counter
	regUtil      *stats.Histogram

	onStream []func(StreamEvent)
	dropObs  []func(pkt *netem.Packet, reason netem.DropReason)

	scratch []*stream // waterfill sort scratch
	touched []*stream // streams whose rate moved in the wave in progress

	// flights is the free list of detached flights: never longer than the
	// peak number of streams active at once.
	flights []*flight

	// The delivery calendar (quantized mode): buckets maps a grid tick to
	// the streams due on it. Entries go stale when a stream re-times — the
	// bucket firing skips any stream whose registered tick moved on.
	buckets map[int64]*bucket
	spare   []*bucket // recycled buckets
}

// bucket is one calendar tick: the streams registered on it and the engine
// callback that drains them. Buckets are pooled with the callback bound once,
// so a new tick costs neither a closure nor a list.
type bucket struct {
	fab     *Fabric
	tick    int64
	streams []*stream
	fire    func() // b.drain, bound when the bucket is first allocated
}

// StreamEvent describes a change to one stream, for the flight recorder.
type StreamEvent struct {
	Kind     string // "open", "close", or "rate"
	Src, Dst netem.IP
	Up       bool    // source-side leg (or end-to-end); false = down leg only
	Rate     float64 // bytes/second after the event
}

// maxRelaxVisits bounds the propagated visits of one relaxation wave: pipes
// re-queued because a neighbour's grant moved. Past the seeds the allocation
// is structurally safe at any cut-off (a stream's rate is the min of its
// per-pipe grants, and grants on a pipe never sum above its capacity), so
// stopping early can only leave some rates conservatively low until the next
// recompute refreshes them. The seeds themselves are never cut off: a stream
// that joined a seed pipe holds no grant there yet, and skipping the pipe
// would strand it at rate 0 with no delivery armed.
const maxRelaxVisits = 64

// rateEps is the rate change (bytes/second) below which a new grant is not
// worth propagating to the neighbouring pipe.
const rateEps = 1.0

// byteEps absorbs float rounding when comparing served bytes to packet sizes.
const byteEps = 1e-6

// spareListCap is the largest stream list a drained calendar bucket keeps
// when it goes back to the spare pool; a longer one (a crowd's join tick can
// carry thousands of streams) is dropped rather than held by every tick that
// reuses the bucket.
const spareListCap = 64

// NewFabric builds an empty fabric on the engine and registers it for
// invariant checking and digests.
func NewFabric(engine *sim.Engine, net *netem.Network, cfg Config) *Fabric {
	quantum := cfg.Quantum
	if quantum == 0 {
		quantum = DefaultQuantum
	}
	quantum = max(quantum, 0)
	f := &Fabric{
		engine:   engine,
		net:      net,
		endToEnd: cfg.EndToEnd,
		quantum:  quantum,
		buckets:  make(map[int64]*bucket),
		links:    make(map[netem.IP]*Link),

		regActive:    engine.Stats().Gauge("flow.active"),
		regOpened:    engine.Stats().Counter("flow.streams_opened"),
		regUpdates:   engine.Stats().Counter("flow.rate_updates"),
		regDelivered: engine.Stats().Counter("flow.delivered_packets"),
		regBytes:     engine.Stats().Counter("flow.delivered_bytes"),
		regOverflow:  engine.Stats().Counter("flow.drops.queue_overflow"),
		regUtil:      engine.Stats().Histogram("flow.link_utilization", utilBounds),
	}
	engine.Register(f)
	return f
}

// utilBounds buckets pipe utilization percentages observed at each rate
// recompute — a cardinality-safe stand-in for a per-link utilization lane.
var utilBounds = []int64{10, 25, 50, 75, 90, 100}

// Link is one host's fluid access link: a full-duplex pair of pipes, each
// fair-shared among the streams crossing it. It implements netem.Medium, so
// a host attaches behind it exactly as behind a packet-level AccessLink.
type Link struct {
	fab      *Fabric
	ip       netem.IP
	up, down pipe
	delay    time.Duration
	queueCap int

	// The link's streams by the peer's address: to holds the ones it sends
	// (SendUp, keyed by destination), from the down legs it receives
	// (SendDown, keyed by source).
	to, from map[netem.IP]*stream
}

// NewLink builds a fluid link for the host that will attach at ip. The
// address keys the fabric's destination map for end-to-end streams; fluid
// hosts never rebind (mobility requires packet fidelity), so the key is
// stable for the life of the world. Zero QueueCap selects
// netem.DefaultQueueCap.
func (f *Fabric) NewLink(ip netem.IP, cfg netem.AccessLinkConfig) *Link {
	if _, ok := f.links[ip]; ok {
		panic(fmt.Sprintf("flow: link for %s already exists", ip))
	}
	if cfg.UpRate <= 0 || cfg.DownRate <= 0 {
		panic("flow: NewLink requires positive rates")
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = netem.DefaultQueueCap
	}
	l := &Link{
		fab: f, ip: ip, delay: cfg.Delay, queueCap: cfg.QueueCap,
		to: make(map[netem.IP]*stream), from: make(map[netem.IP]*stream),
	}
	l.up = pipe{link: l, id: f.nextPipeID, cap: float64(cfg.UpRate)}
	l.down = pipe{link: l, id: f.nextPipeID + 1, cap: float64(cfg.DownRate)}
	f.nextPipeID += 2
	f.links[ip] = l
	f.ips = append(f.ips, ip)
	return l
}

// SetRate changes the link's capacity from now on; streams in flight are
// re-shared immediately (this is one of the three rate-recompute triggers).
// A zero direction keeps its current rate.
func (l *Link) SetRate(up, down netem.Rate) {
	changed := false
	if up > 0 {
		l.up.cap = float64(up)
		changed = true
	}
	if down > 0 {
		l.down.cap = float64(down)
		changed = true
	}
	if changed {
		l.fab.recompute(&l.up, &l.down)
	}
}

// SendUp accepts a packet leaving the host (netem.Medium). If the fabric
// runs end to end and the destination is fluid too, the packet joins a
// stream crossing both access pipes and the deliver continuation is ignored
// in favour of direct delivery; otherwise it joins an up-leg stream and the
// continuation (the Network) carries it onward after the crossing.
func (l *Link) SendUp(pkt *netem.Packet, deliver netem.Deliver) {
	f := l.fab
	var down *pipe
	path := l.delay
	end := false
	if f.endToEnd {
		if dl, ok := f.links[pkt.Dst.IP]; ok {
			down = &dl.down
			end = true
			// The cloud delay (and its jitter draw) is folded into the single
			// delivery event; drawing at enqueue keeps RNG consumption
			// independent of when rates are recomputed.
			path += f.net.PathDelay(pkt.Src.IP, pkt.Dst.IP) + dl.delay
		}
	}
	f.enqueue(l.to, pkt.Dst.IP, &l.up, down, pkt, deliver, path, end)
}

// SendDown accepts a packet arriving from the cloud (netem.Medium): the
// boundary adapter's second half, used when the source was not fluid (or the
// world is sharded). The continuation is the destination interface.
func (l *Link) SendDown(pkt *netem.Packet, deliver netem.Deliver) {
	l.fab.enqueue(l.from, pkt.Src.IP, nil, &l.down, pkt, deliver, l.delay, false)
}

// OnStream registers an observer for stream lifecycle and rate events.
// Observers chain in registration order; pass nil to remove all.
func (f *Fabric) OnStream(fn func(StreamEvent)) {
	if fn == nil {
		f.onStream = nil
		return
	}
	f.onStream = append(f.onStream, fn)
}

// OnDrop registers an observer for packets the fabric discards (queue
// overflow). Observers chain in registration order; pass nil to remove all.
func (f *Fabric) OnDrop(fn func(pkt *netem.Packet, reason netem.DropReason)) {
	if fn == nil {
		f.dropObs = nil
		return
	}
	f.dropObs = append(f.dropObs, fn)
}

// pipe is one direction of one fluid link.
type pipe struct {
	link    *Link
	id      int // allocation order; tiebreak for deterministic waterfill
	cap     float64
	streams []*stream // active streams crossing, in arrival order
	backlog int       // enqueued, undelivered packets
	inDirty bool
}

// streamKey identifies a stream: the address pair plus which leg of the
// boundary it models (an up leg and a down leg of the same pair coexist on a
// sharded fabric when both hosts share a shard).
type streamKey struct {
	src, dst netem.IP
	up       bool
}

// flowPkt is one packet riding a stream.
type flowPkt struct {
	pkt     *netem.Packet
	deliver netem.Deliver // post-crossing continuation (nil for end-to-end)
	path    time.Duration // post-crossing latency folded into the delivery
	size    float64
	end     bool
	crossAt time.Duration // when the fluid finished this packet (once crossed)
}

// stream is one (src, dst, leg) transfer: a FIFO of packets drained at the
// max-min fair rate. A firing (from the delivery calendar, or the per-stream
// timer in exact mode) drains every packet whose delivery time has been
// reached. An idle stream keeps only its identity, delivery clamp and
// (zeroed) grants: the queue, frontier and calendar tick of a transfer in
// progress live in its flight, attached on activation and returned to the
// fabric's free list on deactivation.
type stream struct {
	fab      *Fabric
	key      streamKey
	up, down *pipe // crossed pipes (nil where the leg does not apply)
	*flight        // nil while idle

	// The grants and rate stay here, not in the flight: a waterfill reads
	// them for every stream sharing the pipe, and keeping them beside up and
	// down spares that loop a second pointer per stream.
	grantUp, grantDown float64 // per-pipe fair shares; +Inf for absent pipes
	rate               float64 // min of the grants, bytes/second

	lastDeliver time.Duration // monotone delivery clamp
	timer       *sim.Timer    // exact mode only; nil when quantized
	active      bool
	armPending  bool // queued on Fabric.touched for one arm at wave end
}

// flight is the state only an active stream uses.
type flight struct {
	// q[head:] is the live FIFO; the delivered prefix is reused in place
	// (compacted before a growing append) so steady-state traffic enqueues
	// without reallocating. The array stays with the flight across streams.
	q    []flowPkt
	head int

	// Lazy crossing frontier: the first `crossed` packets of q have finished
	// their fluid crossing (crossAt recorded exactly, piecewise-linear in the
	// rate history) and await delivery; partial is the bytes of q[crossed]
	// already across. The frontier advances in settle, which runs before
	// every rate change — so crossing times are exact, idle capacity while
	// the queue is fully crossed accrues nothing, and computation stays
	// O(packets), not O(recomputes × packets).
	crossed int
	partial float64
	lastT   time.Duration

	tick int64 // registered calendar tick; -1 = unarmed
}

// qLen is the live queue length (zero while idle).
func (s *stream) qLen() int {
	if s.flight == nil {
		return 0
	}
	return len(s.q) - s.head
}

// enqueue admits a packet to its stream — found in (or added to) the link's
// per-peer map — activating the stream (a flow arrival, triggering a rate
// recompute) when its queue was empty.
func (f *Fabric) enqueue(streams map[netem.IP]*stream, peer netem.IP, up, down *pipe, pkt *netem.Packet, deliver netem.Deliver, path time.Duration, end bool) {
	f.offered++
	if (up != nil && up.backlog >= up.link.queueCap) ||
		(down != nil && down.backlog >= down.link.queueCap) {
		f.dropped++
		f.regOverflow.Inc()
		for _, fn := range f.dropObs {
			fn(pkt, netem.DropQueueOverflow)
		}
		pkt.Release()
		return
	}
	s := streams[peer]
	if s == nil {
		key := streamKey{src: pkt.Src.IP, dst: pkt.Dst.IP, up: up != nil}
		s = &stream{fab: f, key: key, up: up, down: down}
		if f.quantum <= 0 {
			s.timer = sim.NewTimer(f.engine, s.fire)
		}
		streams[peer] = s
		f.streams = append(f.streams, s)
	}
	if s.up != up || s.down != down {
		panic("flow: stream re-opened across different pipes")
	}
	if s.active {
		// Advance the frontier first: the new packet's crossing starts at its
		// arrival, not at wherever the previous one finished in the past.
		s.settle(f.engine.Now())
	} else {
		f.attach(s)
	}
	if s.head > 0 && len(s.q) == cap(s.q) {
		// Reclaim the delivered prefix instead of growing the backing array.
		n := copy(s.q, s.q[s.head:])
		s.q = s.q[:n]
		s.head = 0
	}
	s.q = append(s.q, flowPkt{pkt: pkt, deliver: deliver, path: path, size: float64(pkt.Size), end: end})
	if up != nil {
		up.backlog++
	}
	if down != nil {
		down.backlog++
	}
	if !s.active {
		f.activate(s)
	}
}

// attach gives an idle stream a flight from the free list (or a new one),
// reset to an empty queue, no grants, zero rate and no calendar tick.
func (f *Fabric) attach(s *stream) {
	var fl *flight
	if n := len(f.flights); n > 0 {
		fl = f.flights[n-1]
		f.flights = f.flights[:n-1]
	} else {
		fl = new(flight)
	}
	*fl = flight{q: fl.q[:0], lastT: f.engine.Now(), tick: -1}
	s.flight = fl
	s.grantUp, s.grantDown = math.Inf(1), math.Inf(1)
	s.rate = 0
}

// activate marks a flow arrival: the stream joins its pipes' sharing sets
// and a relaxation wave re-shares the affected capacity.
func (f *Fabric) activate(s *stream) {
	s.active = true
	if s.up != nil {
		s.up.streams = append(s.up.streams, s)
	}
	if s.down != nil {
		s.down.streams = append(s.down.streams, s)
	}
	f.activeStreams++
	f.regActive.Set(int64(f.activeStreams))
	f.regOpened.Inc()
	f.notify("open", s)
	f.recompute(s.up, s.down)
}

// deactivate marks a flow departure (queue drained), returns the stream's
// flight to the free list and re-shares the capacity it frees.
func (f *Fabric) deactivate(s *stream) {
	s.active = false
	s.disarm()
	removeStream(s.up, s)
	removeStream(s.down, s)
	s.rate, s.grantUp, s.grantDown = 0, 0, 0
	f.activeStreams--
	f.regActive.Set(int64(f.activeStreams))
	f.notify("close", s)
	f.flights = append(f.flights, s.flight)
	s.flight = nil
	f.recompute(s.up, s.down)
}

// removeStream takes s out of p's sharing set, clearing the slot it vacates
// so the pipe's array holds no stale stream.
func removeStream(p *pipe, s *stream) {
	if p == nil {
		return
	}
	for i, t := range p.streams {
		if t == s {
			last := len(p.streams) - 1
			copy(p.streams[i:], p.streams[i+1:])
			p.streams[last] = nil
			p.streams = p.streams[:last]
			return
		}
	}
}

func (f *Fabric) notify(kind string, s *stream) {
	if len(f.onStream) == 0 {
		return
	}
	ev := StreamEvent{Kind: kind, Src: s.key.src, Dst: s.key.dst, Up: s.key.up, Rate: s.rate}
	for _, fn := range f.onStream {
		fn(ev)
	}
}

// recompute marks the seed pipes stale on a flow arrival, departure or
// capacity change — the fluid model's only rate triggers — and re-shares
// them at once, unless a calendar tick is draining: everything a drain does
// (each delivery, the departure it causes, the arrival of the ACK or next
// segment it provokes) happens at one sim instant, so rates in between would
// hold for zero time and move no fluid. The drain runs one wave at its end.
//
// Σ rates ≤ capacity holds on every pipe while the wave is held: an arrival
// starts at rate 0 and a departure only removes a rate.
func (f *Fabric) recompute(seeds ...*pipe) {
	for _, p := range seeds {
		if p != nil && !p.inDirty {
			p.inDirty = true
			f.dirty = append(f.dirty, p)
		}
	}
	if !f.draining {
		f.relax()
	}
}

// relax runs one relaxation wave: the stale pipes re-share their capacity,
// and any stream whose rate changed marks its other pipe stale, until the
// wave settles (or its propagated visits hit the bound).
func (f *Fabric) relax() {
	if len(f.dirty) == 0 {
		return
	}
	now := f.engine.Now()
	limit := len(f.dirty) + maxRelaxVisits
	for i := 0; i < len(f.dirty) && i < limit; i++ {
		p := f.dirty[i]
		p.inDirty = false
		f.waterfill(p, now)
	}
	for _, p := range f.dirty {
		p.inDirty = false
	}
	f.dirty = f.dirty[:0]
	// One arm per stream the wave touched: a stream crossing two recomputed
	// pipes re-times its delivery once, not once per grant.
	for i, s := range f.touched {
		s.armPending = false
		if s.active {
			s.arm(now)
		}
		f.touched[i] = nil
	}
	f.touched = f.touched[:0]
}

// waterfill computes the capped max-min fair allocation of one pipe. The
// fixpoint: streams externally bottlenecked below the water level keep their
// other-pipe grant, everyone else shares a common level — so an externally
// capped stream's unused share waterfalls to the rest (max-min, not equal
// split). It is found without sorting: repeated passes cap every stream
// whose external grant sits below the current fair share and raise the share
// for the survivors, converging in a pass or two on real workloads — much
// cheaper than an O(n log n) comparison sort on wide pipes (a tracker's
// access link carries hundreds of concurrent announce flows). Passes scan in
// arrival order, so the float arithmetic runs in a deterministic order and
// allocations are identical across runs and worker counts.
func (f *Fabric) waterfill(p *pipe, now time.Duration) {
	f.regUpdates.Inc()
	n := len(p.streams)
	if n == 0 {
		return
	}
	// Uniform fast path: when no stream is capped below the equal share by
	// its other pipe — the common case on the pipe that IS the bottleneck —
	// everyone gets exactly cap/n and the pass loop is skipped.
	fair := p.cap / float64(n)
	uniform := true
	for _, s := range p.streams {
		if otherGrant(s, p) < fair {
			uniform = false
			break
		}
	}
	remaining := p.cap
	if uniform {
		for _, s := range p.streams {
			f.setGrant(s, p, fair, now)
		}
		remaining = 0
	} else {
		scr := append(f.scratch[:0], p.streams...)
		left := len(scr)
		for left > 0 {
			fair := remaining / float64(left)
			kept := scr[:0]
			for _, s := range scr {
				if g := otherGrant(s, p); g < fair {
					remaining -= g
					left--
					f.setGrant(s, p, g, now)
				} else {
					kept = append(kept, s)
				}
			}
			if len(kept) == len(scr) { // level stable: grant it to the rest
				for _, s := range kept {
					f.setGrant(s, p, fair, now)
				}
				remaining = 0
				break
			}
			scr = kept
		}
		f.scratch = scr[:0]
	}
	if p.cap > 0 {
		f.regUtil.Observe(int64((p.cap - remaining) / p.cap * 100))
	}
}

// otherGrant is the stream's fair share on the pipe other than p — its
// external cap from p's point of view (+Inf when the stream crosses only p).
func otherGrant(s *stream, p *pipe) float64 {
	if p == s.up {
		return s.grantDown
	}
	return s.grantUp
}

// setGrant records a stream's share on pipe p. The stream's rate is always
// the exact min of its grants (which keeps Σ rates ≤ capacity tight); when
// it moves, the fluid served so far settles at the old rate and the delivery
// timer re-arms. Only moves beyond rateEps propagate the wave to the
// stream's other pipe — sub-epsilon refinements are not worth re-sharing the
// neighbourhood over.
func (f *Fabric) setGrant(s *stream, p *pipe, g float64, now time.Duration) {
	var other *pipe
	if p == s.up {
		s.grantUp = g
		other = s.down
	} else {
		s.grantDown = g
		other = s.up
	}
	newRate := s.grantUp
	if s.grantDown < newRate {
		newRate = s.grantDown
	}
	if newRate == s.rate {
		return
	}
	d := newRate - s.rate
	s.settle(now)
	s.rate = newRate
	if !s.armPending {
		s.armPending = true
		f.touched = append(f.touched, s)
	}
	if d < rateEps && d > -rateEps {
		return
	}
	f.notify("rate", s)
	if other != nil && !other.inDirty {
		other.inDirty = true
		f.dirty = append(f.dirty, other)
	}
}

// settle advances the crossing frontier to now at the current rate,
// recording the exact crossing time of every packet the fluid finished. It
// runs before every rate change and every enqueue, so each segment of a
// packet's crossing is integrated at the rate that actually held.
func (s *stream) settle(now time.Duration) {
	if now <= s.lastT {
		return
	}
	if s.rate > 0 {
		t := s.lastT
		for s.head+s.crossed < len(s.q) {
			p := &s.q[s.head+s.crossed]
			dt := time.Duration((p.size - s.partial) / s.rate * float64(time.Second))
			if t+dt > now {
				s.partial += s.rate * float64(now-t) / float64(time.Second)
				break
			}
			t += dt
			p.crossAt = t
			s.crossed++
			s.partial = 0
			// A crossed packet is on the wire, not in the queue: it stops
			// counting against the drop-tail cap, exactly like a packet
			// link's queue releasing a slot when serialization completes.
			if s.up != nil {
				s.up.backlog--
			}
			if s.down != nil {
				s.down.backlog--
			}
		}
	}
	s.lastT = now
}

// deliverTime computes when the head packet completes: its crossing time —
// exact if the frontier already passed it, projected at the current rate
// otherwise — plus its path delay, clamped monotone against the previous
// delivery. ok is false when the stream is stalled (zero rate with bytes
// still to cross).
func (s *stream) deliverTime(head *flowPkt, now time.Duration) (at time.Duration, ok bool) {
	var tc time.Duration
	switch {
	case s.crossed > 0:
		tc = head.crossAt
	case s.partial >= head.size-byteEps:
		tc = now
	case s.rate <= 0:
		return 0, false
	default:
		tc = now + time.Duration((head.size-s.partial)/s.rate*float64(time.Second))
	}
	return max(tc+head.path, s.lastDeliver, now), true
}

// arm schedules the next delivery. It never delivers inline — a zero delay
// still goes through the engine — so rate recomputes can safely re-arm
// streams from any call path.
func (s *stream) arm(now time.Duration) {
	if s.qLen() == 0 {
		s.disarm()
		return
	}
	at, ok := s.deliverTime(&s.q[s.head], now)
	if !ok {
		s.disarm()
		return
	}
	s.rearm(at, now)
}

// rearm points the stream's next firing at the delivery time at. Quantized
// fabrics register on the calendar tick covering at; exact fabrics reset the
// per-stream timer, skipping the heap traffic when the time didn't move (an
// already-crossed head outlives any rate change, say).
func (s *stream) rearm(at, now time.Duration) {
	f := s.fab
	if f.quantum <= 0 {
		if w, armed := s.timer.When(); armed && w == at {
			return
		}
		s.timer.Reset(at - now)
		return
	}
	tick := (int64(at) + int64(f.quantum) - 1) / int64(f.quantum)
	if s.tick == tick {
		return
	}
	s.tick = tick
	f.schedule(tick, s)
}

// disarm cancels the pending firing. In quantized mode any calendar entry is
// left to expire as a stale no-op — removal would cost more than the skip.
func (s *stream) disarm() {
	if s.fab.quantum <= 0 {
		s.timer.Stop()
		return
	}
	s.tick = -1
}

// schedule registers a stream on a calendar tick, creating the bucket — and
// its single engine event — if this tick has no deliveries yet.
func (f *Fabric) schedule(tick int64, s *stream) {
	b := f.buckets[tick]
	if b == nil {
		if n := len(f.spare); n > 0 {
			b = f.spare[n-1]
			f.spare = f.spare[:n-1]
		} else {
			b = &bucket{fab: f}
			b.fire = b.drain
		}
		b.tick = tick
		f.buckets[tick] = b
		f.engine.ScheduleAt(time.Duration(tick)*f.quantum, b.fire)
	}
	b.streams = append(b.streams, s)
}

// drain fires one calendar tick: every stream still registered on it fires;
// entries whose stream re-timed or drained since are stale and skip. The
// flow arrivals and departures this causes only mark their pipes stale; one
// relaxation wave re-shares them all when the list is done. The bucket is
// unhooked first, so a stream that becomes due again at this same instant (a
// zero-latency re-arm by that wave) opens a fresh bucket and a fresh
// same-instant event rather than mutating the list mid-walk.
func (b *bucket) drain() {
	f := b.fab
	delete(f.buckets, b.tick)
	f.draining = true
	for i, s := range b.streams {
		if s.active && s.tick == b.tick {
			s.fire()
		}
		b.streams[i] = nil
	}
	f.draining = false
	f.relax()
	b.streams = b.streams[:0]
	if cap(b.streams) > spareListCap {
		b.streams = nil
	}
	f.spare = append(f.spare, b)
}

// fire drains every packet whose delivery time has been reached — this
// batching is what makes a burst of segments cost one event instead of one
// each — then re-arms for the next head or retires the flow.
func (s *stream) fire() {
	f := s.fab
	now := f.engine.Now()
	s.settle(now)
	for s.qLen() > 0 {
		at, ok := s.deliverTime(&s.q[s.head], now)
		if !ok {
			s.disarm()
			return
		}
		if at > now {
			s.rearm(at, now)
			return
		}
		head := s.q[s.head]
		s.q[s.head] = flowPkt{}
		s.head++
		if s.crossed > 0 {
			// Backlog was released when the frontier crossed this packet.
			s.crossed--
		} else {
			// Delivered off the partial account (within byteEps of done)
			// without a frontier advance: release its backlog slot here.
			s.partial = 0
			if s.up != nil {
				s.up.backlog--
			}
			if s.down != nil {
				s.down.backlog--
			}
		}
		s.lastDeliver = now
		f.delivered++
		f.regDelivered.Inc()
		f.regBytes.Add(int64(head.pkt.Size))
		f.deliverPkt(head)
	}
	f.deactivate(s)
}

// deliverPkt completes a packet's journey. Boundary legs hand it to the
// stored continuation (the Network for an up leg, the destination interface
// for a down leg). End-to-end packets replicate the cloud crossing's
// terminal checks — partition, then route — and land directly on the
// destination interface, which applies its own moved-address check.
func (f *Fabric) deliverPkt(p flowPkt) {
	if !p.end {
		p.deliver.Deliver(p.pkt)
		return
	}
	pkt := p.pkt
	if f.net.PairBlocked(pkt.Src.IP, pkt.Dst.IP) {
		f.net.AccountDrop(pkt, netem.DropPartitioned)
		pkt.Release()
		return
	}
	dst := f.net.Lookup(pkt.Dst.IP)
	if dst == nil {
		f.net.AccountDrop(pkt, netem.DropNoRoute)
		pkt.Release()
		return
	}
	f.net.CountRouted()
	dst.Deliver(pkt)
}

// CheckState audits the fabric (check.Checkable): a flight on exactly the
// active streams, each with a non-empty queue, capacity conservation
// (Σ stream rates on a pipe ≤ its capacity), non-negative rates, fluid
// accounts within their queues, backlog/queue agreement, and the packet
// ledger.
func (f *Fabric) CheckState(report func(invariant, detail string)) {
	var queued int64
	for _, ip := range f.sortedIPs() {
		l := f.links[ip]
		checkPipe(&l.up, "up", report)
		checkPipe(&l.down, "down", report)
	}
	for _, s := range f.streams {
		if s.flight == nil {
			if s.active {
				report("flow.stream_active", fmt.Sprintf("stream %s→%s active without a flight", s.key.src, s.key.dst))
			}
			continue
		}
		n := s.qLen()
		queued += int64(n)
		if !s.active || n == 0 {
			report("flow.stream_active", fmt.Sprintf("stream %s→%s active=%v holds a flight with %d queued", s.key.src, s.key.dst, s.active, n))
		}
		if s.rate < 0 {
			report("flow.rate_sign", fmt.Sprintf("stream %s→%s has negative rate %g", s.key.src, s.key.dst, s.rate))
		}
		if s.crossed < 0 || s.crossed > n {
			report("flow.frontier", fmt.Sprintf("stream %s→%s frontier %d outside its %d-packet queue", s.key.src, s.key.dst, s.crossed, n))
		}
		if s.partial < -byteEps || (s.crossed < n && s.partial > s.q[s.head+s.crossed].size+byteEps) {
			report("flow.partial_bounds", fmt.Sprintf("stream %s→%s partial %g outside its packet", s.key.src, s.key.dst, s.partial))
		}
	}
	if f.offered != f.delivered+f.dropped+queued {
		report("flow.conservation", fmt.Sprintf("offered %d != delivered %d + dropped %d + queued %d", f.offered, f.delivered, f.dropped, queued))
	}
}

func checkPipe(p *pipe, dir string, report func(invariant, detail string)) {
	var sum float64
	var backlog int
	for _, s := range p.streams {
		sum += s.rate
		backlog += s.qLen() - s.crossed
	}
	if sum > p.cap*(1+1e-9)+0.5 {
		report("flow.capacity", fmt.Sprintf("link %s %s: Σ rates %g exceeds capacity %g", p.link.ip, dir, sum, p.cap))
	}
	if backlog != p.backlog {
		report("flow.backlog", fmt.Sprintf("link %s %s: backlog %d != %d queued across streams", p.link.ip, dir, p.backlog, backlog))
	}
}

// DigestInto hashes the fabric state (check.Digestable) in a canonical
// order, so fluid-vs-packet (or worker-count) divergence localizes with
// `wp2p bisect` like any other layer.
func (f *Fabric) DigestInto(d *check.Digest) {
	d.Str("flow.Fabric")
	d.I64(f.offered)
	d.I64(f.delivered)
	d.I64(f.dropped)
	d.Int(f.activeStreams)
	ips := f.sortedIPs()
	d.Int(len(ips))
	for _, ip := range ips {
		l := f.links[ip]
		d.U64(uint64(ip))
		d.F64(l.up.cap)
		d.F64(l.down.cap)
		d.Int(l.up.backlog)
		d.Int(l.down.backlog)
	}
	active := make([]*stream, 0, f.activeStreams)
	for _, s := range f.streams {
		if s.active {
			active = append(active, s)
		}
	}
	sort.Slice(active, func(i, j int) bool {
		a, b := active[i].key, active[j].key
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return a.up && !b.up
	})
	for _, s := range active {
		k := s.key
		d.U64(uint64(k.src))
		d.U64(uint64(k.dst))
		d.Bool(k.up)
		d.Int(s.qLen())
		d.F64(s.rate)
		d.Int(s.crossed)
		d.F64(s.partial)
		d.I64(int64(s.lastDeliver))
	}
}

func (f *Fabric) sortedIPs() []netem.IP {
	sort.Slice(f.ips, func(i, j int) bool { return f.ips[i] < f.ips[j] })
	return f.ips
}
