package netem

import (
	"fmt"
	"sort"
	"time"

	"github.com/wp2p/wp2p/internal/check"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/stats"
)

// Network routes packets between host interfaces through a cloud with
// configurable propagation delay. Access media model the bottlenecks; the
// cloud core is uncongested, matching the paper's testbed where access links
// and the WLAN are the constrained legs.
type Network struct {
	engine     *sim.Engine
	ifaces     map[IP]*Iface
	cloudDelay time.Duration
	jitter     time.Duration
	pairDelay  map[ipPair]time.Duration
	blocked    map[ipPair]bool
	// dropObs observe every blackholed packet, in registration order.
	dropObs []func(pkt *Packet, reason DropReason)

	pool *PacketPool

	// gen stamps routeCache entries; any topology change (attach, detach,
	// rebind, partition) bumps it, invalidating the whole cache in O(1).
	// It starts at 1 so the zero-valued cache never matches.
	gen        uint32
	routeCache [routeCacheSize]routeEntry

	// hopFree recycles the cloud-crossing continuations scheduled by Deliver,
	// so routing a packet across the core allocates nothing in steady state.
	// cloudLane is the engine's lane for cloudDelay: a crossing that neither
	// jitter nor a pair override moves off that delay skips the event heap.
	hopFree   *cloudHop
	cloudLane *sim.Lane

	// Sharded-world plumbing (nil/zero on a single-engine network). dir maps
	// addresses to shards, fabric carries cross-shard deliveries, peers holds
	// every shard's network indexed by shard id, and lookahead is the
	// fabric's window bound — the floor every cross-shard delay must respect.
	dir       *Directory
	shard     int32
	fabric    *sim.ShardedEngine
	peers     []*Network
	lookahead time.Duration

	regRouted      *stats.Counter
	regNoRoute     *stats.Counter
	regPartitioned *stats.Counter
}

// routeCacheSize is the number of direct-mapped route-cache slots, indexed
// by the low byte of the destination IP. Hosts get sequential addresses from
// the allocator, so collisions are rare below 256 hosts and harmless above.
const routeCacheSize = 256

// routeEntry caches one ifaces lookup; valid only while gen matches the
// network's current generation.
type routeEntry struct {
	ip  IP
	gen uint32
	ifc *Iface
}

// ipPair is an unordered address pair.
type ipPair struct{ lo, hi IP }

func pairOf(a, b IP) ipPair {
	if a > b {
		a, b = b, a
	}
	return ipPair{lo: a, hi: b}
}

// NetworkConfig parameterizes a Network.
type NetworkConfig struct {
	// CloudDelay is the one-way propagation across the core between any two
	// access media (default 20 ms). Per-pair overrides via SetPairDelay.
	CloudDelay time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) to every cloud
	// crossing. Jitter can reorder packets — transports must cope, exactly
	// as on the real Internet.
	Jitter time.Duration
}

// DefaultCloudDelay is the core one-way delay used when CloudDelay is zero.
const DefaultCloudDelay = 20 * time.Millisecond

// NewNetwork builds an empty network on the engine.
func NewNetwork(engine *sim.Engine, cfg NetworkConfig) *Network {
	if cfg.CloudDelay == 0 {
		cfg.CloudDelay = DefaultCloudDelay
	}
	n := &Network{
		engine:         engine,
		ifaces:         make(map[IP]*Iface),
		cloudDelay:     cfg.CloudDelay,
		jitter:         cfg.Jitter,
		pairDelay:      make(map[ipPair]time.Duration),
		blocked:        make(map[ipPair]bool),
		pool:           newPacketPool(engine.Stats()),
		cloudLane:      engine.Lane(cfg.CloudDelay),
		gen:            1,
		regRouted:      engine.Stats().Counter("netem.packets_routed"),
		regNoRoute:     engine.Stats().Counter("netem.drops.no_route"),
		regPartitioned: engine.Stats().Counter("netem.drops.partitioned"),
	}
	engine.Register(n)
	return n
}

// EnableSharding wires this network into a sharded world as shard's slice of
// it: addresses attach into the shared directory, and packets whose
// destination lives on another shard hand off at the transmit boundary via
// the fabric's inject queues. peers must hold every shard's network, indexed
// by shard id. Must be called before any interface attaches; the caller also
// registers dir.Apply as a barrier hook (once, not per shard).
func (n *Network) EnableSharding(fabric *sim.ShardedEngine, shard int, dir *Directory, peers []*Network) {
	if len(n.ifaces) > 0 {
		panic("netem: EnableSharding after interfaces attached")
	}
	if fabric.Lookahead() <= 0 {
		panic("netem: sharded network needs a positive lookahead")
	}
	if n.cloudDelay < fabric.Lookahead() {
		panic(fmt.Sprintf("netem: cloud delay %v below the fabric lookahead %v — cross-shard deliveries would violate the barrier bound", n.cloudDelay, fabric.Lookahead()))
	}
	n.dir = dir
	n.shard = int32(shard)
	n.fabric = fabric
	n.peers = peers
	n.lookahead = fabric.Lookahead()
}

// SetPairDelay overrides the core one-way delay between two addresses
// (unordered). It keys on the hosts' current addresses; a handoff to a new
// address reverts the pair to the default delay, as moving to a new access
// point would. In a sharded world the override must stay at or above the
// fabric lookahead — the barrier protocol's safety bound — and construction
// panics otherwise (the zero-latency-adjacent-shards deadlock, caught here
// instead of hung at a barrier).
func (n *Network) SetPairDelay(a, b IP, d time.Duration) {
	if n.dir != nil && d < n.lookahead {
		panic(fmt.Sprintf("netem: pair delay %v below the shard lookahead %v would let a packet arrive behind the barrier", d, n.lookahead))
	}
	n.pairDelay[pairOf(a, b)] = d
}

// SetPairBlocked partitions (or heals, with blocked=false) the core between
// two addresses: packets between them are dropped with DropPartitioned while
// the block holds, in either direction. Like SetPairDelay it keys on the
// hosts' current addresses, so a handoff to a fresh address escapes the
// partition — moving to a new access network would.
func (n *Network) SetPairBlocked(a, b IP, blocked bool) {
	n.gen++
	if blocked {
		n.blocked[pairOf(a, b)] = true
		return
	}
	delete(n.blocked, pairOf(a, b))
}

// PairBlocked reports whether the pair is currently partitioned.
func (n *Network) PairBlocked(a, b IP) bool { return n.blocked[pairOf(a, b)] }

// delayFor returns the core delay for one crossing.
func (n *Network) delayFor(src, dst IP) time.Duration {
	d := n.cloudDelay
	if len(n.pairDelay) > 0 {
		if pd, ok := n.pairDelay[pairOf(src, dst)]; ok {
			d = pd
		}
	}
	if n.jitter > 0 {
		d += time.Duration(n.engine.Rand().Int63n(int64(n.jitter)))
	}
	return d
}

// PathDelay returns the core one-way delay for one src→dst crossing,
// consuming a jitter draw when jitter is configured — the same computation a
// cloud hop uses. Exported for the flow fabric, which folds the cloud
// crossing into a fluid stream's single delivery event.
func (n *Network) PathDelay(src, dst IP) time.Duration { return n.delayFor(src, dst) }

// Lookup resolves a destination address to its attached interface (nil when
// unbound), through the route cache. Exported for the flow fabric's direct
// end-to-end deliveries.
func (n *Network) Lookup(ip IP) *Iface { return n.lookup(ip) }

// AccountDrop records a blackholed packet on this network's drop counters
// and observers, for media (the flow fabric) that perform the cloud's
// terminal checks themselves. The caller still owns — and must release —
// the packet.
func (n *Network) AccountDrop(pkt *Packet, reason DropReason) { n.drop(pkt, reason) }

// CountRouted increments the routed-packet counter, keeping
// netem.packets_routed meaningful for deliveries that bypass the cloud hop.
func (n *Network) CountRouted() { n.regRouted.Inc() }

// NewPacket draws a zeroed packet from the network's free-list. See
// PacketPool for the ownership contract.
func (n *Network) NewPacket() *Packet { return n.pool.Get() }

// Iface is a host's attachment to the network. All of the host's traffic
// enters and leaves through its interface; egress and ingress filters can
// observe and rewrite it (wP2P's AM component is an egress filter).
type Iface struct {
	net     *Network
	ip      IP
	medium  Medium
	handler Handler
	egress  []Filter
	ingress []Filter
	stats   Stats

	// Reusable backing arrays for the filter walk, one pair per direction.
	// Egress and ingress need separate scratch because a handler invoked from
	// the ingress walk sends replies synchronously (tcp ACKs), re-entering
	// the egress walk while ingress scratch is still live. Same-direction
	// re-entry cannot happen: deliveries are always scheduled, never inline.
	egScratch filterScratch
	inScratch filterScratch
}

type filterScratch struct{ cur, next []*Packet }

// Attach binds a new interface with address ip to the given access medium.
// It panics if the address is already bound, which is always a scenario
// construction bug.
func (n *Network) Attach(ip IP, medium Medium, handler Handler) *Iface {
	if _, ok := n.ifaces[ip]; ok {
		panic(fmt.Sprintf("netem: address %s already attached", ip))
	}
	if medium == nil {
		panic("netem: Attach with nil medium")
	}
	ifc := &Iface{net: n, ip: ip, medium: medium, handler: handler}
	n.ifaces[ip] = ifc
	n.gen++
	if n.dir != nil {
		n.dir.record(n.shard, ip)
	}
	return ifc
}

// Detach unbinds the interface; packets to its address are blackholed until
// it is re-bound.
func (n *Network) Detach(ifc *Iface) {
	if n.ifaces[ifc.ip] == ifc {
		delete(n.ifaces, ifc.ip)
		n.gen++
	}
}

// Reattach restores a previously detached interface under its current
// address — the end of a disconnection. It panics if the address was taken
// in the meantime.
func (n *Network) Reattach(ifc *Iface) {
	if cur, ok := n.ifaces[ifc.ip]; ok {
		if cur == ifc {
			return
		}
		panic(fmt.Sprintf("netem: address %s already attached", ifc.ip))
	}
	n.ifaces[ifc.ip] = ifc
	n.gen++
}

// Attached reports whether the interface is currently routable.
func (n *Network) Attached(ifc *Iface) bool { return n.ifaces[ifc.ip] == ifc }

// Rebind moves the interface to a new address — the network-level view of a
// handoff. In-flight and future packets to the old address are blackholed.
// It panics if the new address is already bound.
func (n *Network) Rebind(ifc *Iface, newIP IP) {
	if newIP == ifc.ip {
		return
	}
	if _, ok := n.ifaces[newIP]; ok {
		panic(fmt.Sprintf("netem: address %s already attached", newIP))
	}
	if n.ifaces[ifc.ip] == ifc {
		delete(n.ifaces, ifc.ip)
	}
	ifc.ip = newIP
	n.ifaces[newIP] = ifc
	n.gen++
	if n.dir != nil {
		n.dir.record(n.shard, newIP)
	}
}

// lookup resolves a destination address through the generation-stamped
// route cache, falling back to the ifaces map on miss. Negative results are
// not cached: a blackholed address stays a map lookup, which is fine — the
// hot path is established flows between attached hosts.
func (n *Network) lookup(ip IP) *Iface {
	e := &n.routeCache[byte(ip)]
	if e.gen == n.gen && e.ip == ip {
		return e.ifc
	}
	ifc, ok := n.ifaces[ip]
	if !ok {
		return nil
	}
	*e = routeEntry{ip: ip, gen: n.gen, ifc: ifc}
	return ifc
}

// OnDrop registers a network-wide observer for blackholed (no-route)
// packets. Observers chain: each call appends, and every registered observer
// sees every drop in registration order. Pass nil to remove all observers.
// Observers must not retain the packet or synchronously send new ones.
func (n *Network) OnDrop(fn func(pkt *Packet, reason DropReason)) {
	if fn == nil {
		n.dropObs = nil
		return
	}
	n.dropObs = append(n.dropObs, fn)
}

// drop reports a blackholed packet to all observers.
func (n *Network) drop(pkt *Packet, reason DropReason) {
	if reason == DropPartitioned {
		n.regPartitioned.Inc()
	} else {
		n.regNoRoute.Inc()
	}
	for _, fn := range n.dropObs {
		fn(pkt, reason)
	}
}

// IP returns the interface's current address.
func (ifc *Iface) IP() IP { return ifc.ip }

// NewPacket draws a zeroed packet from the interface's network pool.
func (ifc *Iface) NewPacket() *Packet { return ifc.net.pool.Get() }

// SetHandler installs the packet consumer for the interface.
func (ifc *Iface) SetHandler(h Handler) { ifc.handler = h }

// AddEgressFilter appends a filter applied to packets leaving the host,
// before they reach the access medium.
func (ifc *Iface) AddEgressFilter(f Filter) { ifc.egress = append(ifc.egress, f) }

// AddIngressFilter appends a filter applied to packets arriving from the
// access medium, before the handler sees them.
func (ifc *Iface) AddIngressFilter(f Filter) { ifc.ingress = append(ifc.ingress, f) }

// Send transmits a packet from this host, transferring ownership to the data
// path. The packet's Src is stamped with the interface's current address if
// unset.
func (ifc *Iface) Send(pkt *Packet) {
	if pkt.Src.IP == 0 {
		pkt.Src.IP = ifc.ip
	}
	for _, out := range ifc.applyFilters(ifc.egress, pkt, &ifc.egScratch) {
		ifc.stats.TxPackets++
		ifc.stats.TxBytes += int64(out.Size)
		ifc.medium.SendUp(out, ifc.net)
	}
}

// cloudHop is a pooled continuation for one cloud crossing: fn is bound once
// when the struct is allocated, so Deliver schedules without a closure.
type cloudHop struct {
	n    *Network
	pkt  *Packet
	next *cloudHop
	fn   func()
	gen  uint32 // pkt's generation when the crossing was scheduled
}

// Deliver receives a packet that has crossed the sender's access medium and
// forwards it across the core to the destination's access medium. It is the
// up-side continuation every medium gets from Iface.Send.
//
// In a sharded world this is the transmit boundary: a destination the
// directory places on another shard is handed to the fabric here, before any
// shard-local scheduling. Destinations the directory does not know (attached
// since the last barrier on a remote shard, or simply nonexistent) fall
// through to the local path, where the interface map settles it — a local
// host routes normally, anything else blackholes with DropNoRoute.
func (n *Network) Deliver(pkt *Packet) {
	if n.dir != nil {
		if ds, ok := n.dir.Shard(pkt.Dst.IP); ok && ds != n.shard {
			n.deliverRemote(pkt, ds)
			return
		}
	}
	h := n.hopFree
	if h != nil {
		n.hopFree = h.next
	} else {
		h = &cloudHop{n: n}
		h.fn = h.run
	}
	h.pkt = pkt
	h.gen = pkt.gen
	// delayFor runs for every packet, so jitter draws keep their place in
	// the random stream; only a crossing of exactly cloudDelay is a lane event.
	if d := n.delayFor(pkt.Src.IP, pkt.Dst.IP); d != n.cloudDelay {
		n.engine.Schedule(d, h.fn)
		return
	}
	n.cloudLane.Schedule(h.fn)
}

func (h *cloudHop) run() {
	n, pkt, gen := h.n, h.pkt, h.gen
	h.pkt = nil
	h.next = n.hopFree
	n.hopFree = h
	if pkt.pooled || pkt.gen != gen {
		panic("netem: packet recycled while crossing the cloud (use-after-release)")
	}
	if len(n.blocked) > 0 && n.blocked[pairOf(pkt.Src.IP, pkt.Dst.IP)] {
		n.drop(pkt, DropPartitioned)
		pkt.Release()
		return
	}
	dst := n.lookup(pkt.Dst.IP)
	if dst == nil {
		n.drop(pkt, DropNoRoute)
		pkt.Release()
		return
	}
	n.regRouted.Inc()
	dst.medium.SendDown(pkt, dst)
}

// remotePacket is the shard-neutral form of a packet in flight across the
// fabric: plain values plus a migrated payload, with no ties to the sending
// shard's free-lists. Cross-shard traffic pays one closure + payload copy per
// packet — the price of pool isolation; §14 of DESIGN.md discusses the trade.
type remotePacket struct {
	src, dst Addr
	size     int
	payload  any
}

// deliverRemote carries a packet to the shard owning its destination. The
// core delay is computed on the sending shard (so jitter draws stay in the
// sender's RNG stream) and is ≥ the fabric lookahead by the SetPairDelay and
// EnableSharding guards, which keeps the stamped arrival on the far side of
// the next barrier. The pooled packet is released here; the destination shard
// rebuilds one from its own pool on arrival.
func (n *Network) deliverRemote(pkt *Packet, dstShard int32) {
	d := n.delayFor(pkt.Src.IP, pkt.Dst.IP)
	rp := remotePacket{src: pkt.Src, dst: pkt.Dst, size: pkt.Size, payload: migratePayload(pkt.Payload)}
	pkt.Release()
	peer := n.peers[dstShard]
	n.fabric.Inject(int(n.shard), int(dstShard), n.engine.Now()+d, func() {
		peer.receiveRemote(rp)
	})
}

// receiveRemote lands a fabric-carried packet on the destination shard: the
// same partition and route checks the local cloud crossing applies, with
// drops accounted on this shard's registry.
func (n *Network) receiveRemote(rp remotePacket) {
	pkt := n.pool.Get()
	pkt.Src, pkt.Dst, pkt.Size, pkt.Payload = rp.src, rp.dst, rp.size, rp.payload
	if len(n.blocked) > 0 && n.blocked[pairOf(rp.src.IP, rp.dst.IP)] {
		n.drop(pkt, DropPartitioned)
		pkt.Release()
		return
	}
	dst := n.lookup(rp.dst.IP)
	if dst == nil {
		n.drop(pkt, DropNoRoute)
		pkt.Release()
		return
	}
	n.regRouted.Inc()
	dst.medium.SendDown(pkt, dst)
}

// Deliver applies ingress filters and hands surviving packets to the host —
// the down-side continuation the destination medium completes. Each packet
// is recycled when the handler returns; handlers must not retain it.
func (ifc *Iface) Deliver(pkt *Packet) {
	// The interface may have moved to a new address while the packet was in
	// flight on the access medium; a handed-off station no longer accepts
	// traffic for its old address.
	if pkt.Dst.IP != ifc.ip {
		ifc.net.drop(pkt, DropNoRoute)
		pkt.Release()
		return
	}
	for _, in := range ifc.applyFilters(ifc.ingress, pkt, &ifc.inScratch) {
		if ifc.handler != nil {
			ifc.handler.HandlePacket(in)
		}
		in.Release()
	}
}

// CheckState audits the routing layer (check.Checkable): packet-pool
// ownership, interface-map coherence, and route-cache entries that survived
// the current topology generation.
func (n *Network) CheckState(report func(invariant, detail string)) {
	n.pool.checkState(report)
	for _, ip := range n.sortedIPs() {
		if ifc := n.ifaces[ip]; ifc.ip != ip {
			report("netem.iface_key", fmt.Sprintf("iface bound at %s reports address %s", ip, ifc.ip))
		}
	}
	for i := range n.routeCache {
		e := &n.routeCache[i]
		if e.gen != n.gen {
			continue
		}
		if n.ifaces[e.ip] != e.ifc {
			report("netem.route_cache", fmt.Sprintf("current-generation cache entry for %s disagrees with the interface map", e.ip))
		}
	}
}

// DigestInto hashes the routing layer's state (check.Digestable).
func (n *Network) DigestInto(d *check.Digest) {
	d.Str("netem.Network")
	d.I64(int64(n.cloudDelay))
	d.I64(n.pool.live)
	d.Int(len(n.blocked))
	ips := n.sortedIPs()
	d.Int(len(ips))
	for _, ip := range ips {
		ifc := n.ifaces[ip]
		d.U64(uint64(ip))
		d.I64(ifc.stats.TxPackets)
		d.I64(ifc.stats.TxBytes)
	}
}

// sortedIPs returns the attached addresses in ascending order, the
// deterministic iteration order check hooks need over the ifaces map.
func (n *Network) sortedIPs() []IP {
	ips := make([]IP, 0, len(n.ifaces))
	for ip := range n.ifaces {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
	return ips
}

// applyFilters walks the filter chain over interface-owned scratch. A packet
// a filter does not forward is recycled here (struct only — its payload may
// live on in a clone the filter emitted instead).
func (ifc *Iface) applyFilters(filters []Filter, pkt *Packet, s *filterScratch) []*Packet {
	s.cur = append(s.cur[:0], pkt)
	if len(filters) == 0 {
		return s.cur
	}
	for _, f := range filters {
		s.next = s.next[:0]
		for _, p := range s.cur {
			before := len(s.next)
			s.next = f.FilterPacket(p, s.next)
			forwarded := false
			for _, q := range s.next[before:] {
				if q == p {
					forwarded = true
					break
				}
			}
			if !forwarded {
				p.Release()
			}
		}
		s.cur, s.next = s.next, s.cur
		if len(s.cur) == 0 {
			break
		}
	}
	return s.cur
}
