// Package wp2p implements the paper's contribution: a wireless-P2P client
// layered on the bt BitTorrent implementation, consisting of Age-based
// Manipulation (AM) of bi-directional TCP, Incentive-Aware operations (IA:
// LIHD upload-rate control and peer-id retention), and Mobility-Aware
// operations (MA: probabilistic in-order fetching and role reversal). All
// techniques are local to the mobile host and fully backward compatible
// with unmodified fixed peers.
package wp2p

import (
	"fmt"
	"sort"
	"time"

	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/check"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/stats"
	"github.com/wp2p/wp2p/internal/tcp"
)

// FlowStatus classifies a connection's age per the paper's §4.1.
type FlowStatus int

// Flow ages.
const (
	// FlowYoung marks a connection whose peer congestion window is below γ:
	// vulnerable to ACK loss, so piggybacked ACKs are decoupled.
	FlowYoung FlowStatus = iota + 1
	// FlowMature marks a connection past the threshold: robust to ACK loss,
	// so DUPACK thinning is applied during loss recovery instead.
	FlowMature
)

// String names the status.
func (s FlowStatus) String() string {
	if s == FlowYoung {
		return "young"
	}
	return "mature"
}

// AMConfig enables the Age-based Manipulation filter; its parameters are the
// paper's and are fixed.
type AMConfig struct{}

const (
	// amGammaSegs is the connection-status threshold γ in segments; the
	// paper uses 6 (≈ 9 KB), citing the vulnerability of windows below 6 to
	// losses.
	amGammaSegs = 6
	// amCwndWindow is the measurement window used to estimate the remote
	// sender's congestion window ("data sent by the remote peer in every
	// rtt").
	amCwndWindow = 200 * time.Millisecond
	// amDropEveryN thins one in N outgoing DUPACKs on mature connections in
	// recovery; the paper drops one-fourth (N = 4).
	amDropEveryN = 4
)

// AMStats counts the filter's interventions.
type AMStats struct {
	Decoupled      int64 // piggybacked ACKs split into pure ACK + data
	DupAcksDropped int64 // DUPACKs thinned during mature-loss recovery
}

// amFlow is per-connection filter state, keyed by the remote endpoint.
type amFlow struct {
	rcvd       *bt.RateEstimator // bytes from the remote per window
	lastAck    int64             // highest ack we have sent them
	dupCnt     int
	lastActive time.Duration
}

// AMFilter is the Age-based Manipulation component: a packet filter on the
// mobile host's interface (the paper realizes it with Netfilter) that
// (a) converts piggybacked ACKs into pure ACK + data while a connection is
// YOUNG, making ACKs robust to size-dependent wireless loss, and (b) drops
// every Nth outgoing DUPACK on MATURE connections so the packet count on
// the wireless leg actually halves after a congestion event.
type AMFilter struct {
	engine *sim.Engine
	flows  map[netem.Addr]*amFlow
	stats  AMStats
	// stack, when set via Track, ties flow lifetime to the connection
	// table: flow state is evicted once the last connection to its remote
	// is gone, so handoff churn cannot grow the map without bound.
	stack *tcp.Stack
	// segs supplies the pure-ACK segments the decouple path fabricates; the
	// receiving fixed peer's stack releases them like any other segment.
	segs *tcp.SegmentPool

	regDecoupled  *stats.Counter
	regDupDropped *stats.Counter
	regGateYoung  *stats.Counter
	regGateMature *stats.Counter
}

// NewAMFilter builds the filter; call Install to attach it to an interface.
func NewAMFilter(engine *sim.Engine, _ AMConfig) *AMFilter {
	reg := engine.Stats()
	f := &AMFilter{
		engine:        engine,
		flows:         make(map[netem.Addr]*amFlow),
		segs:          tcp.NewSegmentPool(reg),
		regDecoupled:  reg.Counter("wp2p.am.decoupled"),
		regDupDropped: reg.Counter("wp2p.am.dupacks_dropped"),
		regGateYoung:  reg.Counter("wp2p.am.gate_young"),
		regGateMature: reg.Counter("wp2p.am.gate_mature"),
	}
	engine.Register(f)
	return f
}

// Track ties flow lifetime to the stack's connection table: whenever the
// last connection to a remote tears down, the remote's filter state is
// evicted. Without this, handoff churn (every reconnect arrives from a new
// address) grows the flow map without bound.
func (f *AMFilter) Track(stack *tcp.Stack) {
	f.stack = stack
	stack.OnConnClose(func(c *tcp.Conn, _ error) {
		f.evict(c.RemoteAddr())
	})
}

// evict drops a remote's flow state unless a live connection still needs it.
func (f *AMFilter) evict(remote netem.Addr) {
	if f.stack != nil && f.stack.ConnsTo(remote) > 0 {
		return
	}
	delete(f.flows, remote)
}

// Install attaches the filter to the interface: egress for manipulation,
// ingress for peer-cwnd estimation.
func (f *AMFilter) Install(iface *netem.Iface) {
	iface.AddEgressFilter(netem.FilterFunc(f.filterEgress))
	iface.AddIngressFilter(netem.FilterFunc(f.observeIngress))
}

func (f *AMFilter) flow(remote netem.Addr) *amFlow {
	fl, ok := f.flows[remote]
	if !ok {
		fl = &amFlow{rcvd: bt.NewRateEstimator(amCwndWindow)}
		f.flows[remote] = fl
	}
	fl.lastActive = f.engine.Now()
	return fl
}

// Status classifies the flow to remote from its estimated peer congestion
// window: bytes received within the last CwndWindow versus γ·MSS.
func (f *AMFilter) Status(remote netem.Addr) FlowStatus {
	fl, ok := f.flows[remote]
	if !ok {
		return FlowYoung
	}
	if fl.rcvd.Total(f.engine.Now()) < amGammaSegs*tcp.MSS {
		return FlowYoung
	}
	return FlowMature
}

// observeIngress accumulates payload arriving from each remote — the
// receiver-side estimate of the remote sender's congestion window.
func (f *AMFilter) observeIngress(pkt *netem.Packet, out []*netem.Packet) []*netem.Packet {
	if seg, ok := pkt.Payload.(*tcp.Segment); ok {
		if seg.RST {
			// The remote killed the connection; drop its filter state
			// rather than letting a straggler resurrect it.
			f.evict(pkt.Src)
		} else if seg.Len > 0 {
			f.flow(pkt.Src).rcvd.Add(f.engine.Now(), int64(seg.Len))
		}
	}
	return append(out, pkt)
}

// filterEgress implements the pseudo-code of the paper's Figure 5.
func (f *AMFilter) filterEgress(pkt *netem.Packet, out []*netem.Packet) []*netem.Packet {
	seg, ok := pkt.Payload.(*tcp.Segment)
	if !ok || seg.SYN || seg.RST || !seg.HasAck {
		if ok && seg.RST {
			// Our stack is resetting the flow (e.g. a late segment for a
			// dead connection); its filter state goes with it.
			f.evict(pkt.Dst)
		}
		return append(out, pkt)
	}
	fl := f.flow(pkt.Dst)
	status := f.Status(pkt.Dst)
	// Count how the γ young-connection gate classified this egress decision.
	if status == FlowYoung {
		f.regGateYoung.Inc()
	} else {
		f.regGateMature.Inc()
	}

	if seg.Len > 0 {
		// Data segment carrying (possibly new) piggybacked ACK information.
		if seg.Ack > fl.lastAck {
			ackAdvanced := seg.Ack
			fl.lastAck = ackAdvanced
			fl.dupCnt = 0
			if status == FlowYoung {
				// Decouple: convey the new ACK as a separate pure ACK ahead
				// of the data packet, so a data-packet corruption does not
				// take the ACK down with it. Both emissions are pooled: the
				// segment from the filter's own pool, the packet cloned from
				// the one in hand (same pool, fresh struct).
				f.stats.Decoupled++
				f.regDecoupled.Inc()
				pure := f.segs.Get()
				pure.Seq, pure.Ack, pure.HasAck = seg.Seq, seg.Ack, true
				purePkt := pkt.Clone()
				purePkt.Size = pure.WireSize()
				purePkt.Payload = pure
				return append(out, purePkt, pkt)
			}
		}
		return append(out, pkt)
	}

	if seg.IsPureAck() {
		if seg.Ack == fl.lastAck {
			// A DUPACK leaving the mobile host.
			fl.dupCnt++
			if status == FlowMature && fl.dupCnt%amDropEveryN == 0 {
				// Thin one in N so the wireless leg's packet count halves
				// after congestion instead of staying level. Returning out
				// unchanged drops the packet; the interface recycles it.
				f.stats.DupAcksDropped++
				f.regDupDropped.Inc()
				return out
			}
		} else if seg.Ack > fl.lastAck {
			fl.lastAck = seg.Ack
			fl.dupCnt = 0
		}
	}
	return append(out, pkt)
}

// CheckState audits flow bookkeeping (check.Checkable): once Track ties the
// filter to a stack, any flow whose remote has no live connection and has
// been idle past a short grace window (covering in-flight RST exchanges) is
// a leak — exactly the state handoff churn used to accumulate.
func (f *AMFilter) CheckState(report func(invariant, detail string)) {
	if f.stack == nil {
		return
	}
	const grace = time.Second
	now := f.engine.Now()
	for _, remote := range f.sortedRemotes() {
		fl := f.flows[remote]
		if fl.lastActive+grace > now {
			continue
		}
		if f.stack.ConnsTo(remote) == 0 {
			report("wp2p.am.flow_leak",
				fmt.Sprintf("flow state for %s with no live connection (idle %s)",
					remote, now-fl.lastActive))
		}
	}
}

// DigestInto folds the filter state into a determinism digest
// (check.Digestable), visiting flows in sorted remote order.
func (f *AMFilter) DigestInto(d *check.Digest) {
	d.Str("wp2p.AMFilter")
	d.I64(f.stats.Decoupled)
	d.I64(f.stats.DupAcksDropped)
	d.Int(len(f.flows))
	for _, remote := range f.sortedRemotes() {
		fl := f.flows[remote]
		d.U64(uint64(remote.IP))
		d.U64(uint64(remote.Port))
		d.I64(fl.lastAck)
		d.Int(fl.dupCnt)
		d.I64(int64(fl.lastActive))
	}
}

func (f *AMFilter) sortedRemotes() []netem.Addr {
	addrs := make([]netem.Addr, 0, len(f.flows))
	for a := range f.flows {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool {
		if addrs[i].IP != addrs[j].IP {
			return addrs[i].IP < addrs[j].IP
		}
		return addrs[i].Port < addrs[j].Port
	})
	return addrs
}
