// Package tcp models bidirectional TCP at packet granularity over a netem
// network: NewReno congestion control, slow start, fast retransmit and fast
// recovery, RTO estimation with exponential backoff, cumulative ACKs, ACK
// piggybacking on reverse-path data, and spec-mandated pure DUPACKs.
//
// Payload bytes are counted, not stored: a Conn transfers an abstract byte
// stream whose in-order arrival is reported to the application as counts.
// Everything the paper's analysis depends on — packet sizes on the wire,
// which ACKs ride on data packets, how many DUPACKs cross the wireless leg
// during recovery — is modelled explicitly.
package tcp

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/wp2p/wp2p/internal/check"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/stats"
)

// Wire constants.
const (
	// MSS is the maximum segment payload in bytes.
	MSS = 1460
	// HeaderSize is the combined TCP/IP header length; a pure ACK is a
	// packet of exactly this size.
	HeaderSize = 40
)

// Errors reported through the OnClose callback.
var (
	// ErrTimeout indicates the retransmission limit was exhausted (the peer
	// is unreachable, e.g. after a handoff blackholed its address).
	ErrTimeout = errors.New("tcp: connection timed out")
	// ErrReset indicates the peer aborted the connection.
	ErrReset = errors.New("tcp: connection reset by peer")
	// ErrClosed indicates the connection was closed locally.
	ErrClosed = errors.New("tcp: connection closed")
)

// Errors returned by Listen and Dial. They mirror what a real-socket
// backend reports (EADDRINUSE, ephemeral range exhaustion), so protocol
// code written against the sim contract degrades the same way live.
var (
	// ErrAddrInUse indicates the listen port is already taken.
	ErrAddrInUse = errors.New("tcp: address already in use")
	// ErrPortExhausted indicates no ephemeral port is free for a dial.
	ErrPortExhausted = errors.New("tcp: ephemeral port space exhausted")
)

// Segment is the TCP payload carried inside a netem.Packet. Sequence and
// acknowledgement numbers count stream bytes from zero.
type Segment struct {
	Seq int64 // sequence number of the first payload byte
	Len int   // payload length in bytes
	Ack int64 // cumulative acknowledgement: next byte expected

	// HasAck is set on every segment except the initial SYN, per the spec
	// detail the paper leans on ("ALL packets except the initial SYN have
	// to have the ACK option bit set").
	HasAck bool
	SYN    bool
	FIN    bool
	RST    bool

	// TSval/TSecr model the TCP timestamp option (RFC 7323): TSval is the
	// sender's clock at transmission, TSecr echoes the most recent in-order
	// TSval seen from the peer. Timestamps give an RTT sample per ACK with
	// Karn's problem handled naturally (a retransmission carries its own
	// fresh TSval), which keeps the RTO estimate honest under heavy
	// wireless loss. Zero TSecr means "no echo yet".
	TSval time.Duration
	TSecr time.Duration

	// Msgs carries framing for application messages whose final byte lies
	// in this segment's range (see AppMessage).
	Msgs []AppMessage

	pool   *SegmentPool // origin free-list; nil for hand-built segments
	pooled bool         // currently parked in the free-list (double-free guard)
	gen    uint32       // bumped on each recycle; use-after-release detector
}

// Release returns the segment to its origin pool; hand-built segments are
// left to the garbage collector. The receiving stack calls this once the
// segment is fully processed — nothing downstream may retain it (the trace
// layer keeps a Snapshot instead).
func (s *Segment) Release() {
	if s.pool != nil {
		s.pool.put(s)
	}
}

// Snapshot returns a detached copy safe to retain after the segment is
// released — the lazy flight recorder formats records long after the wire
// packet is gone. Msgs are dropped: framing values are application objects a
// trace ring must not keep alive.
func (s *Segment) Snapshot() Segment {
	c := *s
	c.pool = nil
	c.pooled = false
	c.Msgs = nil
	return c
}

// Migrate detaches the segment for delivery on another shard
// (netem.Migratable): it returns a deep copy owned by the receiver and
// releases the original into the sending shard's pool. Msgs must be copied
// into fresh storage — the pool reuses the backing array on recycle — and
// framing values that are themselves pooled or mutable migrate recursively.
func (s *Segment) Migrate() any {
	c := &Segment{}
	*c = *s
	c.pool, c.pooled, c.gen = nil, false, 0
	if len(s.Msgs) > 0 {
		c.Msgs = make([]AppMessage, len(s.Msgs))
		copy(c.Msgs, s.Msgs)
		for i := range c.Msgs {
			if m, ok := c.Msgs[i].Val.(netem.Migratable); ok {
				c.Msgs[i].Val = m.Migrate()
			}
		}
	} else {
		c.Msgs = nil
	}
	s.Release()
	return c
}

// IsPureAck reports whether the segment carries only acknowledgement
// information: no payload, no control flags. Pure ACKs are the packets whose
// loss-robustness (40 bytes vs a full data packet) drives the paper's
// piggybacking analysis, and DUPACKs are always pure.
func (s *Segment) IsPureAck() bool {
	return s.HasAck && s.Len == 0 && !s.SYN && !s.FIN && !s.RST
}

// WireSize returns the on-the-wire packet size for the segment.
func (s *Segment) WireSize() int { return HeaderSize + s.Len }

// String formats the segment for traces.
func (s *Segment) String() string {
	flags := ""
	if s.SYN {
		flags += "S"
	}
	if s.FIN {
		flags += "F"
	}
	if s.RST {
		flags += "R"
	}
	if s.HasAck {
		flags += "."
	}
	return fmt.Sprintf("seq=%d len=%d ack=%d %s", s.Seq, s.Len, s.Ack, flags)
}

// Reno parameters, fixed for every stack.
const (
	initCwndSegs = 2                      // initial congestion window in segments
	initRTO      = time.Second            // RTO before the first RTT sample
	minRTO       = 200 * time.Millisecond // RTO floor
	maxRTO       = 60 * time.Second       // RTO backoff ceiling
	// maxRetries is how many consecutive RTOs are tolerated before the
	// connection fails with ErrTimeout. With a 200 ms post-sample RTO
	// floor, exponential backoff makes the sender persist for one to two
	// minutes — the "several minutes" a fixed peer keeps trying a vanished
	// mobile server (paper §3.5).
	maxRetries = 10
	// delAckTimeout is the delayed-ACK timer (RFC 1122): an ACK for
	// in-order data is withheld until a second segment arrives, reverse
	// data can carry it (piggybacking — "ACKs in the reverse path are
	// almost always piggybacked on the data packets"), or this timer fires.
	delAckTimeout = 100 * time.Millisecond
)

type fourTuple struct {
	local, remote netem.Addr
}

// Stack is a host's TCP layer: it owns the interface's packet handler and
// demultiplexes segments to connections and listeners.
type Stack struct {
	engine    *sim.Engine
	iface     *netem.Iface
	conns     map[fourTuple]*Conn
	listeners map[uint16]*Listener
	nextPort  uint16
	pool      *SegmentPool
	reg       stackStats

	// closeObs observe every connection teardown, in registration order —
	// the hook wP2P's AM filter uses to evict per-flow state.
	closeObs []func(c *Conn, err error)

	// checkEnabled arms the strict per-segment assertions; see
	// SetCheckEnabled.
	checkEnabled bool

	// One-entry demux cache: bulk transfer delivers long runs of segments
	// for the same connection, so remembering the last match skips hashing
	// the four-tuple on most packets. Invalidated when the cached connection
	// is removed.
	lastKey  fourTuple
	lastConn *Conn
}

// stackStats holds the registry instruments shared by all of a stack's
// connections, pre-bound once in NewStack so the per-segment paths stay
// allocation-free.
type stackStats struct {
	segsSent        *stats.Counter
	segsRcvd        *stats.Counter
	retransmits     *stats.Counter
	fastRetransmits *stats.Counter
	rtos            *stats.Counter
	dupAcksSent     *stats.Counter
	dupAcksRcvd     *stats.Counter
	acksPure        *stats.Counter
	acksPiggybacked *stats.Counter
	cwnd            *stats.Histogram
}

// cwndBuckets are the tcp.cwnd_bytes histogram bounds, in MSS multiples:
// ≤1, ≤2, ≤4, ≤8, ≤16, ≤32, ≤64 MSS, and an overflow bucket above.
var cwndBuckets = []int64{1 * MSS, 2 * MSS, 4 * MSS, 8 * MSS, 16 * MSS, 32 * MSS, 64 * MSS}

func (ss *stackStats) bind(reg *stats.Registry) {
	ss.segsSent = reg.Counter("tcp.segs_sent")
	ss.segsRcvd = reg.Counter("tcp.segs_rcvd")
	ss.retransmits = reg.Counter("tcp.retransmits")
	ss.fastRetransmits = reg.Counter("tcp.fast_retransmits")
	ss.rtos = reg.Counter("tcp.rtos")
	ss.dupAcksSent = reg.Counter("tcp.dupacks_sent")
	ss.dupAcksRcvd = reg.Counter("tcp.dupacks_rcvd")
	ss.acksPure = reg.Counter("tcp.acks.pure")
	ss.acksPiggybacked = reg.Counter("tcp.acks.piggybacked")
	ss.cwnd = reg.Histogram("tcp.cwnd_bytes", cwndBuckets)
}

// NewStack builds a TCP layer on the interface and installs itself as the
// interface's packet handler.
func NewStack(engine *sim.Engine, iface *netem.Iface) *Stack {
	s := &Stack{
		engine:    engine,
		iface:     iface,
		conns:     make(map[fourTuple]*Conn),
		listeners: make(map[uint16]*Listener),
		nextPort:  49152,
		pool:      NewSegmentPool(engine.Stats()),
	}
	s.reg.bind(engine.Stats())
	iface.SetHandler(s)
	engine.Register(s)
	return s
}

// Engine returns the simulation engine.
func (s *Stack) Engine() *sim.Engine { return s.engine }

// Iface returns the interface the stack is bound to.
func (s *Stack) Iface() *netem.Iface { return s.iface }

// Addr returns the stack's current address with the given port.
func (s *Stack) Addr(port uint16) netem.Addr {
	return netem.Addr{IP: s.iface.IP(), Port: port}
}

// Listener accepts inbound connections on a port.
type Listener struct {
	stack    *Stack
	port     uint16
	onAccept func(*Conn)
	closed   bool
}

// Listen opens a listener on port. It returns ErrAddrInUse (wrapped with
// the port) if the port is taken — the same contract a real socket backend
// reports as EADDRINUSE.
func (s *Stack) Listen(port uint16, onAccept func(*Conn)) (*Listener, error) {
	if _, ok := s.listeners[port]; ok {
		return nil, fmt.Errorf("tcp: listen port %d: %w", port, ErrAddrInUse)
	}
	l := &Listener{stack: s, port: port, onAccept: onAccept}
	s.listeners[port] = l
	return l, nil
}

// MustListen is Listen for sim-world construction paths, where a taken port
// is a scenario construction bug: it panics on error. This is the one
// explicit fatal path; protocol code must use Listen and handle the error.
func (s *Stack) MustListen(port uint16, onAccept func(*Conn)) *Listener {
	l, err := s.Listen(port, onAccept)
	if err != nil {
		panic(err)
	}
	return l
}

// Port returns the port the listener is bound to.
func (l *Listener) Port() uint16 { return l.port }

// Close stops accepting connections. Established connections are unaffected;
// a SYN arriving after Close is refused with a RST (the dispatch path no
// longer finds the listener, so the stale onAccept can never run).
func (l *Listener) Close() {
	if !l.closed {
		l.closed = true
		// Remove only our own registration: if the port was somehow re-bound
		// the newer listener must not be evicted by a stale handle.
		if l.stack.listeners[l.port] == l {
			delete(l.stack.listeners, l.port)
		}
	}
}

// Dial opens a connection to remote from an ephemeral local port and sends
// the initial SYN. Callbacks should be set on the returned Conn before the
// simulation advances. It returns ErrPortExhausted (wrapped) when every
// ephemeral port is busy, so a long-lived client degrades gracefully
// instead of crashing.
func (s *Stack) Dial(remote netem.Addr) (*Conn, error) {
	port, err := s.allocPort()
	if err != nil {
		return nil, fmt.Errorf("tcp: dial %s: %w", remote, err)
	}
	local := netem.Addr{IP: s.iface.IP(), Port: port}
	c := newConn(s, local, remote, true)
	s.conns[fourTuple{local: local, remote: remote}] = c
	c.sendSYN()
	return c, nil
}

// MustDial is Dial for sim-world construction paths; it panics on error.
func (s *Stack) MustDial(remote netem.Addr) *Conn {
	c, err := s.Dial(remote)
	if err != nil {
		panic(err)
	}
	return c
}

// ephemeralBase is the bottom of the ephemeral port range (IANA dynamic
// range, 49152–65535).
const ephemeralBase = 49152

// allocPort returns the next free ephemeral port, skipping listeners and —
// the fix for long churn scenarios that wrap the 16K range — ports still
// held by live connections. Skipping any in-use local port is slightly
// stronger than the four-tuple requires (the remote could differ), but it
// is what real ephemeral allocators do. The in-use test scans the conns
// map, which at simulation scale is far cheaper than maintaining a
// per-port refcount on every dial and teardown. If every ephemeral port is
// busy the host has more live flows than the range holds; that is an
// operational condition a real host survives (connect() fails with
// EADDRNOTAVAIL), so report it as an error rather than crash.
func (s *Stack) allocPort() (uint16, error) {
	for tries := 0; tries < 1<<14; tries++ {
		p := s.nextPort
		s.nextPort++
		if s.nextPort < ephemeralBase {
			s.nextPort = ephemeralBase
		}
		if _, taken := s.listeners[p]; taken {
			continue
		}
		if s.portInUse(p) {
			continue
		}
		return p, nil
	}
	return 0, ErrPortExhausted
}

// portInUse reports whether any live connection occupies local port p.
func (s *Stack) portInUse(p uint16) bool {
	for key := range s.conns {
		if key.local.Port == p {
			return true
		}
	}
	return false
}

// HandlePacket demultiplexes an arriving segment and releases it once the
// connection has processed it — the segment's terminal point. It implements
// netem.Handler.
func (s *Stack) HandlePacket(pkt *netem.Packet) {
	seg, ok := pkt.Payload.(*Segment)
	if !ok {
		return // not TCP traffic
	}
	if s.checkEnabled && seg.pooled {
		panic("tcp: segment arrived while parked in a free-list (use-after-release)")
	}
	s.dispatch(pkt, seg)
	seg.Release()
}

func (s *Stack) dispatch(pkt *netem.Packet, seg *Segment) {
	key := fourTuple{local: pkt.Dst, remote: pkt.Src}
	if s.lastConn != nil && key == s.lastKey {
		s.lastConn.handleSegment(seg)
		return
	}
	if c, ok := s.conns[key]; ok {
		s.lastKey, s.lastConn = key, c
		c.handleSegment(seg)
		return
	}
	if seg.SYN && !seg.HasAck {
		if l, ok := s.listeners[pkt.Dst.Port]; ok && !l.closed {
			c := newConn(s, pkt.Dst, pkt.Src, false)
			s.conns[key] = c
			c.handleSegment(seg)
			if l.onAccept != nil {
				l.onAccept(c)
			}
			return
		}
	}
	if !seg.RST {
		// No such connection: refuse, so a peer dialling a host that moved
		// here (or a stale flow) fails fast rather than by timeout.
		rst := s.pool.Get()
		rst.RST, rst.HasAck, rst.Ack = true, true, seg.Seq+int64(seg.Len)
		s.sendRaw(pkt.Dst, pkt.Src, rst)
	}
}

// sendRaw wraps the segment in a pooled packet and hands it to the
// interface. Packet and segment ownership both leave the stack here: netem
// recycles the packet struct at its terminal point, and the segment is
// released by whichever stack receives it (or GC'd if dropped in flight).
func (s *Stack) sendRaw(from, to netem.Addr, seg *Segment) {
	pkt := s.iface.NewPacket()
	pkt.Src, pkt.Dst = from, to
	pkt.Size = seg.WireSize()
	pkt.Payload = seg
	s.iface.Send(pkt)
}

func (s *Stack) removeConn(c *Conn) {
	key := fourTuple{local: c.local, remote: c.remote}
	if s.conns[key] == c {
		delete(s.conns, key)
	}
	if s.lastConn == c {
		s.lastConn = nil
	}
}

// ConnsTo counts live connections whose remote endpoint is addr.
func (s *Stack) ConnsTo(addr netem.Addr) int {
	n := 0
	for key := range s.conns {
		if key.remote == addr {
			n++
		}
	}
	return n
}

// OnConnClose registers an observer invoked whenever one of the stack's
// connections tears down, after the connection has been removed from the
// demux tables (so ConnsTo no longer counts it) and before the conn's own
// OnClose callback. Observers chain in registration order.
func (s *Stack) OnConnClose(fn func(c *Conn, err error)) {
	s.closeObs = append(s.closeObs, fn)
}

// SetCheckEnabled arms the strict per-segment assertions (check.Strict).
func (s *Stack) SetCheckEnabled(on bool) { s.checkEnabled = on }

// CheckState audits the stack (check.Checkable): demux-cache coherence,
// segment-pool ownership, and every connection's sequence-space
// invariants, in deterministic four-tuple order.
func (s *Stack) CheckState(report func(invariant, detail string)) {
	s.pool.checkState(report)
	if s.lastConn != nil && s.conns[s.lastKey] != s.lastConn {
		report("tcp.demux_cache", "cached connection disagrees with the conns map")
	}
	for _, key := range s.sortedKeys() {
		s.conns[key].checkState(report)
	}
}

// DigestInto hashes the stack's state (check.Digestable).
func (s *Stack) DigestInto(d *check.Digest) {
	d.Str("tcp.Stack")
	d.U64(uint64(s.iface.IP()))
	d.U64(uint64(s.nextPort))
	d.I64(s.pool.live)
	d.Int(len(s.listeners))
	keys := s.sortedKeys()
	d.Int(len(keys))
	for _, key := range keys {
		s.conns[key].digestInto(d)
	}
}

// sortedKeys returns the four-tuples of live connections in a deterministic
// order for check sweeps and digests.
func (s *Stack) sortedKeys() []fourTuple {
	keys := make([]fourTuple, 0, len(s.conns))
	for key := range s.conns {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.local.IP != b.local.IP {
			return a.local.IP < b.local.IP
		}
		if a.local.Port != b.local.Port {
			return a.local.Port < b.local.Port
		}
		if a.remote.IP != b.remote.IP {
			return a.remote.IP < b.remote.IP
		}
		return a.remote.Port < b.remote.Port
	})
	return keys
}
