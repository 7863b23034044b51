package tcp

import (
	"fmt"
	"time"

	"github.com/wp2p/wp2p/internal/check"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
)

// State is a connection's lifecycle phase.
type State int

// Connection states.
const (
	StateSynSent State = iota + 1
	StateSynRcvd
	StateEstablished
	StateClosed
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateSynSent:
		return "syn-sent"
	case StateSynRcvd:
		return "syn-rcvd"
	case StateEstablished:
		return "established"
	case StateClosed:
		return "closed"
	default:
		return "unknown"
	}
}

// Stats exposes a connection's transport-level counters.
type Stats struct {
	SegsSent        int64
	SegsRcvd        int64
	BytesSent       int64 // payload bytes sent, including retransmissions
	BytesAcked      int64 // highest cumulative ack (delivered payload)
	BytesDelivered  int64 // in-order payload delivered to the application
	Retransmits     int64
	FastRetransmits int64
	Timeouts        int64
	DupAcksSent     int64
	DupAcksRcvd     int64
	PureAcksSent    int64
	PiggybackedAcks int64 // acks that rode on data segments
}

// Conn is one endpoint of a bidirectional TCP connection. Applications write
// abstract bytes with Write and learn of in-order arrivals through
// OnDeliver. A single Conn carries data in both directions simultaneously —
// the mode P2P exercises and the paper studies.
type Conn struct {
	stack  *Stack
	local  netem.Addr
	remote netem.Addr
	state  State
	active bool // true if this side sent the initial SYN

	// Callbacks. Set them immediately after Dial/accept.
	OnEstablished func()
	OnDeliver     func(n int) // n new in-order payload bytes
	OnMessage     func(val any)
	OnClose       func(err error)
	// OnWritable fires whenever acknowledged progress shrinks the send
	// buffer, letting applications pace writes against Buffered() instead
	// of queueing unboundedly (which would head-of-line-block their own
	// control messages behind bulk data).
	OnWritable func()

	// Framed-message state (see messages.go).
	pendingMsgs  []AppMessage // sent, not yet fully acknowledged
	rcvdMsgs     []AppMessage // received framing awaiting in-order bytes
	firedThrough int64        // end offset of the last delivered message

	// Send side.
	sndUna     int64   // oldest unacknowledged byte
	sndNxt     int64   // next byte to transmit
	maxSent    int64   // highest byte ever transmitted (for Karn after rollback)
	sndBufTail int64   // application bytes written so far
	cwnd       float64 // congestion window, bytes
	ssthresh   float64
	dupAcks    int
	inRecovery bool
	recover    int64 // NewReno: highest seq outstanding when loss was detected
	finQueued  bool
	finSeq     int64 // sequence consumed by FIN (== sndBufTail at queueing)
	finSent    bool

	// RTO machinery. RTT samples come from echoed timestamps (see
	// Segment.TSval/TSecr), one per ACK of fresh data.
	rto       time.Duration
	srtt      time.Duration
	rttvar    time.Duration
	hasSample bool
	rtxTimer  sim.Timer // embedded: bound in newConn, never copied
	retries   int
	tsRecent  time.Duration // latest in-order TSval from the peer
	lastRTT   time.Duration

	// Receive side.
	rcvNxt      int64
	oooRecvd    []interval // out-of-order payload, disjoint, sorted
	rcvdFin     bool
	finRecvd    int64 // sequence of the peer's FIN
	ackOwed     int   // in-order segments received since we last conveyed an ACK
	delAckTimer sim.Timer

	closed   bool
	closeErr error

	stats Stats
}

// Callback setters. They mirror the public fields so *Conn satisfies the
// transport.Conn interface — protocol code written against the transport
// seam uses these; sim-internal code may keep assigning the fields.

// SetOnEstablished sets the handshake-completion callback.
func (c *Conn) SetOnEstablished(fn func()) { c.OnEstablished = fn }

// SetOnDeliver sets the in-order-payload callback.
func (c *Conn) SetOnDeliver(fn func(n int)) { c.OnDeliver = fn }

// SetOnMessage sets the framed-message callback.
func (c *Conn) SetOnMessage(fn func(val any)) { c.OnMessage = fn }

// SetOnClose sets the teardown-notify callback.
func (c *Conn) SetOnClose(fn func(err error)) { c.OnClose = fn }

// SetOnWritable sets the send-buffer-drained callback.
func (c *Conn) SetOnWritable(fn func()) { c.OnWritable = fn }

// interval is a half-open byte range [start, end).
type interval struct{ start, end int64 }

func newConn(s *Stack, local, remote netem.Addr, active bool) *Conn {
	c := &Conn{
		stack:    s,
		local:    local,
		remote:   remote,
		active:   active,
		cwnd:     float64(initCwndSegs * MSS),
		ssthresh: 1 << 30,
		rto:      initRTO,
	}
	if active {
		c.state = StateSynSent
	} else {
		c.state = StateSynRcvd
	}
	c.rtxTimer.Bind(s.engine, (*rtxOwner)(c))
	c.delAckTimer.Bind(s.engine, (*delAckOwner)(c))
	return c
}

// rtxOwner and delAckOwner are a Conn seen as the owner of one of its two
// embedded timers: a pointer conversion tells the firings apart without a
// closure per timer or an exported method on Conn.
type (
	rtxOwner    Conn
	delAckOwner Conn
)

func (o *rtxOwner) OnTimer(*sim.Timer) { (*Conn)(o).onRTO() }

func (o *delAckOwner) OnTimer(*sim.Timer) {
	if c := (*Conn)(o); !c.closed && c.ackOwed > 0 {
		c.sendPureAck(false)
	}
}

// LocalAddr returns the local endpoint address.
func (c *Conn) LocalAddr() netem.Addr { return c.local }

// RemoteAddr returns the remote endpoint address.
func (c *Conn) RemoteAddr() netem.Addr { return c.remote }

// Buffered returns application bytes written but not yet acknowledged by the
// peer. Senders use it to pace writes.
func (c *Conn) Buffered() int64 { return c.sndBufTail - c.sndUna }

// Write queues n abstract bytes for transmission and attempts to send.
// Writing to a closed connection is a no-op.
func (c *Conn) Write(n int) {
	if c.closed || n <= 0 || c.finQueued {
		return
	}
	c.sndBufTail += int64(n)
	if c.state == StateEstablished {
		c.trySend()
	}
}

// Close initiates a graceful shutdown: a FIN is sent once all queued data
// has been transmitted. The connection reports ErrClosed locally when the
// peer's ACK machinery finishes, and the peer observes a clean end of
// stream.
func (c *Conn) Close() {
	if c.closed || c.finQueued {
		return
	}
	c.finQueued = true
	c.finSeq = c.sndBufTail
	c.sndBufTail++ // FIN consumes one sequence number
	if c.state == StateEstablished {
		c.trySend()
	}
}

// Abort tears the connection down immediately, notifying the peer with RST.
func (c *Conn) Abort() {
	if c.closed {
		return
	}
	seg := c.stack.pool.Get()
	seg.Seq, seg.Ack, seg.HasAck, seg.RST = c.sndNxt, c.rcvNxt, true, true
	c.sendSegment(seg)
	c.teardown(ErrClosed)
}

func (c *Conn) teardown(err error) {
	if c.closed {
		return
	}
	c.closed = true
	c.closeErr = err
	c.state = StateClosed
	c.rtxTimer.Stop()
	c.delAckTimer.Stop()
	c.stack.removeConn(c)
	for _, fn := range c.stack.closeObs {
		fn(c, err)
	}
	if c.OnClose != nil {
		c.OnClose(err)
	}
}

// checkState audits the connection's sequence-space invariants for the
// stack's check sweep.
func (c *Conn) checkState(report func(invariant, detail string)) {
	id := c.local.String() + "->" + c.remote.String()
	if c.sndUna > c.sndNxt {
		report("tcp.seq.una_le_nxt", fmt.Sprintf("%s: sndUna %d > sndNxt %d", id, c.sndUna, c.sndNxt))
	}
	if c.sndNxt > c.sndBufTail {
		report("tcp.seq.nxt_le_tail", fmt.Sprintf("%s: sndNxt %d > sndBufTail %d", id, c.sndNxt, c.sndBufTail))
	}
	if c.maxSent > c.sndBufTail {
		report("tcp.seq.maxsent", fmt.Sprintf("%s: maxSent %d > sndBufTail %d", id, c.maxSent, c.sndBufTail))
	}
	if c.stats.BytesAcked > c.sndBufTail {
		report("tcp.seq.acked", fmt.Sprintf("%s: BytesAcked %d > sndBufTail %d (peer acked bytes never written)", id, c.stats.BytesAcked, c.sndBufTail))
	}
	if c.stats.BytesDelivered > c.rcvNxt {
		report("tcp.seq.delivered", fmt.Sprintf("%s: BytesDelivered %d > rcvNxt %d (delivered bytes never received in order)", id, c.stats.BytesDelivered, c.rcvNxt))
	}
	if c.state == StateEstablished && c.cwnd < MSS {
		report("tcp.cwnd_floor", fmt.Sprintf("%s: cwnd %.0f below one MSS", id, c.cwnd))
	}
	prev := c.rcvNxt
	for _, iv := range c.oooRecvd {
		if iv.start <= prev || iv.end <= iv.start {
			report("tcp.ooo_intervals", fmt.Sprintf("%s: out-of-order set not sorted/disjoint beyond rcvNxt %d: [%d,%d)", id, c.rcvNxt, iv.start, iv.end))
			break
		}
		prev = iv.end
	}
}

// digestInto hashes the connection's transport state for the stack digest.
func (c *Conn) digestInto(d *check.Digest) {
	d.U64(uint64(c.local.IP))
	d.U64(uint64(c.local.Port))
	d.U64(uint64(c.remote.IP))
	d.U64(uint64(c.remote.Port))
	d.Int(int(c.state))
	d.I64(c.sndUna)
	d.I64(c.sndNxt)
	d.I64(c.maxSent)
	d.I64(c.sndBufTail)
	d.F64(c.cwnd)
	d.F64(c.ssthresh)
	d.Int(c.dupAcks)
	d.Bool(c.inRecovery)
	d.I64(int64(c.rto))
	d.I64(int64(c.srtt))
	d.I64(c.rcvNxt)
	d.Int(len(c.oooRecvd))
	for _, iv := range c.oooRecvd {
		d.I64(iv.start)
		d.I64(iv.end)
	}
	d.I64(c.stats.BytesAcked)
	d.I64(c.stats.BytesDelivered)
	d.I64(c.stats.Retransmits)
}

// --- segment transmission ---

func (c *Conn) sendSegment(seg *Segment) {
	seg.TSval = c.stack.engine.Now()
	seg.TSecr = c.tsRecent
	if seg.HasAck {
		// Any outgoing segment conveys the cumulative ACK; nothing is owed.
		c.ackOwed = 0
		c.delAckTimer.Stop()
	}
	c.stats.SegsSent++
	c.stack.reg.segsSent.Inc()
	if seg.HasAck {
		if seg.Len > 0 {
			c.stats.PiggybackedAcks++
			c.stack.reg.acksPiggybacked.Inc()
		} else if !seg.SYN && !seg.RST {
			c.stats.PureAcksSent++
			c.stack.reg.acksPure.Inc()
		}
	}
	c.stack.sendRaw(c.local, c.remote, seg)
}

func (c *Conn) sendSYN() {
	seg := c.stack.pool.Get()
	seg.SYN = true
	c.sendSegment(seg)
	c.armRTO()
}

func (c *Conn) sendSynAck() {
	seg := c.stack.pool.Get()
	seg.SYN, seg.HasAck, seg.Ack = true, true, c.rcvNxt
	c.sendSegment(seg)
	c.armRTO()
}

// sendPureAck emits a standalone 40-byte acknowledgement. dup marks it as a
// DUPACK for the counters (the paper's AM component drops a fraction of
// these on the reverse path).
func (c *Conn) sendPureAck(dup bool) {
	if dup {
		c.stats.DupAcksSent++
		c.stack.reg.dupAcksSent.Inc()
	}
	seg := c.stack.pool.Get()
	seg.Seq, seg.Ack, seg.HasAck = c.sndNxt, c.rcvNxt, true
	c.sendSegment(seg)
}

// trySend transmits as much queued data as the congestion window allows and
// returns the number of data segments sent. Every data segment carries the
// current cumulative ACK, so any ACK owed to the peer is piggybacked
// automatically.
func (c *Conn) trySend() int {
	if c.state != StateEstablished || c.closed {
		return 0
	}
	sent := 0
	for {
		inFlight := c.sndNxt - c.sndUna
		if float64(inFlight) >= c.cwnd {
			break
		}
		avail := c.dataTail() - c.sndNxt
		if avail <= 0 {
			break
		}
		n := int(min(avail, MSS))
		seg := c.stack.pool.Get()
		seg.Seq, seg.Len, seg.Ack, seg.HasAck = c.sndNxt, n, c.rcvNxt, true
		seg.Msgs = c.appendMsgs(seg.Msgs[:0], seg.Seq, seg.Seq+int64(n))
		c.sndNxt += int64(n)
		c.stats.BytesSent += int64(n)
		if c.sndNxt > c.maxSent {
			c.maxSent = c.sndNxt
		} else {
			c.stats.Retransmits++
			c.stack.reg.retransmits.Inc()
		}
		c.sendSegment(seg)
		sent++
	}
	c.maybeSendFIN()
	if c.sndNxt > c.sndUna && !c.rtxTimer.Armed() {
		c.armRTO()
	}
	return sent
}

// dataTail returns the end of transmittable payload (excluding the FIN's
// virtual byte).
func (c *Conn) dataTail() int64 {
	if c.finQueued {
		return c.finSeq
	}
	return c.sndBufTail
}

func (c *Conn) maybeSendFIN() {
	if !c.finQueued || c.finSent || c.sndNxt != c.finSeq {
		return
	}
	if float64(c.sndNxt-c.sndUna) >= c.cwnd {
		return
	}
	seg := c.stack.pool.Get()
	seg.Seq, seg.FIN, seg.Ack, seg.HasAck = c.sndNxt, true, c.rcvNxt, true
	c.sendSegment(seg)
	c.sndNxt++ // FIN consumes one sequence number
	c.finSent = true
	if !c.rtxTimer.Armed() {
		c.armRTO()
	}
}

// retransmit resends the segment starting at seq.
func (c *Conn) retransmit(seq int64, fast bool) {
	c.stats.Retransmits++
	c.stack.reg.retransmits.Inc()
	if fast {
		c.stats.FastRetransmits++
		c.stack.reg.fastRetransmits.Inc()
	}
	if c.finSent && seq == c.finSeq {
		seg := c.stack.pool.Get()
		seg.Seq, seg.FIN, seg.Ack, seg.HasAck = seq, true, c.rcvNxt, true
		c.sendSegment(seg)
		return
	}
	n := int(min(min(c.dataTail(), c.sndNxt)-seq, MSS))
	if n <= 0 {
		return
	}
	seg := c.stack.pool.Get()
	seg.Seq, seg.Len, seg.Ack, seg.HasAck = seq, n, c.rcvNxt, true
	seg.Msgs = c.appendMsgs(seg.Msgs[:0], seq, seq+int64(n))
	c.sendSegment(seg)
}

// --- RTT and RTO ---

// takeSample folds one RTT measurement into the estimator and recomputes
// the RTO, un-backing-off any exponential backoff (RFC 6298 §5.7).
func (c *Conn) takeSample(rtt time.Duration) {
	if rtt < 0 {
		return
	}
	c.lastRTT = rtt
	if !c.hasSample {
		c.srtt = rtt
		c.rttvar = rtt / 2
		c.hasSample = true
	} else {
		diff := c.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + rtt) / 8
	}
	c.rto = min(max(c.srtt+4*c.rttvar, minRTO), maxRTO)
}

func (c *Conn) armRTO() { c.rtxTimer.Reset(c.rto) }

func (c *Conn) onRTO() {
	if c.closed {
		return
	}
	if c.retries >= maxRetries {
		c.teardown(ErrTimeout)
		return
	}
	c.retries++
	c.stats.Timeouts++
	c.stack.reg.rtos.Inc()
	c.rto = min(2*c.rto, maxRTO)
	switch c.state {
	case StateSynSent:
		seg := c.stack.pool.Get()
		seg.SYN = true
		c.sendSegment(seg)
	case StateSynRcvd:
		seg := c.stack.pool.Get()
		seg.SYN, seg.HasAck, seg.Ack = true, true, c.rcvNxt
		c.sendSegment(seg)
	case StateEstablished:
		flight := float64(c.sndNxt - c.sndUna)
		c.ssthresh = max(flight/2, 2*MSS)
		c.cwnd = MSS
		c.inRecovery = false
		c.dupAcks = 0
		if c.sndNxt > c.sndUna {
			// Go-back-N: everything beyond sndUna is treated as unsent and
			// re-covered as the window reopens. Without this, only the first
			// segment of a multi-segment loss would ever be retransmitted
			// and the connection would crawl at one MSS per RTO.
			c.sndNxt = c.sndUna
			if c.finSent && c.finSeq >= c.sndUna {
				c.finSent = false
			}
			c.trySend()
		}
	}
	c.armRTO()
}

// --- segment reception ---

func (c *Conn) handleSegment(seg *Segment) {
	if c.closed {
		return
	}
	c.stats.SegsRcvd++
	c.stack.reg.segsRcvd.Inc()
	if seg.RST {
		c.teardown(ErrReset)
		return
	}
	if seg.TSval > 0 && seg.Seq <= c.rcvNxt {
		// In-order (or duplicate) segment: remember its timestamp for
		// echoing, per the RFC 7323 rules.
		c.tsRecent = seg.TSval
	}

	switch c.state {
	case StateSynSent:
		if seg.SYN && seg.HasAck {
			c.establish()
			// Acknowledge the SYN-ACK, piggybacking on queued data if any.
			if c.trySend() == 0 {
				c.sendPureAck(false)
			}
		}
		return
	case StateSynRcvd:
		if seg.SYN && !seg.HasAck {
			// Duplicate SYN (our SYN-ACK was lost the first time, or this is
			// the very first SYN for a freshly accepted connection).
			c.sendSynAck()
			return
		}
		if seg.HasAck {
			// The handshake-completing ACK. Fall through to normal
			// processing so a piggybacked first data segment is honoured,
			// and flush any data the application queued while waiting.
			c.establish()
			c.trySend()
		} else {
			return
		}
	}

	if c.state != StateEstablished {
		return
	}
	if seg.HasAck {
		c.processAck(seg)
	}
	if seg.Len > 0 || seg.FIN {
		c.processData(seg)
	}
}

func (c *Conn) establish() {
	c.state = StateEstablished
	c.retries = 0
	c.rtxTimer.Stop()
	if c.OnEstablished != nil {
		c.OnEstablished()
	}
}

// processAck runs the NewReno sender state machine.
func (c *Conn) processAck(seg *Segment) {
	ack := seg.Ack
	switch {
	case ack > c.maxSent+boolToInt64(c.finSent):
		return // acks data we never sent; ignore
	case ack > c.sndUna:
		c.onNewAck(ack, seg)
	case ack == c.sndUna && c.sndNxt > c.sndUna && seg.IsPureAck():
		// A duplicate ACK. Only pure ACKs count: a data segment repeating
		// the ack number is ambiguous (the spec point the paper builds on).
		c.stats.DupAcksRcvd++
		c.stack.reg.dupAcksRcvd.Inc()
		c.onDupAck()
	}
}

func (c *Conn) onNewAck(ack int64, seg *Segment) {
	c.stack.reg.cwnd.Observe(int64(c.cwnd))
	acked := ack - c.sndUna
	c.sndUna = ack
	if ack > c.sndNxt {
		// After a timeout rollback the receiver can acknowledge data beyond
		// sndNxt (it had it all along); skip retransmitting it.
		c.sndNxt = ack
	}
	c.stats.BytesAcked = ack
	c.retries = 0
	c.pruneMsgs()
	if seg.TSecr > 0 {
		c.takeSample(c.stack.engine.Now() - seg.TSecr)
	}

	if c.inRecovery {
		if ack > c.recover {
			// Full acknowledgement: leave recovery, deflate.
			c.inRecovery = false
			c.dupAcks = 0
			c.cwnd = c.ssthresh
		} else {
			// Partial acknowledgement: the next hole is lost too.
			c.retransmit(ack, true)
			c.cwnd = max(c.cwnd-float64(acked)+MSS, MSS)
		}
	} else {
		c.dupAcks = 0
		if c.cwnd < c.ssthresh {
			// Slow start: one MSS per ACK (bounded by bytes acked).
			c.cwnd += min(float64(acked), MSS)
		} else {
			// Congestion avoidance: ~one MSS per RTT.
			c.cwnd += MSS * MSS / c.cwnd
		}
	}

	if c.sndNxt > c.sndUna {
		c.armRTO()
	} else {
		c.rtxTimer.Stop()
		c.maybeFinish()
	}
	c.trySend()
	if acked > 0 && c.OnWritable != nil && !c.closed {
		c.OnWritable()
	}
}

func (c *Conn) onDupAck() {
	if c.inRecovery {
		// Window inflation keeps the pipe full during recovery.
		c.cwnd += MSS
		c.trySend()
		return
	}
	c.dupAcks++
	if c.dupAcks == 3 {
		flight := float64(c.sndNxt - c.sndUna)
		c.ssthresh = max(flight/2, 2*MSS)
		c.recover = c.sndNxt
		c.inRecovery = true
		c.cwnd = c.ssthresh + 3*MSS
		c.retransmit(c.sndUna, true)
		c.armRTO()
	}
}

// processData runs the receiver: in-order delivery, out-of-order buffering,
// and the ACK policy. In-order arrivals are acknowledged by piggybacking on
// outbound data when there is any (the bidirectional case); otherwise by a
// pure ACK. Out-of-order arrivals always elicit an immediate pure DUPACK,
// never piggybacked, per the spec stipulation the paper discusses.
func (c *Conn) processData(seg *Segment) {
	segEnd := seg.Seq + int64(seg.Len)
	if seg.FIN {
		c.rcvdFin = true
		c.finRecvd = segEnd // FIN sits one past the payload
	}
	c.stashMsgs(seg.Msgs)

	if seg.Seq > c.rcvNxt { // gap: out-of-order
		if seg.Len > 0 {
			c.oooRecvd = addInterval(c.oooRecvd, interval{seg.Seq, segEnd})
		}
		c.sendPureAck(true)
		return
	}

	delivered := int64(0)
	if segEnd > c.rcvNxt {
		delivered = segEnd - c.rcvNxt
		c.rcvNxt = segEnd
	}
	// Merge any buffered segments made contiguous.
	for len(c.oooRecvd) > 0 && c.oooRecvd[0].start <= c.rcvNxt {
		iv := c.oooRecvd[0]
		c.oooRecvd = c.oooRecvd[:copy(c.oooRecvd, c.oooRecvd[1:])]
		if iv.end > c.rcvNxt {
			delivered += iv.end - c.rcvNxt
			c.rcvNxt = iv.end
		}
	}
	finNow := false
	if c.rcvdFin && c.rcvNxt == c.finRecvd {
		c.rcvNxt++ // consume the FIN's sequence number
		finNow = true
	}

	if delivered > 0 {
		c.stats.BytesDelivered += delivered
		if c.OnDeliver != nil {
			c.OnDeliver(int(delivered))
		}
		c.fireMsgs()
	}

	// ACK policy (delayed ACKs, RFC 1122): prefer piggybacking on data we
	// are about to send; otherwise withhold the ACK until a second segment
	// is owed or the delayed-ACK timer fires. This is why "ACKs in the
	// reverse path are almost always piggybacked" during bidirectional
	// P2P exchange — and why those ACKs inherit the data packets' loss
	// rate, the vulnerability AM's decoupling removes.
	c.ackOwed++
	if c.trySend() == 0 {
		switch {
		case finNow || c.ackOwed >= 2:
			c.sendPureAck(false)
		case !c.delAckTimer.Armed():
			c.delAckTimer.Reset(delAckTimeout)
		}
	}
	if finNow {
		c.teardown(nil)
	}
}

// maybeFinish closes the connection once our FIN has been acknowledged.
func (c *Conn) maybeFinish() {
	if c.finSent && c.sndUna == c.finSeq+1 {
		c.teardown(ErrClosed)
	}
}

// addInterval inserts iv into a sorted disjoint set, merging overlaps, in
// set's own storage: a receiver in a loss episode calls it once a segment.
func addInterval(set []interval, iv interval) []interval {
	lo := 0
	for lo < len(set) && set[lo].end < iv.start {
		lo++
	}
	hi := lo
	for hi < len(set) && set[hi].start <= iv.end {
		if set[hi].start < iv.start {
			iv.start = set[hi].start
		}
		if set[hi].end > iv.end {
			iv.end = set[hi].end
		}
		hi++
	}
	if hi == lo { // nothing merged: open a slot at lo
		set = append(set, interval{})
		copy(set[lo+1:], set[lo:])
	} else { // set[lo:hi] collapse into one
		set = append(set[:lo+1], set[hi:]...)
	}
	set[lo] = iv
	return set
}

func boolToInt64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
