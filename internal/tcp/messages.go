package tcp

import "sort"

// AppMessage is an application message framed inside the byte stream. End is
// the stream offset one past the message's final byte; Val is the decoded
// message object. Payload bytes are counted rather than stored, so framing
// travels with the segment that carries the message's last byte — a message
// is deliverable exactly when TCP has delivered that byte in order, which
// preserves real timing under loss, retransmission, and reordering.
type AppMessage struct {
	End int64
	Val any
}

// pendingMsgsCap and rcvdMsgsCap are what a connection's two framing queues
// start with, carved from one allocation by its first message: three in four
// connections of the figure suite never hold more (a handshake and a bitfield
// unacknowledged, one message awaiting its bytes), and one that carries no
// message — most of a flash crowd's — pays nothing. A queue that outgrows its
// share doubles on the heap.
const pendingMsgsCap, rcvdMsgsCap = 2, 1

func (c *Conn) makeMsgQueues() {
	buf := make([]AppMessage, pendingMsgsCap+rcvdMsgsCap)
	c.pendingMsgs = buf[:0:pendingMsgsCap]
	c.rcvdMsgs = buf[pendingMsgsCap:pendingMsgsCap]
}

// SendMessage frames a message of wireLen bytes onto the stream and queues
// it for transmission. Mixing SendMessage with raw Write on one connection
// is unsupported. wireLen must be positive.
func (c *Conn) SendMessage(val any, wireLen int) {
	if c.closed || c.finQueued || wireLen <= 0 {
		return
	}
	if c.pendingMsgs == nil {
		c.makeMsgQueues()
	}
	c.sndBufTail += int64(wireLen)
	c.pendingMsgs = append(c.pendingMsgs, AppMessage{End: c.sndBufTail, Val: val})
	if c.state == StateEstablished {
		c.trySend()
	}
}

// appendMsgs appends the framed messages whose final byte lies in [seq, end)
// — those completed by a segment spanning that range — to dst and returns
// it. Callers pass the segment's recycled Msgs storage so framing a pooled
// segment reuses its previous capacity.
func (c *Conn) appendMsgs(dst []AppMessage, seq, end int64) []AppMessage {
	// pendingMsgs is sorted by End; find (seq, end].
	lo := sort.Search(len(c.pendingMsgs), func(i int) bool { return c.pendingMsgs[i].End > seq })
	hi := sort.Search(len(c.pendingMsgs), func(i int) bool { return c.pendingMsgs[i].End > end })
	return append(dst, c.pendingMsgs[lo:hi]...)
}

// pruneMsgs discards framing for fully acknowledged messages.
func (c *Conn) pruneMsgs() {
	i := sort.Search(len(c.pendingMsgs), func(i int) bool { return c.pendingMsgs[i].End > c.sndUna })
	if i > 0 {
		c.pendingMsgs = append(c.pendingMsgs[:0], c.pendingMsgs[i:]...)
	}
}

// stashMsgs records framing carried by a received segment. Duplicates from
// retransmissions are ignored.
func (c *Conn) stashMsgs(msgs []AppMessage) {
	if c.pendingMsgs == nil && len(msgs) > 0 {
		c.makeMsgQueues()
	}
	for _, m := range msgs {
		if m.End <= c.firedThrough {
			continue
		}
		i := sort.Search(len(c.rcvdMsgs), func(i int) bool { return c.rcvdMsgs[i].End >= m.End })
		if i < len(c.rcvdMsgs) && c.rcvdMsgs[i].End == m.End {
			continue
		}
		c.rcvdMsgs = append(c.rcvdMsgs, AppMessage{})
		copy(c.rcvdMsgs[i+1:], c.rcvdMsgs[i:])
		c.rcvdMsgs[i] = m
	}
}

// fireMsgs delivers messages whose bytes have arrived in order. The queue is
// a few entries long and pops by copying down, not by reslicing from the
// front, so stashMsgs keeps appending into the same backing array. The pop is
// complete before OnMessage runs, which may re-enter.
func (c *Conn) fireMsgs() {
	for len(c.rcvdMsgs) > 0 && c.rcvdMsgs[0].End <= c.rcvNxt {
		m := c.rcvdMsgs[0]
		n := copy(c.rcvdMsgs, c.rcvdMsgs[1:])
		c.rcvdMsgs[n] = AppMessage{}
		c.rcvdMsgs = c.rcvdMsgs[:n]
		c.firedThrough = m.End
		if c.OnMessage != nil && !c.closed {
			c.OnMessage(m.Val)
		}
	}
}
