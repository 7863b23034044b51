package tcp

import (
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
)

// captureSegs records snapshots of TCP segments leaving an interface
// (snapshots, not pointers: the receiving stack recycles segments, so a
// retained *Segment would describe whatever reuses the struct).
func captureSegs(stack *Stack) *[]Segment {
	segs := &[]Segment{}
	stack.Iface().AddEgressFilter(netem.FilterFunc(func(p *netem.Packet, out []*netem.Packet) []*netem.Packet {
		if seg, ok := p.Payload.(*Segment); ok {
			*segs = append(*segs, seg.Snapshot())
		}
		return append(out, p)
	}))
	return segs
}

func TestDelayedAckCoalescesPairs(t *testing.T) {
	// A one-way bulk transfer with delayed ACKs: the receiver must send
	// roughly one ACK per two segments, not one per segment.
	w := newWorld(30)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, server := connect(t, w, sa, sb, 80)
	received := 0
	server.OnDeliver = func(n int) { received += n }
	client.Write(400_000)
	w.engine.RunFor(30 * time.Second)
	if received != 400_000 {
		t.Fatalf("received %d", received)
	}
	segs := int64(274) // 400000 / 1460 rounded up
	acks := server.stats.PureAcksSent
	if acks > segs*3/4 {
		t.Errorf("receiver sent %d acks for %d segments; delayed ACKs should halve that", acks, segs)
	}
	if acks < segs/4 {
		t.Errorf("receiver sent only %d acks for %d segments; suspiciously few", acks, segs)
	}
}

func TestDelayedAckTimerFiresWhenIdle(t *testing.T) {
	// A single small segment must still be acknowledged (within the delack
	// timeout), otherwise the sender would RTO.
	w := newWorld(31)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, _ := connect(t, w, sa, sb, 80)
	client.Write(100)
	w.engine.RunFor(2 * time.Second)
	if client.Buffered() != 0 {
		t.Fatalf("lone segment never acknowledged: buffered=%d", client.Buffered())
	}
	if client.stats.Timeouts != 0 {
		t.Errorf("sender RTOed %d times waiting for a delayed ack", client.stats.Timeouts)
	}
}

func TestPiggybackDominatesBidirectionalExchange(t *testing.T) {
	// With data flowing both ways and delayed ACKs, most acknowledgements
	// should ride on data packets — the paper's premise that "ACKs in the
	// reverse path are almost always piggybacked".
	w := newWorld(32)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, server := connect(t, w, sa, sb, 80)
	rx := 0
	server.OnDeliver = func(n int) { rx += n }
	client.Write(500_000)
	server.Write(500_000)
	w.engine.RunFor(60 * time.Second)
	if rx != 500_000 {
		t.Fatalf("received %d", rx)
	}
	st := server.stats
	if st.PiggybackedAcks < st.PureAcksSent {
		t.Errorf("piggybacked %d < pure %d; bidirectional exchange should piggyback most acks",
			st.PiggybackedAcks, st.PureAcksSent)
	}
}

func TestTimestampsRecoverRTOAfterBackoff(t *testing.T) {
	// Black-hole the link for a while to force RTO backoff, then restore
	// it: echoed timestamps must bring the RTO back down so the connection
	// resumes at full speed instead of crawling at the backed-off value.
	w := newWorld(33)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, server := connect(t, w, sa, sb, 80)
	received := 0
	server.OnDeliver = func(n int) { received += n }
	blocked := false
	sa.Iface().AddEgressFilter(netem.FilterFunc(func(p *netem.Packet, out []*netem.Packet) []*netem.Packet {
		if blocked {
			return out
		}
		return append(out, p)
	}))
	client.Write(2_000_000)
	w.engine.RunFor(2 * time.Second)
	blocked = true
	w.engine.RunFor(20 * time.Second) // several RTO doublings
	blocked = false
	w.engine.RunFor(60 * time.Second)
	if received != 2_000_000 {
		t.Fatalf("received %d after link restoration, want all", received)
	}
	if client.state != StateEstablished {
		t.Fatalf("connection died during the outage: %v", client.state)
	}
}

func TestAckOwedResetOnDataSend(t *testing.T) {
	// When the receiver has reverse data, the piggybacked ack must cancel
	// the pending delayed-ACK (no redundant pure ack afterwards).
	w := newWorld(34)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, server := connect(t, w, sa, sb, 80)
	segs := captureSegs(sb)
	client.Write(1000) // one segment to B
	w.engine.RunFor(50 * time.Millisecond)
	server.Write(1000) // B responds with data before the delack timer fires
	w.engine.RunFor(5 * time.Second)
	// Count pure acks B sent after its data; there should be none
	// triggered by the original segment.
	pureAfterData := 0
	seenData := false
	for _, s := range *segs {
		if s.Len > 0 {
			seenData = true
			continue
		}
		if seenData && s.IsPureAck() {
			pureAfterData++
		}
	}
	if pureAfterData > 0 {
		t.Errorf("%d redundant pure acks after piggybacking", pureAfterData)
	}
}
