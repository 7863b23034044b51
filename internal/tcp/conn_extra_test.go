package tcp

import (
	"errors"
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
)

func TestOnWritableFiresAsBufferDrains(t *testing.T) {
	w := newWorld(60)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, _ := connect(t, w, sa, sb, 80)
	fired := 0
	var minBuffered int64 = 1 << 62
	client.SetOnWritable(func() {
		fired++
		if b := client.Buffered(); b < minBuffered {
			minBuffered = b
		}
	})
	client.Write(100_000)
	w.engine.RunFor(10 * time.Second)
	if fired == 0 {
		t.Fatal("OnWritable never fired")
	}
	if minBuffered != 0 {
		t.Errorf("buffer never drained to 0 by the last OnWritable: %d", minBuffered)
	}
}

func TestListenerCloseStopsAccepting(t *testing.T) {
	w := newWorld(61)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	accepted := 0
	l := sb.MustListen(80, func(c *Conn) { accepted++ })
	c1 := sa.MustDial(netem.Addr{IP: 2, Port: 80})
	w.engine.RunFor(time.Second)
	l.Close()
	var refused error
	c2 := sa.MustDial(netem.Addr{IP: 2, Port: 80})
	c2.SetOnClose(func(err error) { refused = err })
	w.engine.RunFor(2 * time.Second)
	if accepted != 1 {
		t.Errorf("accepted = %d, want 1", accepted)
	}
	if refused == nil {
		t.Error("dial after listener close was not refused")
	}
	if c1.state != StateEstablished {
		t.Error("existing connection was affected by listener close")
	}
}

func TestDuplicatePortListen(t *testing.T) {
	w := newWorld(62)
	sa := w.wiredHost(1)
	sa.MustListen(80, nil)
	if _, err := sa.Listen(80, nil); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("duplicate Listen = %v, want ErrAddrInUse", err)
	}
	// MustListen is the one explicit fatal path for construction code.
	defer func() {
		if recover() == nil {
			t.Error("duplicate MustListen did not panic")
		}
	}()
	sa.MustListen(80, nil)
}

// TestListenReuseAfterClose pins the addr-reuse contract: closing a
// listener frees the port for a fresh Listen, and the fresh listener — not
// the stale closed one — receives subsequent accepts.
func TestListenReuseAfterClose(t *testing.T) {
	w := newWorld(64)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	stale, fresh := 0, 0
	l1 := sb.MustListen(80, func(c *Conn) { stale++ })
	l1.Close()
	if _, err := sb.Listen(80, func(c *Conn) { fresh++ }); err != nil {
		t.Fatalf("re-listen after close: %v", err)
	}
	// Closing the stale handle again must not evict the fresh listener.
	l1.Close()
	sa.MustDial(netem.Addr{IP: 2, Port: 80})
	w.engine.RunFor(time.Second)
	if stale != 0 || fresh != 1 {
		t.Errorf("accepts after rebind: stale=%d fresh=%d, want 0/1", stale, fresh)
	}
}

// TestListenerCloseResetsInFlightSYN is the in-flight-SYN regression test:
// a SYN already on the wire when the listener closes must be refused with a
// RST — never accepted through the stale onAccept.
func TestListenerCloseResetsInFlightSYN(t *testing.T) {
	w := newWorld(65)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	accepted := 0
	l := sb.MustListen(80, func(c *Conn) { accepted++ })
	// Dial now: the SYN is queued on the wire ...
	c := sa.MustDial(netem.Addr{IP: 2, Port: 80})
	var closeErr error
	c.SetOnClose(func(err error) { closeErr = err })
	// ... and the listener closes before it arrives.
	l.Close()
	w.engine.RunFor(2 * time.Second)
	if accepted != 0 {
		t.Fatalf("stale onAccept ran %d times after Close", accepted)
	}
	if !errors.Is(closeErr, ErrReset) {
		t.Errorf("in-flight SYN close error = %v, want ErrReset", closeErr)
	}
	if c.state != StateClosed {
		t.Errorf("dialer state = %v, want closed", c.state)
	}
}

func TestEphemeralPortsSkipListeners(t *testing.T) {
	w := newWorld(63)
	sa := w.wiredHost(1)
	sa.MustListen(49153, nil) // inside the ephemeral range
	seen := map[uint16]bool{}
	for i := 0; i < 100; i++ {
		c := sa.MustDial(netem.Addr{IP: 99, Port: 1})
		p := c.LocalAddr().Port
		if p == 49153 {
			t.Fatal("ephemeral allocation returned a listening port")
		}
		if seen[p] {
			t.Fatalf("ephemeral port %d reused while conn alive", p)
		}
		seen[p] = true
	}
}

func TestStatsCounters(t *testing.T) {
	w := newWorld(64)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, server := connect(t, w, sa, sb, 80)
	client.Write(50_000)
	w.engine.RunFor(10 * time.Second)
	cs, ss := client.stats, server.stats
	if cs.BytesSent != 50_000 || cs.BytesAcked != 50_000 {
		t.Errorf("client stats: %+v", cs)
	}
	if ss.BytesDelivered != 50_000 {
		t.Errorf("server delivered %d", ss.BytesDelivered)
	}
	if cs.SegsSent == 0 || cs.SegsRcvd == 0 {
		t.Error("segment counters empty")
	}
	if client.srtt == 0 {
		t.Error("no RTT estimate formed")
	}
	if client.LocalAddr().IP != 1 || client.RemoteAddr().IP != 2 {
		t.Error("addresses wrong")
	}
}

func TestWriteAfterCloseIgnored(t *testing.T) {
	w := newWorld(65)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, server := connect(t, w, sa, sb, 80)
	received := 0
	server.SetOnDeliver(func(n int) { received += n })
	client.Write(1000)
	client.Close()
	client.Write(5000) // after Close: must be ignored
	w.engine.RunFor(5 * time.Second)
	if received != 1000 {
		t.Errorf("received %d, want only the pre-close 1000", received)
	}
}

func TestBidirectionalClose(t *testing.T) {
	w := newWorld(66)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, server := connect(t, w, sa, sb, 80)
	closedA, closedB := false, false
	client.SetOnClose(func(error) { closedA = true })
	server.SetOnClose(func(error) { closedB = true })
	client.Write(10_000)
	server.Write(10_000)
	client.Close()
	server.Close()
	w.engine.RunFor(30 * time.Second)
	if !closedA || !closedB {
		t.Errorf("both sides should close: a=%v b=%v", closedA, closedB)
	}
	if len(sa.conns) != 0 || len(sb.conns) != 0 {
		t.Errorf("conns leaked: %d/%d", len(sa.conns), len(sb.conns))
	}
}
