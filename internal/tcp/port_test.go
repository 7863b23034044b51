package tcp

import (
	"errors"
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
)

func TestAllocPortSkipsListeners(t *testing.T) {
	w := newWorld(20)
	s := w.wiredHost(1)
	s.MustListen(ephemeralBase, func(c *Conn) {})
	s.MustListen(ephemeralBase+1, func(c *Conn) {})
	p, err := s.allocPort()
	if err != nil {
		t.Fatalf("allocPort: %v", err)
	}
	if p != ephemeralBase+2 {
		t.Errorf("allocPort = %d, want %d (listener ports skipped)", p, ephemeralBase+2)
	}
}

func TestAllocPortWraparoundSkipsLivePorts(t *testing.T) {
	// After the 16-bit counter wraps past 65535 back to 49152, allocPort
	// must not hand out a port that a live connection still occupies: the
	// resulting four-tuple collision would silently overwrite the demux
	// entry and orphan the established conn.
	w := newWorld(21)
	a, b := w.wiredHost(1), w.wiredHost(2)
	c1, _ := connect(t, w, a, b, 80)
	first := c1.LocalAddr().Port
	if first != ephemeralBase {
		t.Fatalf("first ephemeral port = %d, want %d", first, ephemeralBase)
	}

	// Exhaust the counter so the next allocation wraps onto c1's port.
	a.nextPort = 0xffff
	if _, err := a.allocPort(); err != nil { // 65535
		t.Fatalf("allocPort: %v", err)
	}
	// The wrapped counter now points at ephemeralBase == c1's local port.
	if a.nextPort != ephemeralBase {
		t.Fatalf("counter after wrap = %d, want %d", a.nextPort, ephemeralBase)
	}

	c2 := a.MustDial(netem.Addr{IP: 2, Port: 80})
	w.engine.RunFor(2 * time.Second)
	if c2.state != StateEstablished {
		t.Fatalf("post-wrap dial not established: %v", c2.state)
	}
	if got := c2.LocalAddr().Port; got == first {
		t.Fatalf("post-wrap dial reused live port %d: four-tuple collision", got)
	}
	// The original connection must still be reachable and intact.
	if c1.state != StateEstablished {
		t.Errorf("original conn damaged by wraparound dial: %v", c1.state)
	}
	if len(a.conns) != 2 {
		t.Errorf("NumConns = %d, want 2", len(a.conns))
	}
	var report []string
	a.CheckState(func(inv, detail string) { report = append(report, inv+": "+detail) })
	if len(report) != 0 {
		t.Errorf("stack invariants violated after wraparound: %v", report)
	}
}

func TestAllocPortReleasesClosedPorts(t *testing.T) {
	// Ports return to the pool once their conn fully tears down: dialing,
	// closing, and re-dialing forever must not exhaust the space.
	w := newWorld(22)
	a, b := w.wiredHost(1), w.wiredHost(2)
	b.MustListen(80, func(c *Conn) {})
	for i := 0; i < 5; i++ {
		c := a.MustDial(netem.Addr{IP: 2, Port: 80})
		w.engine.RunFor(2 * time.Second)
		if c.state != StateEstablished {
			t.Fatalf("dial %d not established", i)
		}
		c.Close()
		w.engine.RunFor(5 * time.Second)
	}
	if len(a.conns) != 0 {
		t.Fatalf("%d conns still live after all closes", len(a.conns))
	}
	for p := uint32(ephemeralBase); p <= 0xffff; p++ {
		if a.portInUse(uint16(p)) {
			t.Errorf("port %d still marked in use after all conns closed", p)
		}
	}
}

func TestAllocPortExhaustionReturnsError(t *testing.T) {
	w := newWorld(23)
	s := w.wiredHost(1)
	// Mark every ephemeral port as in use.
	for p := uint32(ephemeralBase); p <= 0xffff; p++ {
		s.MustListen(uint16(p), func(c *Conn) {})
	}
	if _, err := s.allocPort(); !errors.Is(err, ErrPortExhausted) {
		t.Errorf("allocPort with full port space = %v, want ErrPortExhausted", err)
	}
	if _, err := s.Dial(netem.Addr{IP: 2, Port: 80}); !errors.Is(err, ErrPortExhausted) {
		t.Errorf("Dial with full port space = %v, want ErrPortExhausted", err)
	}
}

// TestDialChurnPastPortSpace is the regression test for the exhaustion
// contract: a client that dials and closes for longer than the 16K
// ephemeral range must keep getting fresh ports (reuse after teardown), and
// the moment the range genuinely fills the stack must report
// ErrPortExhausted instead of panicking.
func TestDialChurnPastPortSpace(t *testing.T) {
	w := newWorld(24)
	a, b := w.wiredHost(1), w.wiredHost(2)
	b.MustListen(80, func(c *Conn) {})

	// Churn past the port space: more dial/abort cycles than there are
	// ephemeral ports. Abort tears down both ends within a few RTTs, so the
	// ports recycle and every dial must succeed.
	const cycles = (1 << 14) + 64
	for i := 0; i < cycles; i++ {
		c, err := a.Dial(netem.Addr{IP: 2, Port: 80})
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		w.engine.RunFor(time.Second)
		c.Abort()
		w.engine.RunFor(time.Second)
	}
	if len(a.conns) != 0 {
		t.Fatalf("%d conns leaked during churn", len(a.conns))
	}

	// Now pin every port with a live dial (no teardown): the first 1<<14
	// dials get the whole range, the next must fail gracefully.
	for i := 0; i < 1<<14; i++ {
		if _, err := a.Dial(netem.Addr{IP: 2, Port: 80}); err != nil {
			t.Fatalf("dial %d with %d ports free: %v", i, 1<<14-i, err)
		}
	}
	if _, err := a.Dial(netem.Addr{IP: 2, Port: 80}); !errors.Is(err, ErrPortExhausted) {
		t.Fatalf("dial past full range = %v, want ErrPortExhausted", err)
	}
}
