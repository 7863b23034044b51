package bt

import (
	"testing"
	"time"
	"unsafe"
)

// connPath is two clients that only listen — no tracker, no choker — so that
// a connection is made when the test dials and is all that happens: the dial,
// both handshakes at have = ∅, and the teardown. The target is the dialer's
// one table entry; neither client is started, so nothing else dials it.
type connPath struct {
	env            *swarmEnv
	dialer, target *Client
}

func newConnPath(tb testing.TB, target Config) *connPath {
	cp := &connPath{env: newSwarmEnv(93, 64*BlockSize, 4*BlockSize)}
	cp.dialer, cp.target = cp.env.client(Config{}), cp.env.client(target)
	for _, c := range []*Client{cp.dialer, cp.target} {
		l, err := c.tr.Listen(c.cfg.Port, c.onAccept)
		if err != nil {
			tb.Fatal(err)
		}
		c.listener = l
	}
	cp.dialer.addKnown(PeerInfo{ID: cp.target.peerID, Addr: cp.target.Addr()})
	return cp
}

// connect dials the target and lets the handshakes finish, or the refusal
// arrive.
func (cp *connPath) connect() {
	cp.dialer.dial(&cp.dialer.addrs[0])
	cp.env.engine.RunFor(time.Second)
}

// cycle is one connection's life: connect, then the dialer hangs up.
func (cp *connPath) cycle(tb testing.TB) {
	cp.connect()
	e := &cp.dialer.addrs[0]
	if len(cp.dialer.peers) != 1 || len(cp.target.peers) != 1 || !cp.dialer.peers[0].gotHandshake || !cp.target.peers[0].gotHandshake {
		tb.Fatalf("handshake incomplete: %d and %d peers", len(cp.dialer.peers), len(cp.target.peers))
	}
	if e.peer != cp.dialer.peers[0] || e.retryAt != 0 {
		tb.Fatalf("after the handshake the entry holds the peer: %v, cools down to %v", e.peer == cp.dialer.peers[0], e.retryAt)
	}
	cp.dialer.peers[0].close()
	cp.env.engine.RunFor(time.Second)
	if len(cp.dialer.peers)+len(cp.target.peers)+cp.dialer.dialing != 0 || e.peer != nil {
		tb.Fatalf("teardown incomplete: %d and %d peers, %d dialing, entry released: %v", len(cp.dialer.peers), len(cp.target.peers), cp.dialer.dialing, e.peer == nil)
	}
}

// TestHandshakeObjects pins what a connection costs above the transport, pools
// warm, on a swarm with no piece to talk about: no bitfield is cloned to send
// or to receive one, no piece-map words, estimator or cancel set is made that
// nothing will use, the dial closes over nothing, and both handshakes are
// each client's one shared msgHandshake. What is left, on both clients: 2
// tcp.Conns and their 2 framed-message queues, 2 peerConns and the 7
// callbacks the seam has them register (3 each and the dialer's
// onEstablished): 13. The parent made 15, two of them boxed handshakes.
func TestHandshakeObjects(t *testing.T) {
	cp := newConnPath(t, Config{})
	for i := 0; i < 10; i++ {
		cp.cycle(t)
	}
	sent, hs := cp.dialer.haveSent, cp.dialer.handshake
	got := testing.AllocsPerRun(50, func() { cp.cycle(t) })
	t.Logf("%.0f objects per connection, both ends", got)
	if got > 13 {
		t.Errorf("a connection allocates %.0f objects, want <= 13", got)
	}
	// Most connections of a crowd are refused or reset unused, so a byte in
	// the struct is paid twenty thousand times: stay inside the size class.
	if size := unsafe.Sizeof(peerConn{}); size > 320 {
		t.Errorf("peerConn is %d B, past the 320 B size class", size)
	}
	// Every client of a crowd holds an entry per peer it was told of.
	if size := unsafe.Sizeof(addrEntry{}); size > 40 {
		t.Errorf("addrEntry is %d B, want <= 40", size)
	}
	if sent == nil || cp.dialer.haveSent != sent {
		t.Error("handshakes at an unchanged have did not share one bitfield")
	}
	if hs == nil || cp.dialer.handshake != hs {
		t.Error("handshakes at an unchanged peer-id did not share one msgHandshake")
	}
}

// TestRefusedDialObjects: most connections of a flash crowd are dials the
// far side refuses at its MaxPeers — it accepts at the transport, then
// resets — after our handshake is already on its way. Such a dial costs the
// dialer its tcp.Conn and framed-message queue, its peerConn and 4 callbacks,
// and the target its tcp.Conn: 8. The parent made 9, one of them a boxed
// handshake.
func TestRefusedDialObjects(t *testing.T) {
	cp := newConnPath(t, Config{MaxPeers: 1})
	_, held := foreignPeer(t, cp.env, cp.target) // the target's one slot
	refused := func() {
		cp.connect()
		if len(cp.dialer.peers)+cp.dialer.dialing != 0 || len(cp.target.peers) != 1 || cp.target.peers[0] != held {
			t.Fatalf("dial not refused: dialer has %d peers and %d dialing, target %d",
				len(cp.dialer.peers), cp.dialer.dialing, len(cp.target.peers))
		}
	}
	for i := 0; i < 10; i++ {
		refused()
	}
	got := testing.AllocsPerRun(50, refused)
	t.Logf("%.0f objects per refused dial, both ends", got)
	if got > 8 {
		t.Errorf("a refused dial allocates %.0f objects, want <= 8", got)
	}
	if e := cp.dialer.addrs[0]; e.retryAt == 0 || e.peer != nil {
		t.Errorf("after a refused dial the address cools down to %v, released: %v", e.retryAt, e.peer == nil)
	}
}

// BenchmarkConnSetup is one connection's life on both clients: dial, both
// handshakes, teardown.
func BenchmarkConnSetup(b *testing.B) {
	cp := newConnPath(b, Config{})
	for i := 0; i < 10; i++ {
		cp.cycle(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp.cycle(b)
	}
}
