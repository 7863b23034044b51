package bt

import (
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/transport"
)

// dialCounter is a transport that counts, per address, the dials it opened,
// those that have neither been established nor closed, and the most at once.
type dialCounter struct {
	transport.Interface
	dials, inFlight, most map[netem.Addr]int
}

func newDialCounter(env *swarmEnv) *dialCounter {
	return &dialCounter{
		Interface: transport.NewSim(env.wiredStack(0, 0)),
		dials:     make(map[netem.Addr]int),
		inFlight:  make(map[netem.Addr]int),
		most:      make(map[netem.Addr]int),
	}
}

func (d *dialCounter) Dial(remote netem.Addr) (transport.Conn, error) {
	conn, err := d.Interface.Dial(remote)
	if err != nil {
		return nil, err
	}
	d.dials[remote]++
	d.inFlight[remote]++
	d.most[remote] = max(d.most[remote], d.inFlight[remote])
	return &countedConn{Conn: conn, d: d, remote: remote}, nil
}

// countedConn settles its dial once, on whichever of establishment and
// close comes first.
type countedConn struct {
	transport.Conn
	d       *dialCounter
	remote  netem.Addr
	settled bool
}

func (c *countedConn) settle() {
	if !c.settled {
		c.settled = true
		c.d.inFlight[c.remote]--
	}
}

func (c *countedConn) SetOnEstablished(fn func()) {
	c.Conn.SetOnEstablished(func() { c.settle(); fn() })
}

func (c *countedConn) SetOnClose(fn func(error)) {
	c.Conn.SetOnClose(func(err error) { c.settle(); fn(err) })
}

// checkAddrs fails the test on any broken invariant of c, the address
// table's bt.addrs among them.
func checkAddrs(t *testing.T, c *Client) {
	t.Helper()
	c.CheckState(func(invariant, detail string) { t.Errorf("%s: %s", invariant, detail) })
}

// blackhole is an address nobody answers: a SYN to it retries for 363 s.
var blackhole = PeerInfo{ID: "-XX0000-vanished-pe", Addr: netem.Addr{IP: 99, Port: 6881}}

// TestOneDialPerAddress: a client that knows one vanished address dials it
// once and waits for that SYN to give up before dialling it again. The
// parent re-dialled it every 45 s cool-down while the earlier SYNs were still
// retrying, four at once by the third minute.
func TestOneDialPerAddress(t *testing.T) {
	env := newSwarmEnv(96, 8*BlockSize, BlockSize)
	tr := newDialCounter(env)
	c := env.client(Config{Transport: tr})
	c.addKnown(blackhole)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	reg := env.engine.Stats()
	env.engine.RunFor(3 * time.Minute)
	if n := tr.most[blackhole.Addr]; n != 1 {
		t.Errorf("%d dials in flight at once to one address, want 1", n)
	}
	if d, f := reg.Counter("bt.dials").Value(), reg.Counter("bt.dials_failed").Value(); d != 1 || f != 0 {
		t.Errorf("after 3 min: bt.dials %d, bt.dials_failed %d, want 1 and 0", d, f)
	}
	// The SYN gives up at 363 s, and the address is dialled again at once:
	// its cool-down ran out long before.
	env.engine.RunFor(4 * time.Minute)
	if d, f := reg.Counter("bt.dials").Value(), reg.Counter("bt.dials_failed").Value(); d != 2 || f != 1 {
		t.Errorf("after 7 min: bt.dials %d, bt.dials_failed %d, want 2 and 1", d, f)
	}
	if n := tr.most[blackhole.Addr]; n != 1 {
		t.Errorf("%d dials in flight at once to one address, want 1", n)
	}
	checkAddrs(t, c)
}

// TestStopAbortsDialsInFlight: a dial still in flight when the client stops
// never becomes a peer. The parent closed only its peers, so the dial
// completed afterwards and the stopped client handshook and held it.
func TestStopAbortsDialsInFlight(t *testing.T) {
	env := newSwarmEnv(97, 8*BlockSize, BlockSize)
	seed := env.client(Config{Seed: true})
	c := env.client(Config{})
	for _, cl := range []*Client{seed, c} {
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
	}
	c.addKnown(PeerInfo{ID: seed.PeerID(), Addr: seed.Addr()})
	c.maintainConnections()
	if c.dialing != 1 {
		t.Fatalf("%d dials in flight, want 1", c.dialing)
	}
	c.Stop()
	env.engine.RunFor(time.Minute)
	if n, m := c.NumPeers(), seed.NumPeers(); n+m+c.dialing != 0 {
		t.Errorf("after Stop: the client holds %d peers and %d dials, the seed %d peers", n, c.dialing, m)
	}
	checkAddrs(t, c)
}

// TestRestartAbortsDialsInFlight: a restart tears down the dials it made from
// the old address too, so the slot a vanished address held is free for a
// live one at once. The parent left the SYN retrying: with one slot, the
// restarted client reached no peer until it gave up at 363 s.
func TestRestartAbortsDialsInFlight(t *testing.T) {
	env := newSwarmEnv(98, 8*BlockSize, BlockSize)
	seed := env.client(Config{Seed: true})
	if err := seed.Start(); err != nil {
		t.Fatal(err)
	}
	env.engine.RunFor(time.Second) // the seed is at the tracker
	tr := newDialCounter(env)
	c := env.client(Config{Transport: tr, MaxPeers: 1})
	c.addKnown(blackhole) // oldest, so dialled first
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	env.engine.RunFor(10 * time.Second)
	if c.NumPeers() != 0 || tr.inFlight[blackhole.Addr] != 1 {
		t.Fatalf("before Restart: %d peers, %d dials to the vanished address; want its dial to hold the slot",
			c.NumPeers(), tr.inFlight[blackhole.Addr])
	}
	c.Restart(false)
	if n := tr.inFlight[blackhole.Addr]; n != 0 {
		t.Errorf("Restart left %d dials to the vanished address in flight", n)
	}
	checkAddrs(t, c)
	env.engine.RunFor(10 * time.Second)
	if c.NumPeers() != 1 || c.peers[0].id != seed.PeerID() {
		t.Errorf("after Restart: %d peers, want the seed in the freed slot", c.NumPeers())
	}
	checkAddrs(t, c)
}

// TestInboundPeerNotDialled: a peer that connected to us is its host's table
// entry, so the tracker naming its listen address does not make us dial it.
// The parent kept inbound peers out of the table and dialled the address
// every 45 s cool-down; each such connection completed its handshake and the
// duplicate rule closed one of the two.
func TestInboundPeerNotDialled(t *testing.T) {
	env := newSwarmEnv(99, 16<<20, 256<<10)
	tr := newDialCounter(env)
	fixed := env.client(Config{Transport: tr, Seed: true, UploadLimiter: NewLimiter(env.engine, 16*netem.KBps)})
	if err := fixed.Start(); err != nil {
		t.Fatal(err)
	}
	env.engine.RunFor(time.Second) // the seed is at the tracker, so the leech dials it
	leech := env.client(Config{})
	if err := leech.Start(); err != nil {
		t.Fatal(err)
	}
	env.engine.RunFor(5 * time.Second)
	if len(fixed.peers) != 1 || !fixed.peers[0].inbound {
		t.Fatalf("setup: the seed holds %d peers, want the leech inbound", len(fixed.peers))
	}
	first := fixed.peers[0]
	env.engine.RunFor(10 * time.Minute) // twenty announces that name the leech
	if n := tr.dials[leech.Addr()]; n != 0 {
		t.Errorf("the seed dialled its inbound peer's listen address %d times", n)
	}
	if len(fixed.peers) != 1 || fixed.peers[0] != first || first.closed {
		t.Errorf("the seed holds %d peers; the first connection closed: %v", len(fixed.peers), first.closed)
	}
	if leech.Downloaded() == 0 {
		t.Error("nothing was downloaded")
	}
	checkAddrs(t, fixed)
	checkAddrs(t, leech)
}

// TestMobileConnectionSurvivesTrackerUpdate: a mobile leech hands off and
// reconnects under its retained peer-id, and the fixed seed serves it over
// that connection. The seed's next announce names the mobile's new address;
// the connection carrying data must stay. The parent dialled that address,
// and the duplicate rule kept the seed's own dial (its peer-id is the
// smaller) and closed the data-carrying one.
func TestMobileConnectionSurvivesTrackerUpdate(t *testing.T) {
	env := newSwarmEnv(100, 16<<20, 256<<10)
	tr := newDialCounter(env)
	fixed := env.client(Config{Transport: tr, Seed: true, PeerID: "-AA0000-fixed-seed0",
		UploadLimiter: NewLimiter(env.engine, 32*netem.KBps)})
	stack := env.wiredStack(0, 0)
	mobile := env.client(Config{Transport: transport.NewSim(stack), PeerID: "-ZZ0000-mobile-leec"})
	for _, c := range []*Client{fixed, mobile} {
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
	}
	env.engine.RunFor(35 * time.Second) // past the seed's first announce, at 30 s
	env.net.Rebind(stack.Iface(), 222)
	mobile.Restart(false)
	mobile.RedialKnown()
	env.engine.RunFor(15 * time.Second) // short of the seed's next announce
	var served *peerConn
	for _, p := range fixed.peers {
		if p.addr.IP == 222 {
			served = p
		}
	}
	if served == nil || served.piecesSent == 0 {
		t.Fatal("setup: the seed is not serving the mobile at its new address")
	}
	sent := served.piecesSent
	env.engine.RunFor(2 * time.Minute) // four seed announces name the new address
	if n := tr.dials[mobile.Addr()]; n != 0 {
		t.Errorf("the seed dialled the mobile's new address %d times", n)
	}
	if served.closed || served.piecesSent == sent {
		t.Errorf("the data-carrying connection closed: %v, blocks since: %d", served.closed, served.piecesSent-sent)
	}
	checkAddrs(t, fixed)
	checkAddrs(t, mobile)
}

// TestPeerIDFromSecondIP pins what a handshake carrying a live peer's
// peer-id from another host yields. The duplicate rule reads it as a mobile
// reconnecting under its retained identity: the newcomer replaces the live
// connection and is ranked by that peer-id's credit. But the replaced
// peer's entry is left with no connection and no cool-down, so it is dialled
// again at once, and its handshake replaces the newcomer the same way: one
// round trip later the real peer is back and the newcomer is gone.
func TestPeerIDFromSecondIP(t *testing.T) {
	env := newSwarmEnv(101, 16<<20, 256<<10)
	seed := env.client(Config{Seed: true, UploadLimiter: NewLimiter(env.engine, 32*netem.KBps)})
	leech := env.client(Config{})
	for _, c := range []*Client{seed, leech} {
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
	}
	env.engine.RunFor(time.Minute)
	if len(leech.peers) != 1 || leech.peers[0].piecesRcvd == 0 {
		t.Fatal("setup: the leech is not downloading from the seed")
	}
	victim := leech.peers[0]
	credit := leech.ledger.Rate(seed.PeerID(), env.engine.Now())

	thief := transport.NewSim(env.wiredStack(0, 0))
	conn, err := thief.Dial(leech.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.SetOnEstablished(func() {
		hs := &msgHandshake{InfoHash: env.torrent.InfoHash(), PeerID: seed.PeerID()}
		conn.SendMessage(hs, hs.wireLen())
	})
	for end := env.engine.Now() + time.Second; !victim.closed && env.engine.Now() < end && env.engine.Step(); {
	}
	if !victim.closed || len(leech.peers) != 1 || leech.peers[0].addr.IP != thief.Addr(0).IP {
		t.Fatalf("after the second handshake: the live peer closed: %v; the leech holds %d peers, want only the newcomer", victim.closed, len(leech.peers))
	}
	stolen := leech.peers[0]
	if got := leech.ledger.Rate(stolen.id, env.engine.Now()); got <= 0 || got > credit {
		t.Errorf("the newcomer is ranked by credit %g, want the victim's %g, decayed", got, credit)
	}
	if leech.dialing != 1 {
		t.Errorf("%d dials in flight, want the one to the victim's address", leech.dialing)
	}
	checkAddrs(t, leech)
	env.engine.RunFor(time.Second)
	if !stolen.closed || len(leech.peers) != 1 || leech.peers[0].addr != seed.Addr() || !leech.peers[0].gotHandshake {
		t.Errorf("a second later: the newcomer closed: %v, the leech holds %d peers", stolen.closed, len(leech.peers))
	}
	checkAddrs(t, leech)
}

// TestRestartUnderNewIDKeepsFreshConnection: a host we dialled restarts under
// a new peer-id at the same IP and dials us while we still hold the
// connection to its old incarnation. That connection is stale, not one side
// of a simultaneous-dial race, so the fresh one replaces it. The parent
// applied the race rule to any connection in the other direction: our
// peer-id is the smaller, so it closed the fresh connection and kept the
// stale one, locking the host out until TCP gave up.
func TestRestartUnderNewIDKeepsFreshConnection(t *testing.T) {
	env := newSwarmEnv(102, 16<<20, 256<<10)
	stack := env.wiredStack(0, 0)
	old := env.client(Config{Transport: transport.NewSim(stack), PeerID: "-ZZ0000-old-incarna"})
	if err := old.Start(); err != nil {
		t.Fatal(err)
	}
	env.engine.RunFor(time.Second) // the host is at the tracker, so the fixed peer dials it
	fixed := env.client(Config{Seed: true, PeerID: "-AA0000-fixed-seed0"})
	if err := fixed.Start(); err != nil {
		t.Fatal(err)
	}
	env.engine.RunFor(5 * time.Second)
	if len(fixed.peers) != 1 || fixed.peers[0].inbound || fixed.peers[0].id != old.PeerID() {
		t.Fatalf("setup: the fixed peer holds %d peers, want its dial to the host", len(fixed.peers))
	}
	stale := fixed.peers[0]

	conn, err := transport.NewSim(stack).Dial(fixed.Addr()) // the new incarnation, from the same IP
	if err != nil {
		t.Fatal(err)
	}
	const fresh = PeerID("-ZZ0000-new-incarna")
	conn.SetOnEstablished(func() {
		hs := &msgHandshake{InfoHash: env.torrent.InfoHash(), PeerID: fresh}
		conn.SendMessage(hs, hs.wireLen())
	})
	for end := env.engine.Now() + time.Second; !stale.closed && env.engine.Now() < end && env.engine.Step(); {
	}
	if !stale.closed || len(fixed.peers) != 1 || fixed.peers[0].id != fresh || !fixed.peers[0].inbound {
		t.Fatalf("after the new incarnation's handshake: the stale connection closed: %v; the fixed peer holds %d peers, want only the fresh one", stale.closed, len(fixed.peers))
	}
	if e := fixed.entry(fixed.peers[0]); e == nil || e.peer != fixed.peers[0] {
		t.Error("the fresh connection is not its host's entry's connection")
	}
	checkAddrs(t, fixed)
}
