package bt

import (
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/transport"
)

// dialCounter is a transport that counts, per address, the dials it opened
// that have neither been established nor closed, and the most at once.
type dialCounter struct {
	transport.Interface
	inFlight, most map[netem.Addr]int
}

func newDialCounter(env *swarmEnv) *dialCounter {
	return &dialCounter{
		Interface: transport.NewSim(env.wiredStack(0, 0)),
		inFlight:  make(map[netem.Addr]int),
		most:      make(map[netem.Addr]int),
	}
}

func (d *dialCounter) Dial(remote netem.Addr) (transport.Conn, error) {
	conn, err := d.Interface.Dial(remote)
	if err != nil {
		return nil, err
	}
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
