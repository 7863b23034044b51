package ed2k

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

func newDialCounter(v *env) *dialCounter {
	return &dialCounter{
		Interface: transport.NewSim(v.stack()),
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

// vanished is a source the index server still lists at an address nobody
// answers: a SYN to it retries for 363 s.
var vanished = SourceInfo{Hash: "vanished", Addr: netem.Addr{IP: 99, Port: listenPort}}

// TestOneDialPerSource: a client re-queries its sources every minute, and a
// listed source whose SYN is still retrying is not dialled again. The
// parent re-dialled it on every query, four SYNs at once by the fourth
// minute.
func TestOneDialPerSource(t *testing.T) {
	v := newEnv(21, 1<<20, 256*1024)
	v.server.Announce(v.file.ID, vanished)
	tr := newDialCounter(v)
	c := v.client(Config{Transport: tr, QueryInterval: time.Minute})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	v.engine.RunFor(4 * time.Minute)
	if n := tr.most[vanished.Addr]; n != 1 {
		t.Errorf("%d dials in flight at once to one source, want 1", n)
	}
	// The SYN gives up at 363 s; the query at 7 min dials the source again.
	v.engine.RunFor(3*time.Minute + time.Second)
	if n, now := tr.most[vanished.Addr], tr.inFlight[vanished.Addr]; n != 1 || now != 1 {
		t.Errorf("after the first SYN gave up: %d dials at most, %d now; want 1 and 1", n, now)
	}
}

// dialInFlight starts a seed and a leech and runs until the leech's dial to
// the seed is in flight.
func dialInFlight(t *testing.T, v *env) (seed, c *Client, tr *dialCounter) {
	t.Helper()
	seed = v.client(Config{Seed: true})
	if err := seed.Start(); err != nil {
		t.Fatal(err)
	}
	v.engine.RunFor(time.Second) // the seed is at the server
	tr = newDialCounter(v)
	c = v.client(Config{Transport: tr})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	for step := 0; tr.inFlight[seed.Addr()] == 0; step++ {
		if step == 1000 {
			t.Fatal("the leech never dialled the seed")
		}
		v.engine.RunFor(time.Millisecond)
	}
	return seed, c, tr
}

// TestStopAbortsDialsInFlight: a dial still in flight when the client stops
// never becomes a peer. The parent closed only its peers, so the dial
// completed afterwards and the stopped client sent its hello and held it.
func TestStopAbortsDialsInFlight(t *testing.T) {
	v := newEnv(22, 1<<20, 256*1024)
	seed, c, tr := dialInFlight(t, v)
	c.Stop()
	if n := tr.inFlight[seed.Addr()]; n != 0 {
		t.Errorf("after Stop: %d dials in flight, want 0", n)
	}
	v.engine.RunFor(time.Minute)
	if n, m := len(c.peers), len(seed.peers); n+m != 0 {
		t.Errorf("after Stop: the client holds %d peers, the seed %d", n, m)
	}
	if c.Downloaded() != 0 {
		t.Errorf("a stopped client downloaded %d bytes", c.Downloaded())
	}
}

// TestRestartAbortsDialsInFlight: a restart tears down the dials made under
// the old identity, and the fresh query dials the source once more.
func TestRestartAbortsDialsInFlight(t *testing.T) {
	v := newEnv(23, 1<<20, 256*1024)
	seed, c, tr := dialInFlight(t, v)
	c.Restart(true)
	if n := tr.inFlight[seed.Addr()]; n != 0 {
		t.Errorf("after Restart: %d dials in flight, want 0", n)
	}
	v.engine.RunFor(time.Minute)
	if n := tr.most[seed.Addr()]; n != 1 {
		t.Errorf("%d dials in flight at once to the seed, want 1", n)
	}
	if !c.Complete() || len(c.peers) != 1 {
		t.Errorf("after Restart: complete %v with %d peers, want the file from the one seed", c.Complete(), len(c.peers))
	}
}
