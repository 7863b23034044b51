package bt

import (
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
)

func TestAddKnownDedupesAndUpdates(t *testing.T) {
	env := newSwarmEnv(80, 512*1024, 64*1024)
	c := env.client(Config{})
	c.addKnown(PeerInfo{ID: "a", Addr: netem.Addr{IP: 5, Port: 1}})
	c.addKnown(PeerInfo{ID: "a", Addr: netem.Addr{IP: 5, Port: 1}})
	c.addKnown(PeerInfo{ID: "b", Addr: netem.Addr{IP: 6, Port: 1}})
	if got := len(c.addrs); got != 2 {
		t.Fatalf("table has %d addresses, want 2", got)
	}
	// Same address, new identity (peer restarted behind the same IP):
	// the entry updates in place.
	c.addKnown(PeerInfo{ID: "a2", Addr: netem.Addr{IP: 5, Port: 1}})
	if e := c.addrs; len(e) != 2 || e[0].id != "a2" || c.addrAt[e[1].addr.IP] != 1 {
		t.Errorf("entry not updated: %v", e)
	}
	// Own id is never recorded.
	c.addKnown(PeerInfo{ID: c.PeerID(), Addr: netem.Addr{IP: 7, Port: 1}})
	if len(c.addrs) != 2 {
		t.Error("own id recorded")
	}
}

// TestReleaseKeepsInsertionOrder: an accepted peer's entry goes with its
// connection, and the entries after it move up, so the table still dials
// tracker-named hosts oldest first. The parent moved the newest entry into
// the freed slot, ahead of every older one.
func TestReleaseKeepsInsertionOrder(t *testing.T) {
	env := newSwarmEnv(96, 8*BlockSize, BlockSize)
	c := env.client(Config{})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	conn, _ := foreignPeer(t, env, c)
	for i, id := range []PeerID{"a", "b", "c"} {
		c.addKnown(PeerInfo{ID: id, Addr: netem.Addr{IP: netem.IP(200 + i), Port: 1}})
	}
	conn.Abort()
	env.engine.RunFor(time.Second)
	var got []PeerID
	for i, e := range c.addrs {
		got = append(got, e.id)
		if c.addrAt[e.addr.IP] != i {
			t.Errorf("entry %d (%v) indexed at %d", i, e.addr, c.addrAt[e.addr.IP])
		}
	}
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("table order %v after the accepted peer left, want [a b c]", got)
	}
}

func TestInitialHaveAccounting(t *testing.T) {
	env := newSwarmEnv(81, 500*1024, 64*1024) // 8 pieces, last short
	n := env.torrent.NumPieces()
	half := NewBitfield(n)
	half.Set(0)
	half.Set(n - 1) // short piece
	c := env.client(Config{InitialHave: half})
	wantBytes := int64(env.torrent.PieceSize(0) + env.torrent.PieceSize(n-1))
	if c.BytesHave() != wantBytes {
		t.Errorf("BytesHave = %d, want %d", c.BytesHave(), wantBytes)
	}
	if c.Complete() {
		t.Error("half-seeded client claims complete")
	}
	// InitialHave is cloned: mutating the original must not affect it.
	half.Set(1)
	if c.Have().Has(1) {
		t.Error("InitialHave aliased, not cloned")
	}
}

func TestSeedConfigIsCompleteImmediately(t *testing.T) {
	env := newSwarmEnv(82, 512*1024, 64*1024)
	c := env.client(Config{Seed: true})
	if !c.Complete() || c.Progress() != 1 || c.BytesHave() != env.torrent.Length {
		t.Errorf("seed state wrong: complete=%v progress=%v", c.Complete(), c.Progress())
	}
	if c.CompletedAt() != 0 {
		t.Errorf("CompletedAt = %v", c.CompletedAt())
	}
}

func TestRestartKeepsResumeData(t *testing.T) {
	env := newSwarmEnv(84, 1024*1024, 64*1024)
	seed := env.client(Config{Seed: true})
	leech := env.client(Config{})
	seed.Start()
	leech.Start()
	env.engine.RunFor(5 * time.Second)
	haveBefore := leech.BytesHave()
	if haveBefore == 0 {
		env.engine.RunFor(10 * time.Second)
		haveBefore = leech.BytesHave()
	}
	leech.Restart(true)
	if leech.BytesHave() != haveBefore {
		t.Errorf("resume data lost: %d → %d", haveBefore, leech.BytesHave())
	}
	env.engine.RunFor(3 * time.Minute)
	if !leech.Complete() {
		t.Errorf("did not complete after restart: %.0f%%", leech.Progress()*100)
	}
}

func TestStopIsIdempotentAndStartOnceOnly(t *testing.T) {
	env := newSwarmEnv(85, 512*1024, 64*1024)
	c := env.client(Config{Seed: true})
	c.Start()
	c.Start() // second start is a no-op, must not double-listen
	env.engine.RunFor(time.Second)
	c.Stop()
	c.Stop() // idempotent
	env.engine.RunFor(time.Second)
	if env.tracker.SwarmSize(env.torrent.InfoHash()) != 0 {
		t.Error("client still at tracker after Stop")
	}
}

func TestDownloadUploadRateAccessors(t *testing.T) {
	env := newSwarmEnv(86, 1024*1024, 64*1024)
	seed := env.client(Config{Seed: true})
	leech := env.client(Config{})
	seed.Start()
	leech.Start()
	// The first unchoke happens at the 10 s choker tick.
	env.engine.RunFor(15 * time.Second)
	if leech.DownloadRate() <= 0 {
		t.Error("leech download rate zero mid-transfer")
	}
	if seed.upTotal.Rate(env.engine.Now()) <= 0 {
		t.Error("seed upload rate zero mid-transfer")
	}
}

// TestBackoffForgetsAddressesThatAnswered: a mobile peer dials a fixed one
// from every address it ever holds, and the fixed peer's address table must
// not remember them all: an accepted peer's entry has no listen address
// until a tracker names the host, so it goes with the connection. (A map of
// cool-downs cleared by storing a zero once kept one entry per address ever
// shaken hands with: 200 here.)
func TestBackoffForgetsAddressesThatAnswered(t *testing.T) {
	env := newSwarmEnv(95, 8*BlockSize, BlockSize)
	fixed := env.client(Config{})
	if err := fixed.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		conn, _ := foreignPeer(t, env, fixed) // a fresh host: the mobile after one more handoff
		if n := len(fixed.addrs); n > len(fixed.peers) {
			t.Fatalf("after %d addresses: %d table entries for %d live peers", i+1, n, len(fixed.peers))
		}
		conn.Abort()
		env.engine.RunFor(time.Second)
	}
	if len(fixed.peers) != 0 || len(fixed.addrs) != 0 {
		t.Errorf("%d peers and %d table entries left after every address went away", len(fixed.peers), len(fixed.addrs))
	}
}
