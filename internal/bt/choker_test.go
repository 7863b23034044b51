package bt

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/transport"
)

func TestChokerCreditRanksKnownPeerAfterReconnect(t *testing.T) {
	// A peer that contributed a lot and reconnects under the same id must
	// outrank a stranger with equal (zero) short-term rate.
	env := newSwarmEnv(40, 2*1024*1024, 64*1024)
	c := env.client(Config{Seed: true, UnchokeSlots: 2})
	now := env.engine.Now()
	c.ledger.Add("veteran-peer-id-0001", 10*1024*1024, now)
	if c.ledger.Rate("veteran-peer-id-0001", now) <= 0 {
		t.Fatal("credit rate not positive")
	}
	if c.ledger.Rate("stranger-peer-id-01", now) != 0 {
		t.Fatal("stranger has credit")
	}
}

func TestChokerOptimisticRotates(t *testing.T) {
	// With one seed and several identical leeches, the optimistic unchoke
	// must rotate rather than stick to one peer forever.
	env := newSwarmEnv(41, 8*1024*1024, 256*1024)
	seedLim := NewLimiter(env.engine, 10*netem.KBps)
	seed := env.client(Config{Seed: true, UnchokeSlots: 1, UploadLimiter: seedLim})
	seed.Start()
	for i := 0; i < 5; i++ {
		env.client(Config{UploadLimiter: NewLimiter(env.engine, 1)}).Start()
	}
	unchokedEver := make(map[PeerID]bool)
	for i := 0; i < 40; i++ {
		env.engine.RunFor(15 * time.Second)
		for _, p := range seed.peers {
			if !p.amChoking {
				unchokedEver[p.id] = true
			}
		}
	}
	if len(unchokedEver) < 3 {
		t.Errorf("optimistic unchoke visited only %d peers in 10 minutes", len(unchokedEver))
	}
}

func TestOptimisticUnchokeIsAdditive(t *testing.T) {
	// With one regular slot, a seed serving several hungry leeches must
	// unchoke two peers once warm: the best reciprocator in the regular
	// slot plus the rotating optimistic unchoke on top (BEP-3). The
	// optimistic unchoke used to consume the regular slot, which starved
	// the best reciprocator every rotation.
	env := newSwarmEnv(45, 8*1024*1024, 256*1024)
	seedLim := NewLimiter(env.engine, 10*netem.KBps)
	seed := env.client(Config{Seed: true, UnchokeSlots: 1, UploadLimiter: seedLim})
	seed.Start()
	for i := 0; i < 4; i++ {
		env.client(Config{UploadLimiter: NewLimiter(env.engine, 1)}).Start()
	}
	maxUnchoked := 0
	for i := 0; i < 30; i++ {
		env.engine.RunFor(5 * time.Second)
		unchoked := 0
		for _, p := range seed.peers {
			if !p.closed && !p.amChoking {
				unchoked++
			}
		}
		if unchoked > maxUnchoked {
			maxUnchoked = unchoked
		}
	}
	if maxUnchoked < 2 {
		t.Errorf("seed never unchoked more than %d peer(s); optimistic unchoke is consuming the regular slot", maxUnchoked)
	}
	if maxUnchoked > 2 {
		t.Errorf("seed unchoked %d peers at once; limit is 1 regular + 1 optimistic", maxUnchoked)
	}
}

func TestUploadPacingKeepsSendBufferShallow(t *testing.T) {
	// A seed serving a slow peer must not queue the whole file into the
	// TCP send buffer: control messages would be stuck behind it.
	env := newSwarmEnv(42, 4*1024*1024, 256*1024)
	seed := env.client(Config{Seed: true})
	leech := env.client(Config{})
	seed.Start()
	leech.Start()
	env.engine.RunFor(20 * time.Second)
	for _, p := range seed.peers {
		if buf := p.conn.Buffered(); buf > 8*BlockSize {
			t.Errorf("seed send buffer = %d bytes; pacing failed", buf)
		}
	}
}

func TestDuplicateConnectionsResolveDeterministically(t *testing.T) {
	// Two clients that dial each other simultaneously must converge on
	// exactly one connection — no close-war, no duplicates.
	env := newSwarmEnv(43, 1024*1024, 128*1024)
	a := env.client(Config{Seed: true})
	b := env.client(Config{})
	// Both learn of each other before either can connect, making the
	// simultaneous dial race likely.
	a.Start()
	b.Start()
	a.addKnown(PeerInfo{ID: b.PeerID(), Addr: b.Addr()})
	b.addKnown(PeerInfo{ID: a.PeerID(), Addr: a.Addr()})
	a.maintainConnections()
	b.maintainConnections()
	env.engine.RunFor(2 * time.Minute)
	countLive := func(c *Client, id PeerID) int {
		n := 0
		for _, p := range c.peers {
			if p.id == id && p.gotHandshake {
				n++
			}
		}
		return n
	}
	if got := countLive(a, b.PeerID()); got != 1 {
		t.Errorf("a has %d live conns to b, want exactly 1", got)
	}
	if got := countLive(b, a.PeerID()); got != 1 {
		t.Errorf("b has %d live conns to a, want exactly 1", got)
	}
	if !b.Complete() {
		t.Errorf("download did not complete: %.0f%%", b.Progress()*100)
	}
}

func TestReconnectWithRetainedIDReplacesZombie(t *testing.T) {
	// After a handoff the fixed peer still holds a dying connection to the
	// mobile's old address. A reconnect under the same peer-id must replace
	// it promptly rather than being rejected as a duplicate.
	env := newSwarmEnv(44, 2*1024*1024, 128*1024)
	fixed := env.client(Config{Seed: true})
	stack := env.wiredStack(0, 0)
	mobile := env.client(Config{Transport: transport.NewSim(stack)})
	fixed.Start()
	mobile.Start()
	env.engine.RunFor(15 * time.Second)
	if mobile.NumPeers() == 0 {
		t.Fatal("setup: not connected")
	}
	// Handoff: move the mobile, then reconnect with the same identity.
	env.net.Rebind(stack.Iface(), 222)
	mobile.Restart(false)
	mobile.RedialKnown()
	env.engine.RunFor(30 * time.Second)
	live := 0
	for _, p := range fixed.peers {
		if p.id == mobile.PeerID() && !p.closed {
			live++
		}
	}
	if live != 1 {
		t.Errorf("fixed peer has %d live conns to the mobile id, want 1 (zombie replaced)", live)
	}
	if !mobile.Complete() {
		env.engine.RunFor(3 * time.Minute)
	}
	if !mobile.Complete() {
		t.Errorf("mobile stalled after handoff: %.0f%%", mobile.Progress()*100)
	}
}

// TestChokerRankingMatchesSliceStable: the choker ranks with
// slices.SortStableFunc and byScoreDesc where it used sort.SliceStable with
// "score greater", so every unchoke slot, and every digest after it, rests on
// the two giving one order. Rankings here are mostly ties — zero rates, equal
// ledger credit — which is where a stable sort's order shows.
func TestChokerRankingMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	scores := []float64{0, 0, 0, 16384, 16384, 65536, 1e-9, 3.5e5}
	peers := make([]peerConn, 48)
	for trial := 0; trial < 2000; trial++ {
		rs := make([]rankedPeer, rng.Intn(len(peers)+1))
		for i := range rs {
			rs[i] = rankedPeer{p: &peers[i], score: scores[rng.Intn(len(scores))]}
		}
		want := append([]rankedPeer(nil), rs...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].score > want[j].score })
		slices.SortStableFunc(rs, byScoreDesc)
		for i := range rs {
			if rs[i] != want[i] {
				t.Fatalf("trial %d: rank %d holds peer %p (score %g), sort.SliceStable put %p (score %g) there",
					trial, i, rs[i].p, rs[i].score, want[i].p, want[i].score)
			}
		}
	}
}
