package bt

import (
	"fmt"
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/tcp"
	"github.com/wp2p/wp2p/internal/transport"
)

// swarmEnv bundles everything needed to assemble test swarms.
type swarmEnv struct {
	engine  *sim.Engine
	net     *netem.Network
	tracker *Tracker
	torrent *MetaInfo
	nextIP  netem.IP
}

func newSwarmEnv(seed int64, fileSize int64, pieceLen int) *swarmEnv {
	e := sim.NewEngine(sim.WithSeed(seed))
	return &swarmEnv{
		engine:  e,
		net:     netem.NewNetwork(e, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond}),
		tracker: NewTracker(e, TrackerConfig{Interval: 30 * time.Second}),
		torrent: NewMetaInfo("test-file", fileSize, pieceLen),
		nextIP:  10,
	}
}

// wiredStack adds a host behind a symmetric 1 MB/s access link.
func (env *swarmEnv) wiredStack(up, down netem.Rate) *tcp.Stack {
	if up == 0 {
		up = 1 * netem.MBps
	}
	if down == 0 {
		down = 1 * netem.MBps
	}
	ip := env.nextIP
	env.nextIP++
	link := netem.NewAccessLink(env.engine, netem.AccessLinkConfig{
		UpRate: up, DownRate: down, Delay: time.Millisecond,
	})
	iface := env.net.Attach(ip, link, nil)
	return tcp.NewStack(env.engine, iface)
}

// client builds a client on a fresh wired host.
func (env *swarmEnv) client(cfg Config) *Client {
	if cfg.Transport == nil {
		cfg.Transport = transport.NewSim(env.wiredStack(0, 0))
	}
	cfg.Torrent = env.torrent
	cfg.Tracker = env.tracker
	return NewClient(cfg)
}

func TestSingleSeedSingleLeech(t *testing.T) {
	env := newSwarmEnv(1, 512*1024, 64*1024)
	seed := env.client(Config{Seed: true})
	leech := env.client(Config{})
	seed.Start()
	leech.Start()
	env.engine.RunFor(5 * time.Minute)

	if !leech.Complete() {
		t.Fatalf("leech incomplete: %.0f%% after 5min, %d peers", leech.Progress()*100, leech.NumPeers())
	}
	if leech.Downloaded() != env.torrent.Length {
		t.Errorf("downloaded %d, want %d", leech.Downloaded(), env.torrent.Length)
	}
	if seed.Uploaded() != env.torrent.Length {
		t.Errorf("seed uploaded %d, want %d", seed.Uploaded(), env.torrent.Length)
	}
	if leech.CompletedAt() <= 0 {
		t.Errorf("CompletedAt = %v", leech.CompletedAt())
	}
	// Completion promotes the leech to seed at the tracker.
	if got := env.tracker.Seeds(env.torrent.InfoHash()); got != 2 {
		t.Errorf("tracker seeds = %d, want 2", got)
	}
}

func TestSwarmAllLeechesComplete(t *testing.T) {
	env := newSwarmEnv(2, 1024*1024, 64*1024)
	// Throttle the seed so leech-to-leech exchange is essential.
	seedLim := NewLimiter(env.engine, 40*netem.KBps)
	seed := env.client(Config{Seed: true, UploadLimiter: seedLim})
	seed.Start()
	leeches := make([]*Client, 4)
	for i := range leeches {
		leeches[i] = env.client(Config{})
		leeches[i].Start()
	}
	env.engine.RunFor(15 * time.Minute)
	for i, l := range leeches {
		if !l.Complete() {
			t.Errorf("leech %d incomplete: %.0f%%", i, l.Progress()*100)
		}
	}
	// Peer-to-peer exchange must have happened: leeches collectively
	// uploaded a meaningful share (the seed did not serve 4 full copies).
	var leechUp int64
	for _, l := range leeches {
		leechUp += l.Uploaded()
	}
	if leechUp == 0 {
		t.Error("no leech-to-leech exchange occurred")
	}
}

func TestLeechesFinishFromEachOtherAfterSeedLeaves(t *testing.T) {
	// Two leeches each pre-hold complementary halves; no seed is present.
	env := newSwarmEnv(3, 512*1024, 64*1024)
	n := env.torrent.NumPieces()
	halfA, halfB := NewBitfield(n), NewBitfield(n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			halfA.Set(i)
		} else {
			halfB.Set(i)
		}
	}
	a := env.client(Config{InitialHave: halfA})
	b := env.client(Config{InitialHave: halfB})
	a.Start()
	b.Start()
	env.engine.RunFor(10 * time.Minute)
	if !a.Complete() || !b.Complete() {
		t.Fatalf("a=%.0f%% b=%.0f%%, want both complete", a.Progress()*100, b.Progress()*100)
	}
}

func TestUploadLimiterCapsServing(t *testing.T) {
	env := newSwarmEnv(4, 1024*1024, 128*1024)
	lim := NewLimiter(env.engine, 20*netem.KBps)
	seed := env.client(Config{Seed: true, UploadLimiter: lim})
	leech := env.client(Config{})
	seed.Start()
	leech.Start()
	env.engine.RunFor(30 * time.Second)
	got := float64(leech.Downloaded()) / env.engine.Now().Seconds()
	if got > 25000 {
		t.Errorf("leech downloading at %.0f B/s despite a 20 KB/s seed cap", got)
	}
	if leech.Downloaded() == 0 {
		t.Error("nothing downloaded at all")
	}
}

func TestChokerRespectsSlotLimit(t *testing.T) {
	env := newSwarmEnv(5, 2*1024*1024, 256*1024)
	seed := env.client(Config{Seed: true, UnchokeSlots: 2})
	seed.Start()
	for i := 0; i < 6; i++ {
		env.client(Config{}).Start()
	}
	env.engine.RunFor(2 * time.Minute)
	unchoked := 0
	for _, p := range seed.peers {
		if !p.amChoking {
			unchoked++
		}
	}
	// UnchokeSlots regular slots plus the additive optimistic unchoke.
	if unchoked > 3 {
		t.Errorf("%d peers unchoked, limit is 2 regular + 1 optimistic", unchoked)
	}
}

func TestRestartWithNewIdentityLosesCredit(t *testing.T) {
	env := newSwarmEnv(6, 512*1024, 64*1024)
	seed := env.client(Config{Seed: true})
	leech := env.client(Config{})
	seed.Start()
	leech.Start()
	env.engine.RunFor(2 * time.Minute)
	if !leech.Complete() {
		t.Fatal("setup: leech should have completed")
	}
	oldID := leech.PeerID()
	if seed.ledger.entries[oldID] != nil {
		// Seed only downloads nothing; credit flows leech→seed only if the
		// seed received payload, which it cannot. So check the other way:
		t.Log("seed has credit entry for leech (unexpected but harmless)")
	}
	// The leech accumulated credit for the seed.
	if leech.ledger.entries[seed.PeerID()] == nil {
		t.Error("leech ledger does not know the seed")
	}
	leech.Restart(true)
	if leech.PeerID() == oldID {
		t.Error("Restart(true) kept the old identity")
	}
	if leech.Restarts() != 1 {
		t.Errorf("Restarts = %d", leech.Restarts())
	}
	leech.Restart(false)
	id2 := leech.PeerID()
	leech.Restart(false)
	if leech.PeerID() != id2 {
		t.Error("Restart(false) changed the identity")
	}
}

func TestClientStopLeavesSwarm(t *testing.T) {
	env := newSwarmEnv(7, 512*1024, 64*1024)
	seed := env.client(Config{Seed: true})
	leech := env.client(Config{})
	seed.Start()
	leech.Start()
	env.engine.RunFor(2 * time.Minute)
	seed.Stop()
	env.engine.RunFor(2 * time.Minute)
	if env.tracker.SwarmSize(env.torrent.InfoHash()) != 1 {
		t.Errorf("swarm size = %d after seed stop, want 1", env.tracker.SwarmSize(env.torrent.InfoHash()))
	}
	if seed.NumPeers() != 0 {
		t.Errorf("stopped client has %d live peers", seed.NumPeers())
	}
}

func TestSequentialPickerBuildsPrefix(t *testing.T) {
	env := newSwarmEnv(8, 1024*1024, 64*1024)
	seedLim := NewLimiter(env.engine, 50*netem.KBps)
	seed := env.client(Config{Seed: true, UploadLimiter: seedLim})
	leech := env.client(Config{Picker: Sequential{}})
	seed.Start()
	leech.Start()
	// Sample mid-download: the have-set must be (nearly) a prefix.
	var prefixOK bool
	env.engine.Schedule(15*time.Second, func() {
		h := leech.Have()
		if h.Count() > 2 && h.Count() < h.Len() {
			// Allow the in-flight frontier to be ragged by the pipeline depth.
			prefixOK = h.PrefixLen() >= h.Count()-8
		} else {
			prefixOK = true // nothing meaningful to check
		}
	})
	env.engine.RunFor(10 * time.Minute)
	if !leech.Complete() {
		t.Fatalf("incomplete: %.0f%%", leech.Progress()*100)
	}
	if !prefixOK {
		t.Error("sequential fetch did not build an in-order prefix")
	}
}

func TestRarestFirstSpreadsPieces(t *testing.T) {
	// With rarest-first, a mid-download snapshot should NOT be a prefix.
	env := newSwarmEnv(9, 2*1024*1024, 64*1024)
	seedLim := NewLimiter(env.engine, 50*netem.KBps)
	seed := env.client(Config{Seed: true, UploadLimiter: seedLim})
	leech := env.client(Config{Picker: RarestFirst{}})
	seed.Start()
	leech.Start()
	var scattered bool
	env.engine.Schedule(20*time.Second, func() {
		h := leech.Have()
		if h.Count() >= 8 && !h.Complete() {
			scattered = h.PrefixLen() < h.Count()/2
		}
	})
	env.engine.RunFor(10 * time.Minute)
	if !leech.Complete() {
		t.Fatalf("incomplete: %.0f%%", leech.Progress()*100)
	}
	if !scattered {
		t.Error("rarest-first produced a mostly in-order prefix; expected scatter")
	}
}

func TestHandoffRestartResumesDownload(t *testing.T) {
	env := newSwarmEnv(10, 1024*1024, 64*1024)
	seed := env.client(Config{Seed: true})
	stack := env.wiredStack(0, 0)
	leech := env.client(Config{Transport: transport.NewSim(stack)})
	seed.Start()
	leech.Start()

	// Mid-download: move the leech to a new address and restart the task.
	env.engine.Schedule(30*time.Second, func() {
		env.net.Rebind(stack.Iface(), 200)
		leech.Restart(true)
	})
	env.engine.RunFor(15 * time.Minute)
	if !leech.Complete() {
		t.Fatalf("incomplete after handoff: %.0f%%, peers=%d", leech.Progress()*100, leech.NumPeers())
	}
	// Resume data survived: total downloaded should not exceed the file
	// size by more than the in-flight wastage.
	if leech.Downloaded() > env.torrent.Length+int64(env.torrent.PieceLen*4) {
		t.Errorf("downloaded %d for a %d-byte file; resume data lost", leech.Downloaded(), env.torrent.Length)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (time.Duration, int64) {
		env := newSwarmEnv(42, 512*1024, 64*1024)
		seed := env.client(Config{Seed: true})
		leech := env.client(Config{})
		seed.Start()
		leech.Start()
		env.engine.RunFor(5 * time.Minute)
		return leech.CompletedAt(), leech.Downloaded()
	}
	at1, dl1 := run()
	at2, dl2 := run()
	if at1 != at2 || dl1 != dl2 {
		t.Errorf("identical seeds diverged: (%v,%d) vs (%v,%d)", at1, dl1, at2, dl2)
	}
	if at1 <= 0 {
		t.Error("download never completed")
	}
}

func TestManyPeersRespectMaxPeers(t *testing.T) {
	env := newSwarmEnv(11, 512*1024, 64*1024)
	seed := env.client(Config{Seed: true, MaxPeers: 3})
	seed.Start()
	for i := 0; i < 8; i++ {
		env.client(Config{}).Start()
	}
	env.engine.RunFor(90 * time.Second)
	if got := seed.NumPeers(); got > 3 {
		t.Errorf("seed has %d peers, cap 3", got)
	}
}

func TestProgressAccounting(t *testing.T) {
	env := newSwarmEnv(12, 500*1024, 64*1024) // non-aligned final piece
	seed := env.client(Config{Seed: true})
	leech := env.client(Config{})
	seed.Start()
	leech.Start()
	env.engine.RunFor(5 * time.Minute)
	if !leech.Complete() {
		t.Fatal("incomplete")
	}
	if leech.Progress() != 1.0 {
		t.Errorf("Progress = %v at completion", leech.Progress())
	}
	if leech.BytesHave() != env.torrent.Length {
		t.Errorf("BytesHave = %d, want %d", leech.BytesHave(), env.torrent.Length)
	}
}

func TestPeerIDGeneration(t *testing.T) {
	e := sim.NewEngine(sim.WithSeed(7))
	a := NewPeerID(e.Rand())
	b := NewPeerID(e.Rand())
	if a == b {
		t.Error("consecutive peer ids collide")
	}
	if len(a) != 20 {
		t.Errorf("peer id length = %d, want 20 (wire format)", len(a))
	}
}

func TestWireLens(t *testing.T) {
	bits := NewBitfield(400)
	tests := []struct {
		m    wireMsg
		want int
	}{
		{msgHandshake{}, 68},
		{msgChoke{}, 5},
		{msgUnchoke{}, 5},
		{msgInterested{}, 5},
		{msgNotInterested{}, 5},
		{msgHave{}, 9},
		{msgBitfield{Bits: bits}, 5 + 50},
		{msgRequest{}, 17},
		{msgPiece{Length: BlockSize}, 13 + BlockSize},
		{msgCancel{}, 17},
	}
	for _, tt := range tests {
		if got := tt.m.wireLen(); got != tt.want {
			t.Errorf("%T wireLen = %d, want %d", tt.m, got, tt.want)
		}
	}
}

func TestSelfConnectionDropped(t *testing.T) {
	// A client that learns its own address must not keep a self-connection.
	env := newSwarmEnv(13, 512*1024, 64*1024)
	c := env.client(Config{Seed: true})
	c.Start()
	env.engine.RunFor(time.Second)
	// Forge a tracker entry pointing at the client itself under a different
	// peer-id, forcing a dial; the handshake will reveal the same id.
	c.addKnown(PeerInfo{ID: "someone-else-entirely", Addr: c.Addr()})
	c.maintainConnections()
	env.engine.RunFor(30 * time.Second)
	for _, p := range c.peers {
		if p.id == c.PeerID() && p.gotHandshake {
			t.Error("self-connection survived")
		}
	}
}

func fmtProgress(cs []*Client) string {
	s := ""
	for i, c := range cs {
		s += fmt.Sprintf("c%d=%.0f%% ", i, c.Progress()*100)
	}
	return s
}
