package ed2k

import (
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/tcp"
	"github.com/wp2p/wp2p/internal/transport"
)

type env struct {
	engine *sim.Engine
	net    *netem.Network
	server *Server
	file   *File
	nextIP netem.IP
}

func newEnv(seed int64, size int64, chunk int) *env {
	e := sim.NewEngine(sim.WithSeed(seed))
	return &env{
		engine: e,
		net:    netem.NewNetwork(e, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond}),
		server: NewServer(e),
		file:   &File{ID: "f", Size: size, ChunkLen: chunk},
		nextIP: 10,
	}
}

func (v *env) stack() *tcp.Stack {
	ip := v.nextIP
	v.nextIP++
	link := netem.NewAccessLink(v.engine, netem.AccessLinkConfig{
		UpRate: 1 * netem.MBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
	})
	return tcp.NewStack(v.engine, v.net.Attach(ip, link, nil))
}

func (v *env) client(cfg Config) *Client {
	if cfg.Transport == nil {
		cfg.Transport = transport.NewSim(v.stack())
	}
	cfg.Server = v.server
	cfg.File = v.file
	return NewClient(cfg)
}

func TestFileGeometry(t *testing.T) {
	f := &File{ID: "x", Size: 1000, ChunkLen: 300}
	if f.NumChunks() != 4 {
		t.Errorf("NumChunks = %d", f.NumChunks())
	}
	if f.ChunkSize(3) != 100 || f.ChunkSize(0) != 300 {
		t.Errorf("chunk sizes: %d %d", f.ChunkSize(0), f.ChunkSize(3))
	}
	if f.ChunkSize(-1) != 0 || f.ChunkSize(4) != 0 {
		t.Error("out-of-range chunk size not 0")
	}
}

func TestCreditModifier(t *testing.T) {
	tests := []struct {
		recv, sent int64
		want       float64
	}{
		{0, 0, 1},         // stranger
		{0, 1000, 1},      // pure taker
		{1000, 0, 10},     // pure giver
		{1000, 1000, 2},   // balanced
		{1000, 4000, 1},   // clamped low
		{100000, 100, 10}, // clamped high
	}
	for _, tt := range tests {
		c := creditEntry{received: tt.recv, sent: tt.sent}
		if got := c.modifier(); got != tt.want {
			t.Errorf("modifier(%d,%d) = %v, want %v", tt.recv, tt.sent, got, tt.want)
		}
	}
}

func TestServerAnnounceQueryWithdraw(t *testing.T) {
	v := newEnv(1, 1000, 100)
	v.server.Announce("f", SourceInfo{Hash: "a", Addr: netem.Addr{IP: 1, Port: 4662}})
	v.server.Announce("f", SourceInfo{Hash: "b", Addr: netem.Addr{IP: 2, Port: 4662}})
	var got []SourceInfo
	v.server.Query("f", func(s []SourceInfo) { got = s })
	v.engine.Run()
	if len(got) != 2 || got[0].Hash != "a" || got[1].Hash != "b" {
		t.Fatalf("query = %v", got)
	}
	v.server.Withdraw("f", "a")
	v.engine.Run()
	if v.server.files["f"].Len() != 1 {
		t.Errorf("sources = %d after withdraw", v.server.files["f"].Len())
	}
}

func TestDownloadFromSingleSeed(t *testing.T) {
	v := newEnv(2, 2*1024*1024, 256*1024)
	seed := v.client(Config{Seed: true})
	leech := v.client(Config{})
	seed.Start()
	leech.Start()
	v.engine.RunFor(5 * time.Minute)
	if !leech.Complete() {
		t.Fatalf("incomplete: %d/%d chunks (peers=%d queue@seed=%d)", leech.haveCnt, leech.nChunks, len(leech.peers), len(seed.queue))
	}
	if leech.Downloaded() != v.file.Size {
		t.Errorf("downloaded %d, want %d", leech.Downloaded(), v.file.Size)
	}
	if seed.Uploaded() != v.file.Size {
		t.Errorf("seed uploaded %d", seed.Uploaded())
	}
}

func TestMultiSourceDownloadAndReSharing(t *testing.T) {
	v := newEnv(3, 16*1024*1024, 256*1024)
	// Fast re-query so leeches discover each other while still partial.
	seed := v.client(Config{Seed: true, QueryInterval: 15 * time.Second})
	seed.Start()
	leeches := make([]*Client, 3)
	for i := range leeches {
		leeches[i] = v.client(Config{QueryInterval: 15 * time.Second})
		leeches[i].Start()
	}
	v.engine.RunFor(15 * time.Minute)
	for i, l := range leeches {
		if !l.Complete() {
			t.Errorf("leech %d incomplete: %d/%d chunks", i, l.haveCnt, l.nChunks)
		}
	}
	var leechUp int64
	for _, l := range leeches {
		leechUp += l.Uploaded()
	}
	if leechUp == 0 {
		t.Error("no leech-to-leech service (queue-based sharing broken)")
	}
}

func TestCreditShortensQueueWait(t *testing.T) {
	// Two waiters join a busy seed's queue: one with heavy credit (it
	// uploaded a lot to the seed), one stranger. The creditor must be
	// served first despite joining later.
	v := newEnv(4, 4*1024*1024, 256*1024)
	seed := v.client(Config{Seed: true})
	seed.Start()
	creditor := v.client(Config{})
	stranger := v.client(Config{})
	// Pre-load credit: the creditor has "uploaded" 4 MB to the seed.
	seed.credit(creditor.hash).received = 4 * 1024 * 1024
	stranger.Start()
	v.engine.RunFor(30 * time.Second) // stranger queues first
	creditor.Start()
	v.engine.RunFor(3 * time.Minute)
	// The creditor's 10x modifier should have let it overtake: by now it
	// must have strictly more of the file than its later join would allow
	// under FIFO.
	if creditor.haveCnt == 0 {
		t.Fatal("creditor got nothing")
	}
	if creditor.Downloaded() < stranger.Downloaded() {
		t.Errorf("creditor (%d B) should outpace the stranger (%d B)", creditor.Downloaded(), stranger.Downloaded())
	}
}

func TestRestartWithNewHashLosesStanding(t *testing.T) {
	v := newEnv(5, 2*1024*1024, 256*1024)
	seed := v.client(Config{Seed: true})
	seed.Start()
	leech := v.client(Config{})
	leech.Start()
	v.engine.RunFor(time.Minute)
	old := leech.hash
	leech.Restart(true)
	if leech.hash == old {
		t.Fatal("hash retained on Restart(true)")
	}
	if leech.restarts != 1 {
		t.Errorf("restarts = %d", leech.restarts)
	}
	leech.Restart(false)
	h := leech.hash
	leech.Restart(false)
	if leech.hash != h {
		t.Error("hash changed on Restart(false)")
	}
	v.engine.RunFor(10 * time.Minute)
	if !leech.Complete() {
		t.Errorf("incomplete after restarts: %d/%d chunks", leech.haveCnt, leech.nChunks)
	}
}

func TestStopWithdrawsFromServer(t *testing.T) {
	v := newEnv(6, 1024*1024, 256*1024)
	seed := v.client(Config{Seed: true})
	seed.Start()
	v.engine.RunFor(time.Second)
	if v.server.files["f"].Len() != 1 {
		t.Fatalf("sources = %d", v.server.files["f"].Len())
	}
	seed.Stop()
	v.engine.RunFor(time.Second)
	if v.server.files["f"].Len() != 0 {
		t.Errorf("sources = %d after Stop", v.server.files["f"].Len())
	}
}

func TestUploadSlotsLimitConcurrentSessions(t *testing.T) {
	v := newEnv(7, 8*1024*1024, 256*1024)
	seed := v.client(Config{Seed: true, UploadSlots: 1})
	seed.Start()
	for i := 0; i < 4; i++ {
		v.client(Config{}).Start()
	}
	maxServing := 0
	for i := 0; i < 60; i++ {
		v.engine.RunFor(2 * time.Second)
		if seed.serving > maxServing {
			maxServing = seed.serving
		}
	}
	if maxServing > 1 {
		t.Errorf("serving reached %d with 1 slot", maxServing)
	}
	if seed.Uploaded() == 0 {
		t.Error("nothing served")
	}
}

func TestQueueSeniorityRememberedAcrossReconnect(t *testing.T) {
	// A waiter that disconnects and returns under the SAME hash resumes its
	// seniority; a fresh hash starts from zero. This is the eMule behaviour
	// that makes identity retention matter even without credits.
	v := newEnv(8, 8*1024*1024, 256*1024)
	seed := v.client(Config{Seed: true})
	seed.Start()
	v.engine.RunFor(time.Second)
	// Two artificial waiters with distinct hashes via direct enqueue.
	mk := func(h ClientHash) *peer {
		return &peer{client: seed, hash: h, servingChunk: -1, pendingChunk: -1, helloOK: true}
	}
	early := mk("early-hash")
	seed.serving = seed.cfg.UploadSlots // block serving so the queue holds
	seed.enqueue(early)
	v.engine.RunFor(5 * time.Minute)
	late := mk("late-hash")
	seed.enqueue(late)
	// "early" disconnects, then reconnects under the same hash.
	seed.removePeer(early)
	v.engine.RunFor(10 * time.Second)
	earlyAgain := mk("early-hash")
	seed.enqueue(earlyAgain)
	var wEarly, wLate *waiter
	for _, w := range seed.queue {
		switch w.hash {
		case "early-hash":
			wEarly = w
		case "late-hash":
			wLate = w
		}
	}
	if wEarly == nil || wLate == nil {
		t.Fatalf("queue state: %d entries", len(seed.queue))
	}
	if seed.score(wEarly) <= seed.score(wLate) {
		t.Errorf("returning hash lost seniority: early=%.1f late=%.1f",
			seed.score(wEarly), seed.score(wLate))
	}
	// A different hash would NOT inherit: memory is per-hash.
	fresh := mk("fresh-hash")
	seed.enqueue(fresh)
	for _, w := range seed.queue {
		if w.hash == "fresh-hash" && seed.score(w) >= seed.score(wEarly) {
			t.Error("fresh hash scored as high as the senior one")
		}
	}
}

func TestWaitMemoryExpires(t *testing.T) {
	v := newEnv(9, 8*1024*1024, 256*1024)
	seed := v.client(Config{Seed: true, WaitMemory: time.Minute})
	seed.Start()
	seed.serving = seed.cfg.UploadSlots
	p := &peer{client: seed, hash: "h", servingChunk: -1, pendingChunk: -1, helloOK: true}
	seed.enqueue(p)
	v.engine.RunFor(5 * time.Minute)
	seed.removePeer(p)
	v.engine.RunFor(2 * time.Minute) // past the memory window
	p2 := &peer{client: seed, hash: "h", servingChunk: -1, pendingChunk: -1, helloOK: true}
	seed.enqueue(p2)
	w := seed.queue[len(seed.queue)-1]
	if got := v.engine.Now() - w.since; got > time.Second {
		t.Errorf("expired memory still restored %v of seniority", got)
	}
}
