package wp2p

import (
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/mobility"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/tcp"
	"github.com/wp2p/wp2p/internal/transport"
)

// env is a minimal swarm world for wp2p integration tests.
type env struct {
	engine  *sim.Engine
	net     *netem.Network
	tracker *bt.Tracker
	torrent *bt.MetaInfo
	nextIP  netem.IP
}

func newEnv(seed int64, size int64, pieceLen int) *env {
	e := sim.NewEngine(sim.WithSeed(seed))
	return &env{
		engine:  e,
		net:     netem.NewNetwork(e, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond}),
		tracker: bt.NewTracker(e, bt.TrackerConfig{Interval: 30 * time.Second}),
		torrent: bt.NewMetaInfo("w", size, pieceLen),
		nextIP:  10,
	}
}

func (v *env) wired() *tcp.Stack {
	ip := v.nextIP
	v.nextIP++
	link := netem.NewAccessLink(v.engine, netem.AccessLinkConfig{
		UpRate: 1 * netem.MBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
	})
	return tcp.NewStack(v.engine, v.net.Attach(ip, link, nil))
}

func (v *env) wireless(cfg netem.WirelessConfig) *tcp.Stack {
	if cfg.Rate == 0 {
		cfg.Rate = 500 * netem.KBps
	}
	ip := v.nextIP
	v.nextIP++
	ch := netem.NewWirelessChannel(v.engine, cfg)
	return tcp.NewStack(v.engine, v.net.Attach(ip, ch, nil))
}

func (v *env) btCfg(stack *tcp.Stack) bt.Config {
	return bt.Config{Transport: transport.NewSim(stack), Torrent: v.torrent, Tracker: v.tracker}
}

func TestWP2PClientCompletesDownload(t *testing.T) {
	v := newEnv(1, 512*1024, 64*1024)
	seed := bt.NewClient(bt.Config{Transport: transport.NewSim(v.wired()), Torrent: v.torrent, Tracker: v.tracker, Seed: true})
	seed.Start()

	c := New(Config{
		BT:             v.btCfg(v.wireless(netem.WirelessConfig{BER: 1e-6})),
		AM:             &AMConfig{},
		LIHD:           &LIHDConfig{Umax: 100 * netem.KBps},
		MF:             &MFConfig{},
		RR:             &RRConfig{},
		RetainIdentity: true,
	})
	c.Start()
	v.engine.RunFor(10 * time.Minute)
	if !c.BT.Complete() {
		t.Fatalf("wP2P client incomplete: %.0f%%", c.BT.Progress()*100)
	}
	if c.am == nil || c.lihd == nil || c.mf == nil || c.RR() == nil {
		t.Error("components missing")
	}
	c.Stop()
}

func TestWP2PDisabledComponentsAreNil(t *testing.T) {
	v := newEnv(2, 512*1024, 64*1024)
	c := New(Config{BT: v.btCfg(v.wired())})
	if c.am != nil || c.lihd != nil || c.mf != nil || c.RR() != nil {
		t.Error("disabled components non-nil")
	}
	// Default picker must remain classic rarest-first behaviour (bt's own
	// default); nothing to assert beyond construction not panicking.
}

func TestWP2PIdentityRetentionAcrossAddressChange(t *testing.T) {
	v := newEnv(3, 512*1024, 64*1024)
	seed := bt.NewClient(bt.Config{Transport: transport.NewSim(v.wired()), Torrent: v.torrent, Tracker: v.tracker, Seed: true})
	seed.Start()
	stack := v.wired()
	c := New(Config{BT: v.btCfg(stack), RetainIdentity: true})
	c.Start()
	v.engine.RunFor(30 * time.Second)
	id := c.BT.PeerID()
	v.net.Rebind(stack.Iface(), 200)
	c.OnAddressChange()
	v.engine.RunFor(30 * time.Second)
	if c.BT.PeerID() != id {
		t.Errorf("peer-id changed across handoff: %s → %s", id, c.BT.PeerID())
	}
	if c.BT.Restarts() != 1 {
		t.Errorf("Restarts = %d", c.BT.Restarts())
	}
}

func TestWP2PWithoutRetentionRegeneratesID(t *testing.T) {
	v := newEnv(4, 512*1024, 64*1024)
	c := New(Config{BT: v.btCfg(v.wired())})
	c.Start()
	v.engine.RunFor(5 * time.Second)
	id := c.BT.PeerID()
	c.OnAddressChange()
	if c.BT.PeerID() == id {
		t.Error("peer-id retained without RetainIdentity")
	}
}

func TestWP2PIdentityStoreSharedAcrossRebuilds(t *testing.T) {
	// Simulates a client-process restart: a new wp2p.Client for the same
	// swarm with the same IdentityStore resumes the same peer-id.
	v := newEnv(5, 512*1024, 64*1024)
	ids := NewIdentityStore()
	c1 := New(Config{BT: v.btCfg(v.wired()), RetainIdentity: true, Identities: ids})
	c2 := New(Config{BT: v.btCfg(v.wired()), RetainIdentity: true, Identities: ids})
	if c1.BT.PeerID() != c2.BT.PeerID() {
		t.Error("identity store did not persist the id")
	}
}

func TestRoleReversalDetectsAddressChange(t *testing.T) {
	v := newEnv(6, 512*1024, 64*1024)
	seed := bt.NewClient(bt.Config{Transport: transport.NewSim(v.wired()), Torrent: v.torrent, Tracker: v.tracker, Seed: true})
	seed.Start()
	stack := v.wired()
	c := New(Config{
		BT:             v.btCfg(stack),
		RR:             &RRConfig{CheckInterval: time.Second},
		RetainIdentity: true,
	})
	c.Start()
	v.engine.RunFor(20 * time.Second)
	id := c.BT.PeerID()
	peersBefore := c.BT.NumPeers()
	if peersBefore == 0 {
		t.Fatal("setup: no peers before handoff")
	}
	v.net.Rebind(stack.Iface(), 210)
	v.engine.RunFor(10 * time.Second)
	if c.rr.regReversals.Value() == 0 {
		t.Fatal("RR never detected the address change")
	}
	if c.BT.PeerID() != id {
		t.Error("RR with retention changed the peer-id")
	}
	// Connections must be re-established promptly (dial latency, not
	// tracker latency).
	if c.BT.NumPeers() == 0 {
		t.Error("no peers re-established after reversal")
	}
}

func TestRoleReversalDeadPeersTriggersRedial(t *testing.T) {
	v := newEnv(7, 512*1024, 64*1024)
	seedStack := v.wired()
	seed := bt.NewClient(bt.Config{Transport: transport.NewSim(seedStack), Torrent: v.torrent, Tracker: v.tracker, Seed: true})
	seed.Start()
	c := New(Config{
		BT: v.btCfg(v.wired()),
		RR: &RRConfig{CheckInterval: time.Second, DeadPeersGrace: 5 * time.Second},
	})
	c.Start()
	v.engine.RunFor(20 * time.Second)
	if c.BT.NumPeers() == 0 {
		t.Fatal("setup: no peers")
	}
	// Kill all connections without an address change (e.g. AP glitch).
	seed.Stop()
	v.engine.RunFor(2 * time.Minute)
	if c.rr.regReversals.Value() == 0 {
		t.Error("RR never reacted to losing every live peer")
	}
}

func TestWP2PUnderPeriodicHandoffsCompletes(t *testing.T) {
	v := newEnv(8, 1024*1024, 64*1024)
	seed := bt.NewClient(bt.Config{Transport: transport.NewSim(v.wired()), Torrent: v.torrent, Tracker: v.tracker, Seed: true})
	seed.Start()
	stack := v.wired()
	c := New(Config{
		BT:             v.btCfg(stack),
		RR:             &RRConfig{CheckInterval: time.Second},
		MF:             &MFConfig{},
		RetainIdentity: true,
	})
	c.Start()
	h := mobility.NewHandoff(v.engine, v.net, stack.Iface(), mobility.NewIPAllocator(100), time.Minute)
	h.Start()
	v.engine.RunFor(20 * time.Minute)
	h.Stop()
	if !c.BT.Complete() {
		t.Fatalf("incomplete under handoffs: %.0f%% (changes=%d reversals=%d)",
			c.BT.Progress()*100, h.Changes(), c.rr.regReversals.Value())
	}
}

func TestWP2PPanicsWithoutTransport(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("missing transport did not panic")
		}
	}()
	New(Config{})
}
