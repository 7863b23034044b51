package wp2p

import (
	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/transport"
)

// IdentityStore persists peer-ids per swarm, implementing IA's identity
// retention: "as long as [task re-initiation] is for a swarm the mobile
// peer was a member of before, the old peer-id is retained." A fresh id is
// still generated per swarm, preserving the NAT-disambiguation rationale
// for unique ids.
type IdentityStore struct {
	ids map[bt.InfoHash]bt.PeerID
}

// NewIdentityStore returns an empty store.
func NewIdentityStore() *IdentityStore {
	return &IdentityStore{ids: make(map[bt.InfoHash]bt.PeerID)}
}

// For returns the stored id for the swarm, generating and remembering one
// from r if absent.
func (s *IdentityStore) For(h bt.InfoHash, r interface{ Int63() int64 }) bt.PeerID {
	if id, ok := s.ids[h]; ok {
		return id
	}
	id := bt.NewPeerID(r)
	s.ids[h] = id
	return id
}

// Config assembles a wP2P client. BT configures the underlying BitTorrent
// client; each component pointer enables that technique when non-nil, so
// ablation studies can toggle them independently.
type Config struct {
	BT bt.Config

	// AM enables Age-based Manipulation on the host interface.
	AM *AMConfig
	// LIHD enables upload-rate control. If BT.UploadLimiter is nil a
	// limiter is created and installed.
	LIHD *LIHDConfig
	// MF enables mobility-aware fetching; its Pr field selects the
	// schedule (nil = PrProgress, the paper's evaluation setting).
	MF *MFConfig
	// RR enables the role-reversal watchdog.
	RR *RRConfig
	// RetainIdentity enables IA identity retention: the peer-id survives
	// task re-initiations within the same swarm.
	RetainIdentity bool
	// Identities holds per-swarm ids for identity retention; one is created
	// if nil and RetainIdentity is set.
	Identities *IdentityStore
}

// MFConfig selects the mobility-aware fetch schedule.
type MFConfig struct {
	// Pr is the rarest-first probability schedule (nil = PrProgress).
	Pr PrFunc
}

// Client is the wP2P client: a bt.Client with the three wP2P components
// wired in. Default-client behaviour is recovered by disabling every
// component, which is how the evaluation scenarios build their baselines.
type Client struct {
	// BT is the underlying BitTorrent client; its read accessors are the
	// client's metrics surface.
	BT *bt.Client

	am   *AMFilter
	lihd *LIHD
	mf   *MobilityFetch
	rr   *RoleReversal

	engine     *sim.Engine
	iface      *netem.Iface
	retainID   bool
	identities *IdentityStore
}

// New assembles a wP2P client. The BT config must carry Transport, Torrent,
// and Tracker, as for bt.NewClient. AM and RR operate on the simulated
// packet interface, so they require a transport backed by the modelled
// stack (transport.Sim); enabling them on any other backend panics.
func New(cfg Config) *Client {
	if cfg.BT.Transport == nil {
		panic("wp2p: Config.BT.Transport is required")
	}
	engine := cfg.BT.Transport.Engine()
	var iface *netem.Iface
	if p, ok := cfg.BT.Transport.(transport.IfaceProvider); ok {
		iface = p.Iface()
	}
	if iface == nil && (cfg.AM != nil || cfg.RR != nil) {
		panic("wp2p: AM and RR are packet-level (sim-only) components and need a transport.IfaceProvider backend")
	}

	c := &Client{
		engine:     engine,
		iface:      iface,
		retainID:   cfg.RetainIdentity,
		identities: cfg.Identities,
	}

	if cfg.MF != nil {
		c.mf = NewMobilityFetch(cfg.MF.Pr)
		c.mf.bindStats(engine.Stats())
		cfg.BT.Picker = c.mf
	}
	if cfg.LIHD != nil {
		if cfg.BT.UploadLimiter == nil {
			cfg.BT.UploadLimiter = bt.NewLimiter(engine, cfg.LIHD.Umax/2)
		}
	}
	if cfg.RetainIdentity && cfg.BT.PeerID == "" {
		if c.identities == nil {
			c.identities = NewIdentityStore()
		}
		cfg.BT.PeerID = c.identities.For(cfg.BT.Torrent.InfoHash(), engine.Rand())
	}

	c.BT = bt.NewClient(cfg.BT)

	if cfg.AM != nil {
		c.am = NewAMFilter(engine, *cfg.AM)
		c.am.Install(iface)
		if sp, ok := cfg.BT.Transport.(transport.StackProvider); ok {
			c.am.Track(sp.Stack())
		}
	}
	if cfg.LIHD != nil {
		c.lihd = NewLIHD(engine, cfg.BT.UploadLimiter, c.BT, *cfg.LIHD)
	}
	if cfg.RR != nil {
		rrCfg := *cfg.RR
		rrCfg.RetainIdentity = cfg.RetainIdentity
		c.rr = NewRoleReversal(engine, c.BT, iface, rrCfg)
	}
	return c
}

// Start joins the swarm and starts every enabled component.
func (c *Client) Start() error {
	if err := c.BT.Start(); err != nil {
		return err
	}
	if c.lihd != nil {
		c.lihd.Start()
	}
	if c.rr != nil {
		c.rr.Start()
	}
	return nil
}

// Stop leaves the swarm and stops every enabled component.
func (c *Client) Stop() {
	if c.rr != nil {
		c.rr.Stop()
	}
	if c.lihd != nil {
		c.lihd.Stop()
	}
	c.BT.Stop()
}

// OnAddressChange reacts to a handoff explicitly (used when RR is disabled
// or an external mobility manager drives the client): the task re-initiates
// with the retained identity if IA is enabled, a fresh one otherwise, and
// known peers are redialled immediately.
func (c *Client) OnAddressChange() {
	c.BT.Restart(!c.retainID)
	c.BT.RedialKnown()
}

// RR returns the role-reversal watchdog, or nil if disabled.
func (c *Client) RR() *RoleReversal { return c.rr }
