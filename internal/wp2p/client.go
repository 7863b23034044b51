package wp2p

import (
	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/tcp"
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

	engine   *sim.Engine
	retainID bool
	// handled is the address the last re-initiation ran at, so one address
	// change gets one restart whether RR or an external trigger notices it
	// first.
	handled netem.IP
}

// New assembles a wP2P client. The BT config must carry Transport, Torrent,
// and Tracker, as for bt.NewClient. AM filters the simulated packet
// interface and tracks the modelled stack's flows, so it requires the
// modelled-stack backend (*transport.Sim); enabling it on any other backend
// panics.
func New(cfg Config) *Client {
	if cfg.BT.Transport == nil {
		panic("wp2p: Config.BT.Transport is required")
	}
	engine := cfg.BT.Transport.Engine()
	var stack *tcp.Stack
	if cfg.AM != nil {
		st, ok := cfg.BT.Transport.(*transport.Sim)
		if !ok {
			panic("wp2p: AM is a packet-level (sim-only) component and needs a *transport.Sim backend")
		}
		stack = st.Stack()
	}

	c := &Client{engine: engine, retainID: cfg.RetainIdentity}

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
		ids := cfg.Identities
		if ids == nil {
			ids = NewIdentityStore()
		}
		cfg.BT.PeerID = ids.For(cfg.BT.Torrent.InfoHash(), engine.Rand())
	}

	c.BT = bt.NewClient(cfg.BT)
	c.handled = c.BT.Addr().IP

	if cfg.AM != nil {
		c.am = NewAMFilter(engine, *cfg.AM)
		c.am.Install(stack.Iface())
		c.am.Track(stack)
	}
	if cfg.LIHD != nil {
		c.lihd = NewLIHD(engine, cfg.BT.UploadLimiter, c.BT, *cfg.LIHD)
	}
	if cfg.RR != nil {
		c.rr = newRoleReversal(c, *cfg.RR)
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

// Downloaded returns payload bytes received this run.
func (c *Client) Downloaded() int64 { return c.BT.Downloaded() }

// Uploaded returns payload bytes served this run.
func (c *Client) Uploaded() int64 { return c.BT.Uploaded() }

// OnAddressChange is the client's one reaction to a handoff, whether a
// mobility manager reports it or the RR watchdog notices it: the task
// re-initiates with the retained identity if IA is enabled, a fresh one
// otherwise, and known peers are redialled immediately. An address already
// handled is not handled again.
func (c *Client) OnAddressChange() {
	if c.BT.Addr().IP != c.handled {
		c.reinitiate()
	}
}

// reinitiate restarts the task under the identity policy and redials every
// stored peer.
func (c *Client) reinitiate() {
	c.handled = c.BT.Addr().IP
	c.BT.Restart(!c.retainID)
	c.BT.RedialKnown()
}
