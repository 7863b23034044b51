package wp2p

import (
	"time"

	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/stats"
)

// RRConfig tunes the Role Reversal watchdog.
type RRConfig struct {
	// CheckInterval is how often the watchdog samples the interface address
	// and live-peer count (default 2 s).
	CheckInterval time.Duration
	// DeadPeersGrace re-dials known peers if the client has had zero live
	// peers for this long — the paper's wP2P client "monitors the number of
	// live peers, and infers mobility by the lack of any live peer"
	// (default 10 s).
	DeadPeersGrace time.Duration
	// RetainIdentity keeps the peer-id across the reconnect (the IA
	// identity-retention technique). The wP2P client sets this; disabling
	// it isolates RR's effect for ablations.
	RetainIdentity bool
}

func (c RRConfig) withDefaults() RRConfig {
	if c.CheckInterval == 0 {
		c.CheckInterval = 2 * time.Second
	}
	if c.DeadPeersGrace == 0 {
		c.DeadPeersGrace = 10 * time.Second
	}
	return c
}

// RoleReversal is the MA technique for the mobile-host-as-server problem:
// after a handoff, instead of waiting minutes for fixed peers to rediscover
// the new address through the tracker, the mobile host reverses roles and
// immediately re-establishes connections to its stored peers as a client.
// Peers serve traffic regardless of who initiated the connection, so
// serving resumes at dial latency instead of announce latency.
type RoleReversal struct {
	engine *sim.Engine
	client *bt.Client
	iface  *netem.Iface
	cfg    RRConfig

	ticker       *sim.Ticker
	lastIP       netem.IP
	deadSince    time.Duration
	everAlive    bool
	regReversals *stats.Counter

	// OnReversal fires after each reconnect sweep, for tests and metrics.
	OnReversal func()
}

// NewRoleReversal builds the watchdog; call Start to begin monitoring.
func NewRoleReversal(engine *sim.Engine, client *bt.Client, iface *netem.Iface, cfg RRConfig) *RoleReversal {
	return &RoleReversal{
		engine:       engine,
		client:       client,
		iface:        iface,
		cfg:          cfg.withDefaults(),
		lastIP:       iface.IP(),
		regReversals: engine.Stats().Counter("wp2p.rr.reversals"),
	}
}

// Start begins monitoring.
func (r *RoleReversal) Start() {
	if r.ticker == nil {
		r.deadSince = -1
		r.ticker = sim.NewTicker(r.engine, r.cfg.CheckInterval, r.check)
	}
}

// Stop halts monitoring.
func (r *RoleReversal) Stop() {
	if r.ticker != nil {
		r.ticker.Stop()
		r.ticker = nil
	}
}

func (r *RoleReversal) check() {
	if ip := r.iface.IP(); ip != r.lastIP {
		r.lastIP = ip
		r.reverse()
		return
	}
	// Secondary signal: all live peers gone.
	if r.client.NumPeers() > 0 {
		r.everAlive = true
		r.deadSince = -1
		return
	}
	if !r.everAlive {
		return // never had peers; nothing to restore
	}
	if r.deadSince < 0 {
		r.deadSince = r.engine.Now()
		return
	}
	if r.engine.Now()-r.deadSince >= r.cfg.DeadPeersGrace {
		r.deadSince = -1
		r.reverse()
	}
}

// reverse tears down the stale task state and immediately re-establishes
// connections to every stored peer, announcing the new address as it goes.
func (r *RoleReversal) reverse() {
	r.regReversals.Inc()
	r.client.Restart(!r.cfg.RetainIdentity)
	r.client.RedialKnown()
	if r.OnReversal != nil {
		r.OnReversal()
	}
}
