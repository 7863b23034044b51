package scenario

import (
	"fmt"
	"time"

	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/ed2k"
	"github.com/wp2p/wp2p/internal/experiments"
	"github.com/wp2p/wp2p/internal/gnutella"
	"github.com/wp2p/wp2p/internal/mobility"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/wp2p"
)

// compiled is one fully built world: hosts attached, clients constructed,
// schedules armed — ready for the engine to run to the horizon.
//
// Construction order is part of the determinism contract: groups in spec
// order, instances in index order, and per instance host → client → start →
// mobility, exactly the order the hardcoded experiments build their worlds
// in, so a scenario that mirrors a figure consumes the engine RNG
// identically and reproduces its values bit-for-bit.
type compiled struct {
	spec *Spec
	w    *experiments.World

	// packetOnly (Options.Fidelity == FidelityPacket) builds every group
	// packet-level, whatever its fidelity field says.
	packetOnly bool

	// horizon is the scaled measurement window; tscale (horizon ÷ spec
	// duration) stretches every event time to match.
	horizon time.Duration
	tscale  float64

	insts  []*instance
	groups map[string][]*instance

	// contentSize is the scaled file size shared by every protocol's
	// content object.
	contentSize int64

	tor    *bt.MetaInfo
	edFile *ed2k.File
	edSrv  *ed2k.Server
	// hub centers the gnutella star overlay (the first instance built).
	hub *instance
}

// client is what the compiler drives on every protocol's peer: *bt.Client,
// *wp2p.Client, *ed2k.Client and *gnutella.Node all satisfy it.
type client interface {
	Start() error
	Stop()
	Downloaded() int64
	Uploaded() int64
}

// instance is one live peer: its host plus the protocol client the workload
// selected. wp and gn are typed handles to the same client for the
// operations only that protocol has (the wP2P reaction; gnutella's hub,
// search and relink), nil on every other peer.
type instance struct {
	group  *PeerGroup
	index  int
	host   *experiments.Host
	client client

	wp *wp2p.Client
	gn *gnutella.Node

	handoff *mobility.Handoff
	disc    *mobility.Disconnection

	started bool
	// completedAt is when the client's own completion callback fired: 0
	// for a peer that starts complete (role seed), -1 while incomplete.
	completedAt time.Duration
}

// compile builds the world for one run of the spec. The spec must have
// passed validation and scale be > 0 (RunOpts checks both); structural impossibilities here are bugs, not user
// errors, and panic like the layers below.
func compile(s *Spec, scale float64, seed int64, opts Options) *compiled {
	horizon := experiments.ScaledDur(s.Duration.D(), scale, s.DurationFloor.D())
	netCfg := netem.NetworkConfig{
		CloudDelay: s.Network.CloudDelay.D(),
		Jitter:     s.Network.Jitter.D(),
	}
	c := &compiled{
		spec:       s,
		w:          experiments.NewWorldSharded(seed, s.AnnounceInterval.D(), netCfg, opts.ShardWorkers),
		packetOnly: opts.Fidelity == FidelityPacket,
		horizon:    horizon,
		tscale:     float64(horizon) / float64(s.Duration.D()),
		groups:     make(map[string][]*instance),
	}
	c.buildContent(scale)
	needH := s.eventDrivenHandoffGroups()
	for gi := range s.Peers {
		g := &s.Peers[gi]
		insts := make([]instance, count(g))
		for i := range insts {
			c.buildInstance(&insts[i], g, i, needH[g.Name])
		}
	}
	if s.Workload.Protocol == ProtoGnutella {
		c.armRelinker()
	}
	c.armEvents()
	return c
}

// count returns a group's instance count with its default.
func count(g *PeerGroup) int {
	if g.Count == 0 {
		return 1
	}
	return g.Count
}

// evDur stretches an event-schedule duration to the scaled horizon.
func (c *compiled) evDur(d Duration) time.Duration {
	return time.Duration(float64(d.D()) * c.tscale)
}

// contentName returns the shared content's identifier.
func (s *Spec) contentName() string {
	if s.Workload.Torrent.Name != "" {
		return s.Workload.Torrent.Name
	}
	return s.Name
}

// buildContent sets up the protocol's shared content description.
func (c *compiled) buildContent(scale float64) {
	t := c.spec.Workload.Torrent
	c.contentSize = experiments.Scaled(t.SizeBytes, scale, t.SizeFloor)
	switch c.spec.Workload.Protocol {
	case ProtoBT:
		c.tor = bt.NewMetaInfo(c.spec.contentName(), c.contentSize, bt.DefaultPieceLen)
	case ProtoEd2k:
		c.edFile = &ed2k.File{ID: ed2k.FileID(c.spec.contentName()), Size: c.contentSize, ChunkLen: bt.DefaultPieceLen}
		c.edSrv = ed2k.NewServer(c.w.Engine)
	case ProtoGnutella:
		// Sharers register the key per instance; nothing global to build.
	}
}

// buildInstance constructs one peer: host, client, start, mobility — in
// that order (see the determinism note on compiled).
func (c *compiled) buildInstance(inst *instance, g *PeerGroup, i int, eventDriven bool) {
	*inst = instance{group: g, index: i, completedAt: -1}
	if g.Role == RoleSeed {
		inst.completedAt = 0
	}
	switch g.Link.Kind {
	case "wired":
		link := netem.AccessLinkConfig{
			UpRate: g.Link.Up.R(), DownRate: g.Link.Down.R(),
			Delay: g.Link.Delay.D(), QueueCap: g.Link.QueueCap,
		}
		if g.Fidelity == FidelityFlow && !c.packetOnly {
			inst.host = c.w.FluidHost(link)
		} else {
			inst.host = c.w.WiredHostLink(link)
		}
	case "wireless":
		inst.host = c.w.WirelessHost(netem.WirelessConfig{
			Rate:     g.Link.Rate.R(),
			Delay:    g.Link.Delay.D(),
			QueueCap: g.Link.QueueCap,
			BER:      g.Link.BER,
		})
	}
	c.buildClient(inst)
	c.insts = append(c.insts, inst)
	c.groups[g.Name] = append(c.groups[g.Name], inst)
	if c.hub == nil {
		c.hub = inst
	}

	if !g.Deferred {
		at := c.evDur(g.StartAt) + time.Duration(i)*c.evDur(g.ArrivalInterval)
		if at == 0 {
			inst.start(c)
		} else {
			// Start on the host's own shard: bringing a client up touches
			// only that instance's state.
			inst.host.Engine.Schedule(at, func() { inst.start(c) })
		}
	}

	if m := g.Mobility; m != nil && (m.First == 0 || i < m.First) {
		c.buildMobility(inst, m, eventDriven)
	}
}

// buildMobility arms an instance's handoff machinery. A zero period with no
// event-driven need builds nothing — matching the hardcoded experiments,
// which create handoffs only for actually-mobile peers (and so keep the
// stats registry, and the RNG, untouched for static ones).
func (c *compiled) buildMobility(inst *instance, m *MobilitySpec, eventDriven bool) {
	period := m.Period.D()
	if period == 0 && !eventDriven {
		return
	}
	base := netem.IP(m.IPBase + uint32(inst.index)*m.stride())
	alloc := mobility.NewIPAllocator(base)
	hPeriod := period
	if hPeriod == 0 {
		// Placeholder for event-driven-only handoffs; never started, so
		// the value is inert (NewHandoff just rejects non-positive).
		hPeriod = c.horizon + time.Hour
	}
	h := mobility.NewHandoff(inst.host.Engine, inst.host.Net, inst.host.Iface, alloc, hPeriod)
	inst.handoff = h
	if m.Jitter > 0 {
		h.SetJitter(m.Jitter.D())
	}
	// The oblivious reaction installs nothing: connections die by timeout
	// and the swarm relearns the address from announces (a wP2P group's RR
	// watchdog, if enabled, notices the move itself).
	if m.Reaction != ReactOblivious {
		// The paper's default client (never on gnutella): bt and ed2k
		// restart under a fresh identity, wP2P through its one reaction.
		reinit := func() { inst.client.(interface{ Restart(bool) }).Restart(true) }
		if inst.wp != nil {
			reinit = inst.wp.OnAddressChange
		}
		delay := mobility.DetectionDelay
		if m.DetectionDelay != nil {
			delay = m.DetectionDelay.D()
		}
		mobility.DefaultReaction(inst.host.Engine, h, delay, reinit)
	}
	// Instances that started inline arm their schedule now (the hardcoded
	// experiments' order); later starters arm it when they come up.
	if period > 0 && inst.started {
		h.Start()
	}
}

// stride returns the per-instance address-range spacing.
func (m *MobilitySpec) stride() uint32 {
	if m.IPStride == 0 {
		return 1000
	}
	return m.IPStride
}

// eventDrivenHandoffGroups names the groups whose handoff machinery events
// will drive, so zero-period mobility still gets built for them.
func (s *Spec) eventDrivenHandoffGroups() map[string]bool {
	out := map[string]bool{}
	for _, ev := range s.Events {
		if ev.Action == ActHandoff || ev.Action == ActHandoffStorm {
			out[ev.Peers] = true
		}
	}
	return out
}

// buildClient constructs the protocol client for an instance and hooks its
// completion callback.
func (c *compiled) buildClient(inst *instance) {
	g := inst.group
	switch c.spec.Workload.Protocol {
	case ProtoBT:
		cfg := bt.Config{
			Transport: inst.host.Transport, Torrent: c.tor, Tracker: c.w.Announcer(inst.host),
			Seed:         g.Role == RoleSeed,
			UnchokeSlots: g.UnchokeSlots,
		}
		if g.UploadLimit > 0 {
			cfg.UploadLimiter = bt.NewLimiter(inst.host.Engine, g.UploadLimit.R())
		}
		if g.InitialHave > 0 {
			cfg.InitialHave = c.w.RandomHave(c.tor, g.InitialHave)
		}
		if g.WP2P == nil {
			b := bt.NewClient(cfg)
			b.OnComplete = inst.complete
			inst.client = b
			return
		}
		wcfg := wp2p.Config{BT: cfg, RetainIdentity: g.WP2P.RetainIdentity}
		if g.WP2P.AM {
			wcfg.AM = &wp2p.AMConfig{}
		}
		if l := g.WP2P.LIHD; l != nil {
			wcfg.LIHD = &wp2p.LIHDConfig{Umax: l.Umax.R(), Period: l.Period.D()}
		}
		if g.WP2P.MF {
			wcfg.MF = &wp2p.MFConfig{}
		}
		if g.WP2P.RR {
			wcfg.RR = &wp2p.RRConfig{}
		}
		inst.wp = wp2p.New(wcfg)
		inst.wp.BT.OnComplete = inst.complete
		inst.client = inst.wp
	case ProtoEd2k:
		cfg := ed2k.Config{
			Transport: inst.host.Transport, Server: c.edSrv, File: c.edFile,
			Seed:          g.Role == RoleSeed,
			UploadSlots:   g.UnchokeSlots,
			QueryInterval: c.spec.AnnounceInterval.D(),
		}
		if g.InitialHave > 0 {
			chunks := make([]bool, c.edFile.NumChunks())
			for j := range chunks {
				chunks[j] = c.w.Engine.Rand().Float64() < g.InitialHave
			}
			cfg.InitialChunks = chunks
		}
		e := ed2k.NewClient(cfg)
		e.OnComplete = inst.complete
		inst.client = e
	case ProtoGnutella:
		inst.gn = gnutella.NewNode(gnutella.Config{Transport: inst.host.Transport})
		inst.gn.OnComplete = func(gnutella.FileKey) { inst.complete() }
		inst.client = inst.gn
	}
}

// complete records the instant the client finished its download; ed2k
// repeats the callback for blocks still in flight, so only the first counts.
func (inst *instance) complete() {
	if inst.completedAt < 0 {
		inst.completedAt = inst.host.Engine.Now()
	}
}

// start brings the instance's client up (idempotent; join events and the
// arrival schedule may race benignly).
func (inst *instance) start(c *compiled) {
	if inst.started {
		return
	}
	inst.started = true
	if inst.handoff != nil && inst.group.Mobility.Period > 0 && !inst.handoff.Running() {
		defer inst.handoff.Start()
	}
	// Scenario worlds assign every instance its own host, so a listen
	// conflict is a compiler bug; fail loudly with the offending instance.
	if err := inst.client.Start(); err != nil {
		panic(fmt.Sprintf("scenario: start %s: %v", inst.group.Name, err))
	}
	if inst.gn != nil {
		c.joinOverlay(inst)
	}
}

// joinOverlay links a gnutella node into the star overlay: seeds share the
// content, every other node links to the hub, and searchers flood once the
// link settles.
func (c *compiled) joinOverlay(inst *instance) {
	key := gnutella.FileKey(c.spec.contentName())
	if inst.group.Role == RoleSeed {
		inst.gn.Share(gnutella.Shared{Key: key, Size: c.contentSize})
	}
	if inst != c.hub {
		// Stagger overlay joins so the hub's accept path isn't one burst.
		c.w.Engine.Schedule(100*time.Millisecond, func() {
			inst.gn.ConnectNeighbor(c.hub.gn.Addr())
		})
	}
	if inst.group.Role != RoleSeed {
		c.w.Engine.Schedule(2*time.Second, func() { inst.gn.Search(key) })
	}
}

// stop is the leave action: the client departs the network.
func (inst *instance) stop() {
	if !inst.started {
		return
	}
	inst.client.Stop()
	if inst.handoff != nil {
		inst.handoff.Stop()
	}
}

// armRelinker keeps the gnutella star overlay connected: any node whose
// neighbor links all died (its responder handed off, say) re-links to the
// hub — real nodes re-bootstrap the same way.
func (c *compiled) armRelinker() {
	c.w.Engine.Schedule(10*time.Second, func() { c.relink() })
}

func (c *compiled) relink() {
	for _, inst := range c.insts {
		if inst != c.hub && inst.started && inst.gn.Neighbors() == 0 {
			inst.gn.ConnectNeighbor(c.hub.gn.Addr())
		}
	}
	c.w.Engine.Schedule(10*time.Second, func() { c.relink() })
}

// targets resolves an event's instance selection.
func (c *compiled) targets(name string, index *int) []*instance {
	insts := c.groups[name]
	if index == nil {
		return insts
	}
	if *index >= len(insts) {
		panic(fmt.Sprintf("scenario: event index %d out of range for group %q", *index, name))
	}
	return insts[*index : *index+1]
}
