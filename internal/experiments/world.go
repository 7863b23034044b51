package experiments

import (
	"fmt"
	"time"

	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/check"
	"github.com/wp2p/wp2p/internal/flow"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/runner"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/stats"
	"github.com/wp2p/wp2p/internal/tcp"
	"github.com/wp2p/wp2p/internal/telemetry"
	"github.com/wp2p/wp2p/internal/trace"
	"github.com/wp2p/wp2p/internal/transport"
)

// World bundles a simulation universe for one experiment run: engine,
// network, tracker, and address allocation.
type World struct {
	Engine  *sim.Engine
	Net     *netem.Network
	Tracker *bt.Tracker

	// Sharded is the coordinator of a sharded world (NewWorldSharded with
	// Workers ≥ 1), nil on the single-engine path. Engine and Net then alias
	// shard 0, where the tracker lives.
	Sharded *sim.ShardedEngine
	// Shards holds every partition of a sharded world (empty otherwise).
	Shards []Shard

	// parts is every partition of the world, the form the observers iterate:
	// Shards in a sharded world, the one {Engine, Net} pair otherwise.
	parts []Shard
	// What obs.attach armed, one entry per part; nil when that observer is off.
	recs []*trace.Recorder
	chks []*check.Checker
	// Sampling state: the cadence (0 = off), samples taken, timeline markers.
	sampleEvery time.Duration
	samples     int64
	ann         []telemetry.Annotation

	dir      *netem.Directory
	perm     []int
	nextHost int
	fabrics  []*flow.Fabric // lazy per-shard fluid fabrics (FluidHost)

	seed   int64
	nextIP netem.IP
}

// NewWorld builds a world with the given seed and tracker announce
// interval (zero selects the bt default).
func NewWorld(seed int64, announce time.Duration) *World {
	return NewWorldNet(seed, announce, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond})
}

// NewWorldNet is NewWorld with an explicit network config, for callers (the
// scenario engine) that shape the routing cloud themselves.
func NewWorldNet(seed int64, announce time.Duration, netCfg netem.NetworkConfig) *World {
	e := sim.NewEngine(sim.WithSeed(seed))
	w := &World{
		Engine:  e,
		Net:     netem.NewNetwork(e, netCfg),
		Tracker: bt.NewTracker(e, bt.TrackerConfig{Interval: announce}),
		seed:    seed,
		nextIP:  netem.IP(10),
	}
	w.parts = []Shard{{Engine: e, Net: w.Net}}
	obs.attach(w)
	return w
}

// Finish closes out one world's run: invariant checkers take their final
// sweep, every registry folds into the experiment's collector (nil skips
// collection) and the package observers, and, when tracing is on, the
// recorder's retained tail is dumped. Runners defer this right after
// NewWorld so every world a figure builds is accounted for exactly once.
func (w *World) Finish(col *stats.Collector) {
	if w.Sharded != nil {
		w.Sharded.Close()
	}
	for _, c := range w.chks {
		c.Finish() // outside obs.mu: a violation lands in onViolation, which takes it
	}
	obs.finish(w, col)
}

// recFor returns the flight recorder owning a shard's timeline, nil when
// tracing is off.
func (w *World) recFor(shard int) *trace.Recorder {
	if w.recs == nil {
		return nil
	}
	return w.recs[shard]
}

// NextIP hands out a fresh host address.
func (w *World) NextIP() netem.IP {
	ip := w.nextIP
	w.nextIP++
	return ip
}

// Host is one machine: its interface, medium, and TCP stack. Engine and Net
// are the shard the host lives on (the world's own on the single-engine
// path); all of the host's model code — timers, limiters, mobility — must
// schedule there.
type Host struct {
	Stack *tcp.Stack
	// Transport is the stack behind the protocol-facing seam (a
	// transport.Sim adapter over Stack); protocol configs take this.
	Transport transport.Interface
	Iface     *netem.Iface
	Link      *netem.AccessLink      // non-nil for packet-level wired hosts
	Flow      *flow.Link             // non-nil for fluid (flow-fidelity) wired hosts
	WLAN      *netem.WirelessChannel // non-nil for wireless hosts
	Engine    *sim.Engine
	Net       *netem.Network
	Shard     int
}

// Fidelity values select how a wired host's bulk transfers are modelled:
// per-packet serialization through an AccessLink, or the flow-level fluid
// model (internal/flow). Wireless and mobile hosts are always packet-level.
const (
	FidelityPacket = "packet"
	FidelityFlow   = "flow"
)

// WiredHost attaches a host behind a full-duplex access link. Zero rates
// default to 1 MB/s each way.
func (w *World) WiredHost(up, down netem.Rate) *Host {
	return w.WiredHostLink(netem.AccessLinkConfig{UpRate: up, DownRate: down})
}

// wiredDefaults fills a wired access link's zero fields: 1 MB/s each way and
// a 1 ms delay, at either fidelity, so packet and fluid variants of an
// experiment differ only in fidelity.
func wiredDefaults(cfg netem.AccessLinkConfig) netem.AccessLinkConfig {
	if cfg.UpRate == 0 {
		cfg.UpRate = 1 * netem.MBps
	}
	if cfg.DownRate == 0 {
		cfg.DownRate = 1 * netem.MBps
	}
	if cfg.Delay == 0 {
		cfg.Delay = time.Millisecond
	}
	return cfg
}

// WiredHostLink is WiredHost with the full link config exposed, for callers
// (the scenario compiler) that shape queues and delays themselves. Zero
// rates and a zero delay take WiredHost's defaults.
func (w *World) WiredHostLink(cfg netem.AccessLinkConfig) *Host {
	shard, eng, net := w.place()
	link := netem.NewAccessLink(eng, wiredDefaults(cfg))
	ip := w.NextIP()
	iface := net.Attach(ip, link, nil)
	if rec := w.recFor(shard); rec != nil {
		trace.WatchLink(rec, fmt.Sprintf("wired.%d", ip), link)
		trace.WatchIface(rec, fmt.Sprintf("host.%d", ip), iface)
	}
	return newHost(eng, net, iface, shard, func(h *Host) { h.Link = link })
}

// flowFabric returns the shard's fluid fabric, building it on first use.
// End-to-end delivery (one event per wired→wired packet) is enabled only on
// the single-engine path: sharded worlds keep the split-leg boundary form so
// cross-shard packets ride the fabric's migration queues unchanged, which is
// what keeps digests worker-count-invariant.
func (w *World) flowFabric(shard int, eng *sim.Engine, net *netem.Network) *flow.Fabric {
	if w.fabrics == nil {
		n := 1
		if len(w.Shards) > 0 {
			n = len(w.Shards)
		}
		w.fabrics = make([]*flow.Fabric, n)
	}
	f := w.fabrics[shard]
	if f == nil {
		f = flow.NewFabric(eng, net, flow.Config{EndToEnd: w.Sharded == nil})
		if rec := w.recFor(shard); rec != nil {
			trace.WatchFlow(rec, "flow", f)
		}
		w.fabrics[shard] = f
	}
	return f
}

// FluidHost attaches a host behind a flow-level (fluid) access link: the
// wired analogue of WiredHostLink at "flow" fidelity, with the same zero
// defaults. Fluid hosts must stay at their address for the life of the world
// (no mobility).
func (w *World) FluidHost(cfg netem.AccessLinkConfig) *Host {
	cfg = wiredDefaults(cfg)
	shard, eng, net := w.place()
	fab := w.flowFabric(shard, eng, net)
	ip := w.NextIP()
	link := fab.NewLink(ip, cfg)
	iface := net.Attach(ip, link, nil)
	if rec := w.recFor(shard); rec != nil {
		trace.WatchIface(rec, fmt.Sprintf("host.%d", ip), iface)
	}
	return newHost(eng, net, iface, shard, func(h *Host) { h.Flow = link })
}

// DefaultWirelessOverhead is the per-packet channel-access cost used for
// experiment WLANs: roughly the 802.11 preamble + interframe spacing + MAC
// acknowledgement, scaled to the modelled channel rates (a full data packet
// serializes in ~10 ms at 150 KB/s, so 2 ms ≈ the real ~20% fixed-cost
// share).
const DefaultWirelessOverhead = 2 * time.Millisecond

// WirelessHost attaches a host behind its own shared half-duplex channel
// (the paper runs each mobile client behind its own ns-2 wireless
// emulator).
func (w *World) WirelessHost(cfg netem.WirelessConfig) *Host {
	if cfg.Rate == 0 {
		cfg.Rate = 500 * netem.KBps
	}
	if cfg.Delay == 0 {
		cfg.Delay = 2 * time.Millisecond
	}
	if cfg.Overhead == 0 {
		cfg.Overhead = DefaultWirelessOverhead
	}
	shard, eng, net := w.place()
	ch := netem.NewWirelessChannel(eng, cfg)
	ip := w.NextIP()
	iface := net.Attach(ip, ch, nil)
	if rec := w.recFor(shard); rec != nil {
		trace.WatchWireless(rec, fmt.Sprintf("wlan.%d", ip), ch)
		trace.WatchIface(rec, fmt.Sprintf("host.%d", ip), iface)
	}
	return newHost(eng, net, iface, shard, func(h *Host) { h.WLAN = ch })
}

// newHost builds a Host around a fresh modelled stack, wiring the transport
// seam, and lets fill attach the medium-specific handle.
func newHost(eng *sim.Engine, net *netem.Network, iface *netem.Iface, shard int, fill func(*Host)) *Host {
	stack := tcp.NewStack(eng, iface)
	h := &Host{
		Stack:     stack,
		Transport: transport.NewSim(stack),
		Iface:     iface,
		Engine:    eng,
		Net:       net,
		Shard:     shard,
	}
	fill(h)
	return h
}

// BTConfig builds a client config bound to this world's tracker (through the
// host's shard-appropriate announcer).
func (w *World) BTConfig(h *Host, torrent *bt.MetaInfo) bt.Config {
	return bt.Config{Transport: h.Transport, Torrent: torrent, Tracker: w.Announcer(h)}
}

// mustStart is the experiment layer's one fatal path for protocol Start
// errors: world construction assigns every host a unique port space, so a
// failure here is a programming error, not a runtime condition.
func mustStart(err error) {
	if err != nil {
		panic(err)
	}
}

// Scaled multiplies n by scale with a floor of lo — the sizing rule every
// registry experiment (and the scenario engine) applies to -scale.
func Scaled(n int64, scale float64, lo int64) int64 {
	v := int64(float64(n) * scale)
	if v < lo {
		return lo
	}
	return v
}

// ScaledDur multiplies d by scale with a floor.
func ScaledDur(d time.Duration, scale float64, lo time.Duration) time.Duration {
	v := time.Duration(float64(d) * scale)
	if v < lo {
		return lo
	}
	return v
}

// SwarmConfig describes the fixed-peer population of a contested swarm.
type SwarmConfig struct {
	Seeds   int        // full-content peers
	SeedCap netem.Rate // per-seed upload cap
	Leeches int        // partially complete fixed peers
	Slots   int        // unchoke slots for every fixed peer
}

// PopulateSwarm builds a scaled-down stand-in for a live swarm: capped
// seeds plus leeches that joined at different times (random 30–80% piece
// maps, so content is diverse and plentiful) with alternating strong and
// near-free-rider uplinks. Scarce unchoke slots contested against rivals of
// diverse strength are what make tit-for-tat standing — and hence upload
// behaviour and identity — matter, as they do in real swarms.
func (w *World) PopulateSwarm(tor *bt.MetaInfo, cfg SwarmConfig) []*bt.Client {
	if cfg.Slots == 0 {
		cfg.Slots = 2
	}
	if cfg.SeedCap == 0 {
		cfg.SeedCap = 30 * netem.KBps
	}
	out := make([]*bt.Client, 0, cfg.Seeds+cfg.Leeches)
	for i := 0; i < cfg.Seeds; i++ {
		h := w.WiredHost(0, 0)
		c := bt.NewClient(bt.Config{
			Transport: h.Transport, Torrent: tor, Tracker: w.Announcer(h),
			Seed: true, UploadLimiter: bt.NewLimiter(h.Engine, cfg.SeedCap),
			UnchokeSlots: cfg.Slots,
		})
		mustStart(c.Start())
		out = append(out, c)
	}
	for i := 0; i < cfg.Leeches; i++ {
		var up netem.Rate
		if i%2 == 0 {
			up = netem.Rate(10+w.Engine.Rand().Int63n(40)) * netem.KBps
		} else {
			up = netem.Rate(1+w.Engine.Rand().Int63n(3)) * netem.KBps
		}
		h := w.WiredHost(0, 0)
		c := bt.NewClient(bt.Config{
			Transport:     h.Transport,
			Torrent:       tor,
			Tracker:       w.Announcer(h),
			UnchokeSlots:  cfg.Slots,
			UploadLimiter: bt.NewLimiter(h.Engine, up),
			InitialHave:   w.RandomHave(tor, 0.3+0.5*w.Engine.Rand().Float64()),
		})
		mustStart(c.Start())
		out = append(out, c)
	}
	return out
}

// RandomHave builds a piece map with roughly the given fraction of pieces
// set, drawn from the world's deterministic RNG.
func (w *World) RandomHave(tor *bt.MetaInfo, fraction float64) *bt.Bitfield {
	have := bt.NewBitfield(tor.NumPieces())
	for i := 0; i < have.Len(); i++ {
		if w.Engine.Rand().Float64() < fraction {
			have.Set(i)
		}
	}
	return have
}

// sweepPairs fans xs over the pool and, at each point, measures a pair of
// values per run (two clients of one world, or one world each) and averages
// both through runner.AverageSeries. It returns one y column per value.
func sweepPairs[X any](xs []X, runs int, measure func(i int, x X, run int) (a, b float64)) (as, bs []float64) {
	pts := runner.Sweep(xs, func(i int, x X) []float64 {
		return runner.AverageSeries(runs, func(r int) []float64 {
			a, b := measure(i, x, r)
			return []float64{a, b}
		})
	})
	for _, pt := range pts {
		as, bs = append(as, pt[0]), append(bs, pt[1])
	}
	return as, bs
}

// minuteAxis is the x axis of a progress curve sampled every period up to
// the horizon; a run records one y per element.
func minuteAxis(period, horizon time.Duration) (x []float64) {
	for t := period; t <= horizon; t += period {
		x = append(x, t.Minutes())
	}
	return x
}

// kbps converts bytes/second to KB/s for reporting.
func kbps(bytesPerSec float64) float64 { return bytesPerSec / 1000 }

// inKBps converts columns of bytes/second in place.
func inKBps(cols ...[]float64) {
	for _, ys := range cols {
		for i := range ys {
			ys[i] = kbps(ys[i])
		}
	}
}

// mb converts bytes to megabytes for reporting.
func mb(bytes int64) float64 { return float64(bytes) / 1e6 }
