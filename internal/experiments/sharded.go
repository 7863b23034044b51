package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/telemetry"
)

// DefaultLogicalShards is the logical partition count of a sharded world.
// It is part of the model (see sim.ShardedConfig.Shards): every sharded run
// uses the same logical count regardless of worker threads, which is what
// makes digest streams byte-identical across -shards 1/2/4.
const DefaultLogicalShards = 8

// ShardConfig selects between the single-engine world and the sharded one.
type ShardConfig struct {
	// Logical is the partition count (0 = DefaultLogicalShards). Changing it
	// changes the trajectory, like changing the seed.
	Logical int
	// Workers is the worker-thread count; 0 or less selects the
	// single-engine world. Any positive value replays the same sharded
	// trajectory.
	Workers int
}

// Shard is one partition of a world.
type Shard struct {
	Engine *sim.Engine
	Net    *netem.Network
}

// hostShardSalt decorrelates the host→shard permutation from other uses of
// the seed.
const hostShardSalt = 0x5bd1e995

// partition builds a sharded world's coordinator and shards. The core
// propagation delay is the minimum cross-shard interaction latency — every
// packet between shards crosses the cloud — so it is the barrier lookahead
// (DESIGN.md §14 derives this).
func (w *World) partition(seed int64, netCfg netem.NetworkConfig, sc ShardConfig) {
	logical := sc.Logical
	if logical <= 0 {
		logical = DefaultLogicalShards
	}
	cloud := netCfg.CloudDelay
	if bt.DefaultTrackerRTT < cloud {
		panic(fmt.Sprintf("experiments: tracker RTT %v below the shard lookahead %v — announce injections would violate the barrier bound", bt.DefaultTrackerRTT, cloud))
	}
	se := sim.NewShardedEngine(sim.ShardedConfig{
		Shards: logical, Workers: sc.Workers, Lookahead: cloud, Seed: seed,
	})
	dir := netem.NewDirectory(logical)
	nets := make([]*netem.Network, logical)
	for i := range nets {
		nets[i] = netem.NewNetwork(se.Shard(i), netCfg)
	}
	for i, n := range nets {
		n.EnableSharding(se, i, dir, nets)
	}
	se.OnBarrier(dir.Apply)
	se.Shard(0).Register(dir)

	w.Sharded = se
	w.Shards = make([]Shard, logical)
	for i := range w.Shards {
		w.Shards[i] = Shard{Engine: se.Shard(i), Net: nets[i]}
	}
	w.perm = rand.New(rand.NewSource(seed ^ hostShardSalt)).Perm(logical)
}

// place assigns the next host to a shard by walking the seed-derived
// permutation, so the peer→shard assignment is reproducible and roughly
// balanced (a single-engine world's permutation is just shard 0).
func (w *World) place() (shard int, eng *sim.Engine, net *netem.Network) {
	s := w.perm[w.nextHost%len(w.perm)]
	w.nextHost++
	return s, w.Shards[s].Engine, w.Shards[s].Net
}

// Announcer returns the tracker handle for a host: the tracker itself on its
// home shard 0 (every host of a single-engine world), a fabric-relaying proxy
// elsewhere.
func (w *World) Announcer(h *Host) bt.Announcer {
	if h.Shard == 0 {
		return w.Tracker
	}
	return &remoteAnnouncer{w: w, shard: h.Shard}
}

// remoteAnnouncer relays announces from a host's shard to the tracker's home
// shard (0) through the fabric, spending the tracker RTT on each leg exactly
// as Tracker.Announce does locally. The RTT is asserted ≥ the lookahead at
// world construction, so both injections respect the barrier bound.
type remoteAnnouncer struct {
	w     *World
	shard int
}

func (r *remoteAnnouncer) Interval() time.Duration { return r.w.Tracker.Interval() }

func (r *remoteAnnouncer) Announce(req bt.AnnounceRequest, cb func(bt.AnnounceResponse)) {
	w, src := r.w, r.shard
	arrive := w.Shards[src].Engine.Now() + bt.DefaultTrackerRTT
	w.Sharded.Inject(src, 0, arrive, func() { // on shard 0
		resp := w.Tracker.HandleAnnounce(req)
		if cb == nil {
			return // fire-and-forget (EventStopped): no return leg
		}
		back := w.Shards[0].Engine.Now() + bt.DefaultTrackerRTT
		w.Sharded.Inject(0, src, back, func() { cb(resp) }) // back on the source shard
	})
}

// RunFor advances the world — the coordinator in a sharded world, the engine
// otherwise.
func (w *World) RunFor(d time.Duration) {
	w.RunUntil(w.Now() + d)
}

// RunUntil advances the world to an absolute virtual time. With sampling
// armed, the advance is chunked at the sample boundaries — sample k is taken
// with the clock at exactly (k+1)·sampleEvery — and every registry samples
// itself between chunks. On the single-engine path this leaves the
// trajectory untouched (no events scheduled, no sequence numbers consumed);
// on the sharded path the extra barrier at each boundary is part of the
// (still deterministic, worker-count-invariant) telemetry trajectory.
func (w *World) RunUntil(t time.Duration) {
	if w.sampleEvery > 0 {
		for nb := time.Duration(w.samples+1) * w.sampleEvery; nb <= t; nb += w.sampleEvery {
			w.runUntil(nb)
			for _, p := range w.Shards {
				p.Engine.Stats().Sample()
			}
			w.samples++
		}
	}
	w.runUntil(t)
}

// Annotate marks the world's timeline at virtual time at — scenario fault
// injections label their storms this way. A no-op without sampling.
func (w *World) Annotate(at time.Duration, label string) {
	if w.sampleEvery > 0 {
		w.ann = append(w.ann, telemetry.Annotation{AtNS: int64(at), Label: label})
	}
}

func (w *World) runUntil(t time.Duration) {
	if w.Sharded != nil {
		w.Sharded.RunUntil(t)
		return
	}
	w.Engine.RunUntil(t)
}

// Now returns the world's virtual time.
func (w *World) Now() time.Duration { return w.Engine.Now() }

// ScheduleControl schedules world-level control logic (scenario events,
// faults) delay from now. In a sharded world it runs as a global event — on
// the coordinator, all shard clocks equal to its timestamp — because control
// logic may touch hosts on any shard.
func (w *World) ScheduleControl(delay time.Duration, fn func()) {
	if w.Sharded != nil {
		w.Sharded.ScheduleGlobal(w.Sharded.Now()+delay, fn)
		return
	}
	w.Engine.Schedule(delay, fn)
}

// SetPairBlocked partitions (or heals) a pair world-wide by telling every
// shard's network: the source-side check runs wherever the sender lives.
func (w *World) SetPairBlocked(a, b netem.IP, blocked bool) {
	for i := range w.Shards {
		w.Shards[i].Net.SetPairBlocked(a, b, blocked)
	}
}
