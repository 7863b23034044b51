package sim

import (
	"fmt"
	"io"
	"time"
)

// The barrier profiler answers the convoy-effect question from ROADMAP item
// 4: under the conservative-lookahead barrier, how much wall time does each
// shard spend executing its window versus parked waiting for the slowest
// shard, and how often does the coordinator stall everyone for globals?
//
// The metrics split along the determinism line:
//
//   - Deterministic barrier metrics — virtual window widths, globals run,
//     windows capped at a global, cross-shard events, migration-queue depth
//     peaks — are ordinary shard-0 registry instruments (sim.shard.*),
//     always on, worker-count invariant, and therefore safe to appear in
//     wp2p.result.v1 exports and telemetry series under the byte-identity
//     contract.
//   - Wall-clock metrics — per-shard exec and barrier-wait time, coordinator
//     drain/global time — vary run to run and with the machine, so they
//     live only in the BarrierProfile summary (the -barrierprofile table)
//     and are gated behind EnableProfile to keep the hot path untouched
//     when off.

// shardProf accumulates the wall-clock side while profiling is armed.
//
// execNS is written by whichever worker runs the shard that round and read
// by the coordinator after the round's WaitGroup barrier; the channel
// send/receive and wg.Wait edges order every access, so plain int64s
// suffice. The remaining fields are coordinator-only.
type shardProf struct {
	execNS    []int64 // per shard, wall ns inside Run{Before,Until}
	roundNS   int64   // total wall ns across runRound calls
	rounds    int64
	drainNS   int64 // coordinator wall ns in drainAll
	globalNS  int64 // coordinator wall ns running global events
	baseFired []int64
	baseCross int64
}

// ShardProfile is one shard's row in a BarrierProfile.
type ShardProfile struct {
	Events     int64 `json:"events"`  // events fired since EnableProfile
	ExecWallNS int64 `json:"exec_ns"` // wall ns executing windows
	WaitWallNS int64 `json:"wait_ns"` // wall ns parked at the barrier
}

// BarrierProfile summarizes the sharded engine's barrier behavior over a
// profiled run. Wall-clock fields are machine- and run-dependent; the
// virtual-time and count fields are deterministic.
type BarrierProfile struct {
	Shards       int            `json:"shards"`
	Workers      int            `json:"workers"`
	Windows      int64          `json:"windows"`   // parallel windows run
	WindowNS     int64          `json:"window_ns"` // summed virtual window widths
	GlobalsRun   int64          `json:"globals_run"`
	GlobalCapped int64          `json:"global_capped"`  // windows cut short by a pending global
	CrossEvents  int64          `json:"cross_events"`   // migrations since EnableProfile
	QueuePeak    int64          `json:"queue_peak"`     // deepest (src,dst) queue at any drain
	RoundWallNS  int64          `json:"round_wall_ns"`  // wall ns inside runRound (all shards in flight)
	DrainWallNS  int64          `json:"drain_wall_ns"`  // coordinator wall ns draining queues
	GlobalWallNS int64          `json:"global_wall_ns"` // coordinator wall ns running globals
	PerShard     []ShardProfile `json:"per_shard"`
}

// EnableProfile arms wall-clock barrier profiling. Idempotent; the baseline
// for per-shard event counts is taken at the first call.
func (s *ShardedEngine) EnableProfile() {
	if s.prof != nil {
		return
	}
	p := &shardProf{
		execNS:    make([]int64, len(s.shards)),
		baseFired: make([]int64, len(s.shards)),
		baseCross: s.regCross.Value(),
	}
	for i, sh := range s.shards {
		p.baseFired[i] = sh.Stats().Counter("sim.events_fired").Value()
	}
	s.prof = p
}

// Profile snapshots the accumulated barrier profile, or returns nil when
// EnableProfile was never called. Per-shard wait time is derived as the
// round wall time the shard was not executing: while any shard still runs,
// every finished shard is parked at the barrier.
func (s *ShardedEngine) Profile() *BarrierProfile {
	p := s.prof
	if p == nil {
		return nil
	}
	bp := &BarrierProfile{
		Shards:       len(s.shards),
		Workers:      s.workers,
		Windows:      s.regWindows.Value(),
		WindowNS:     s.regWindowNS.Value(),
		GlobalsRun:   s.regGlobals.Value(),
		GlobalCapped: s.regGlobalCap.Value(),
		CrossEvents:  s.regCross.Value() - p.baseCross,
		QueuePeak:    s.regQueuePeak.Value(),
		RoundWallNS:  p.roundNS,
		DrainWallNS:  p.drainNS,
		GlobalWallNS: p.globalNS,
		PerShard:     make([]ShardProfile, len(s.shards)),
	}
	for i, sh := range s.shards {
		exec := p.execNS[i]
		wait := max(p.roundNS-exec, 0)
		bp.PerShard[i] = ShardProfile{
			Events:     sh.Stats().Counter("sim.events_fired").Value() - p.baseFired[i],
			ExecWallNS: exec,
			WaitWallNS: wait,
		}
	}
	return bp
}

// Merge folds another profile into this one (summing counts and wall times,
// max for queue peaks) so profiles from a -runs sweep aggregate into one
// table. Shard and worker counts must match.
func (bp *BarrierProfile) Merge(o *BarrierProfile) {
	if o == nil {
		return
	}
	if bp.Shards != o.Shards {
		panic(fmt.Sprintf("sim: merging barrier profiles with %d and %d shards", bp.Shards, o.Shards))
	}
	bp.Windows += o.Windows
	bp.WindowNS += o.WindowNS
	bp.GlobalsRun += o.GlobalsRun
	bp.GlobalCapped += o.GlobalCapped
	bp.CrossEvents += o.CrossEvents
	if o.QueuePeak > bp.QueuePeak {
		bp.QueuePeak = o.QueuePeak
	}
	bp.RoundWallNS += o.RoundWallNS
	bp.DrainWallNS += o.DrainWallNS
	bp.GlobalWallNS += o.GlobalWallNS
	for i := range bp.PerShard {
		bp.PerShard[i].Events += o.PerShard[i].Events
		bp.PerShard[i].ExecWallNS += o.PerShard[i].ExecWallNS
		bp.PerShard[i].WaitWallNS += o.PerShard[i].WaitWallNS
	}
}

// WriteTable renders the profile as the -barrierprofile summary. The busy
// column is the convoy-effect signal: a shard far below the others spends
// its rounds parked behind the stragglers.
func (bp *BarrierProfile) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "barrier profile: %d shards, %d workers\n", bp.Shards, bp.Workers)
	fmt.Fprintf(w, "  windows %d", bp.Windows)
	if bp.Windows > 0 {
		fmt.Fprintf(w, " (avg virtual width %v)", time.Duration(bp.WindowNS/bp.Windows))
	}
	fmt.Fprintf(w, ", globals run %d (%d windows capped at a global)\n", bp.GlobalsRun, bp.GlobalCapped)
	fmt.Fprintf(w, "  cross-shard events %d, migration-queue peak depth %d\n", bp.CrossEvents, bp.QueuePeak)
	fmt.Fprintf(w, "  wall: rounds %v, coordinator drain %v, coordinator globals %v\n",
		time.Duration(bp.RoundWallNS), time.Duration(bp.DrainWallNS), time.Duration(bp.GlobalWallNS))
	fmt.Fprintf(w, "  %-6s %12s %12s %12s %6s\n", "shard", "events", "exec", "wait", "busy")
	for i, sp := range bp.PerShard {
		busy := "-"
		if bp.RoundWallNS > 0 {
			busy = fmt.Sprintf("%d%%", 100*sp.ExecWallNS/bp.RoundWallNS)
		}
		fmt.Fprintf(w, "  %-6d %12d %12v %12v %6s\n",
			i, sp.Events, time.Duration(sp.ExecWallNS), time.Duration(sp.WaitWallNS), busy)
	}
}
