package main

// metricDef names one metric the harness emits. The catalogue below is the
// single source of the names, units, directions and bounds; BENCHMARK.json
// repeats them for the driver and the smoke test keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare (and the driver) fails it; with Abs
	// it is an absolute amount.
	Bound float64
	Abs   bool
	// Only names the one workload a workload-specific metric is measured
	// on ("" = every workload).
	Only string
	// Loose marks an end-to-end metric whose runs of unchanged code spread
	// about as wide as the widest bound the driver allows, so that the driver
	// cannot gate it: it is reported with the per-layer set there, and
	// -compare still gates it.
	Loose bool
	// Moves records, for a per-layer metric, which end-to-end metric it
	// should move on which workload (see README, "Interactions").
	Moves string
}

const (
	wlPacket  = "flashcrowd-packet"
	wlHybrid  = "flashcrowd-hybrid"
	wlFigures = "figures-mobile"
	wlLive    = "live-loopback"
)

// endToEnd lists the ten end-to-end metrics. The six that are neither
// workload-specific nor loose form BENCHMARK.json's end_to_end list; the
// three workload-specific ones (the driver contract wants every end_to_end
// metric on every workload) and cpu_s are emitted with the per-layer set, but
// -compare gates all ten. cpu_s is loose because the driver's shared host
// inflates CPU time in stretches that last minutes: on live-loopback, whose
// wall_s is steadied by its idle first second, ten runs of unchanged code
// spread 25% on cpu_s, the widest bound there is. The bounds come from the
// run-to-run spread measured on the 2-core VM the benchmark was defined on
// (README, "Noise and bounds"), not from a wish: the time bounds sit at the
// driver's 25% ceiling, the others at three times the spread or more.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25, Loose: true},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.06},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.06},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "ok_frac", Unit: "ratio", Better: "higher", Bound: 0.0001},
	{Name: "flow_err_frac", Unit: "ratio", Better: "lower", Bound: 0.02, Abs: true, Only: wlHybrid},
	{Name: "goodput_mb_s", Unit: "MB/s", Better: "higher", Bound: 0.20, Only: wlLive},
	{Name: "msg_rtt_us_p50", Unit: "us", Better: "lower", Bound: 0.25, Only: wlLive},
}

// Interaction notes shared by several per-layer metrics.
const (
	movesSim    = "wall_s, cpu_s on flashcrowd-packet (the deepest heap, ~3.5e4); a little on figures-mobile; hardly on flashcrowd-hybrid"
	movesNetem  = "wall_s on flashcrowd-packet; WLAN path only on figures-mobile and the flashcrowd-hybrid fringe"
	movesFlow   = "wall_s, allocs_per_op, flow_err_frac on flashcrowd-hybrid; no change elsewhere"
	movesTCP    = "wall_s on all three sim workloads; nothing on live-loopback"
	movesBT     = "wall_s on the sim workloads; goodput_mb_s on live-loopback"
	movesIndex  = "should stay below 1% of flashcrowd-*; no wall_s movement expected"
	movesNet    = "goodput_mb_s, msg_rtt_us_p50 on live-loopback only"
	movesMobile = "wall_s on figures-mobile only"
	movesWorld  = "wall_s, peak_rss_mb, allocs_per_op on flashcrowd-*"
	movesGC     = "wall_s, cpu_s wherever alloc_mb_per_op is high"
	movesObs    = "wall_s on every sim workload (always-on counter cost)"
	movesMulti  = "multi-core evidence for ROADMAP item 2; no end-to-end metric while runs stay single-engine"
	movesNone   = "diagnostic; moves no end-to-end metric by itself"
)

// perLayer lists the per-layer metrics in the order they are printed:
// exact counts from Result.Stats, CPU shares from the traced run's profile,
// then the isolated probes.
var perLayer = []metricDef{
	// Counts (exact, from the traced run's Result.Stats).
	{Name: "sim.events_fired", Unit: "count", Better: "lower", Moves: movesSim},
	{Name: "sim.events_cancelled", Unit: "count", Better: "lower", Moves: movesSim},
	{Name: "sim.cancel_ratio", Unit: "ratio", Better: "lower", Moves: movesSim},
	{Name: "sim.heap_max_depth", Unit: "count", Better: "lower", Moves: movesSim},
	{Name: "sim.host_ns_per_event", Unit: "ns", Better: "lower", Moves: movesSim},
	{Name: "netem.packets_routed", Unit: "count", Better: "lower", Moves: movesNetem},
	{Name: "netem.pool_miss_ratio", Unit: "ratio", Better: "lower", Moves: movesNetem},
	{Name: "netem.wireless.tx_packets", Unit: "count", Better: "lower", Moves: movesNetem},
	{Name: "netem.wireless.drop_ratio", Unit: "ratio", Better: "lower", Moves: movesNetem},
	{Name: "flow.rate_updates", Unit: "count", Better: "lower", Moves: movesFlow},
	{Name: "flow.streams_opened", Unit: "count", Better: "lower", Moves: movesFlow},
	{Name: "flow.delivered_packets", Unit: "count", Better: "lower", Moves: movesFlow},
	{Name: "flow.updates_per_packet", Unit: "ratio", Better: "lower", Moves: movesFlow},
	{Name: "flow.drop_ratio", Unit: "ratio", Better: "lower", Moves: movesFlow},
	{Name: "tcp.segs_sent", Unit: "count", Better: "lower", Moves: movesTCP},
	{Name: "tcp.retransmit_ratio", Unit: "ratio", Better: "lower", Moves: movesTCP},
	{Name: "tcp.rtos", Unit: "count", Better: "lower", Moves: movesTCP},
	{Name: "tcp.pure_ack_ratio", Unit: "ratio", Better: "lower", Moves: movesTCP},
	{Name: "bt.tracker.announces", Unit: "count", Better: "lower", Moves: movesIndex},
	{Name: "bt.pieces_completed", Unit: "count", Better: "higher", Moves: movesBT},
	{Name: "bt.chokes", Unit: "count", Better: "lower", Moves: movesBT},
	{Name: "mobility.handoffs", Unit: "count", Better: "lower", Moves: movesMobile},
	{Name: "model.sim_completion_s", Unit: "s", Better: "lower", Moves: "simulated, not host, time: must stay identical under any change meant only to speed the simulator up"},

	// CPU shares (traced run's profile; sum to 1 per workload).
	{Name: "cpu.sim_frac", Unit: "ratio", Better: "lower", Moves: movesSim},
	{Name: "cpu.netem_frac", Unit: "ratio", Better: "lower", Moves: movesNetem},
	{Name: "cpu.flow_frac", Unit: "ratio", Better: "lower", Moves: movesFlow},
	{Name: "cpu.tcp_frac", Unit: "ratio", Better: "lower", Moves: movesTCP},
	{Name: "cpu.bt_frac", Unit: "ratio", Better: "lower", Moves: movesBT},
	{Name: "cpu.ordset_frac", Unit: "ratio", Better: "lower", Moves: movesIndex},
	{Name: "cpu.transport_frac", Unit: "ratio", Better: "lower", Moves: movesNet},
	{Name: "cpu.wp2p_frac", Unit: "ratio", Better: "lower", Moves: movesMobile},
	{Name: "cpu.mobility_frac", Unit: "ratio", Better: "lower", Moves: movesMobile},
	{Name: "cpu.world_frac", Unit: "ratio", Better: "lower", Moves: movesWorld},
	{Name: "cpu.obs_frac", Unit: "ratio", Better: "lower", Moves: movesObs},
	{Name: "cpu.gc_frac", Unit: "ratio", Better: "lower", Moves: movesGC},
	{Name: "cpu.runtime_other_frac", Unit: "ratio", Better: "lower", Moves: movesNone},
	{Name: "cpu.syscall_frac", Unit: "ratio", Better: "lower", Moves: movesNet},

	// Probes (median of 5 batches, each layer's public functions alone).
	{Name: "sim.probe.schedule_fire_ns_d1k", Unit: "ns", Better: "lower", Moves: movesSim},
	{Name: "sim.probe.schedule_fire_ns_d100k", Unit: "ns", Better: "lower", Moves: movesSim},
	{Name: "sim.probe.timer_reset_ns", Unit: "ns", Better: "lower", Moves: movesSim},
	{Name: "sim.probe.sharded_speedup_w2", Unit: "ratio", Better: "higher", Moves: movesMulti},
	{Name: "netem.probe.wired_pkt_ns", Unit: "ns", Better: "lower", Moves: movesNetem},
	{Name: "netem.probe.wlan_pkt_ns", Unit: "ns", Better: "lower", Moves: movesNetem},
	{Name: "netem.probe.pkt_allocs", Unit: "count", Better: "lower", Moves: movesNetem},
	{Name: "flow.probe.pkt_ns_fan1", Unit: "ns", Better: "lower", Moves: movesFlow},
	{Name: "flow.probe.pkt_ns_fan64", Unit: "ns", Better: "lower", Moves: movesFlow},
	{Name: "flow.probe.stream_open_ns", Unit: "ns", Better: "lower", Moves: movesFlow},
	{Name: "tcp.probe.bulk_seg_ns", Unit: "ns", Better: "lower", Moves: movesTCP},
	{Name: "tcp.probe.lossy_seg_ns", Unit: "ns", Better: "lower", Moves: movesTCP},
	{Name: "tcp.probe.conn_setup_ns", Unit: "ns", Better: "lower", Moves: movesTCP},
	{Name: "tcp.probe.seg_allocs", Unit: "count", Better: "lower", Moves: movesTCP},
	{Name: "transport.probe.sim_msg_ns", Unit: "ns", Better: "lower", Moves: movesTCP},
	{Name: "transport.probe.net_msg_rtt_us_p99", Unit: "us", Better: "lower", Moves: movesNet},
	{Name: "transport.probe.net_dial_us_p50", Unit: "us", Better: "lower", Moves: movesNet},
	{Name: "transport.probe.net_bulk_mb_s", Unit: "MB/s", Better: "higher", Moves: movesNet},
	{Name: "bt.probe.tracker_announce_ns_10k", Unit: "ns", Better: "lower", Moves: movesIndex},
	{Name: "bt.probe.picker_rarest_ns_1k", Unit: "ns", Better: "lower", Moves: movesBT},
	{Name: "bt.probe.swarm8_wall_ms", Unit: "ms", Better: "lower", Moves: movesBT},
	{Name: "ordset.probe.put_delete_ns", Unit: "ns", Better: "lower", Moves: movesIndex},
	{Name: "ordset.probe.sample50_ns", Unit: "ns", Better: "lower", Moves: movesIndex},
	{Name: "wp2p.probe.am_filter_pkt_ns", Unit: "ns", Better: "lower", Moves: movesMobile},
	{Name: "experiments.probe.world_build_us_per_host", Unit: "us", Better: "lower", Moves: movesWorld},
	{Name: "scenario.probe.load_compile_ms", Unit: "ms", Better: "lower", Moves: "setup_s on flashcrowd-*"},
	{Name: "runner.probe.speedup_w2", Unit: "ratio", Better: "higher", Moves: movesMulti},
	{Name: "obs.probe.check_overhead_frac", Unit: "ratio", Better: "lower", Moves: movesObs},
	{Name: "obs.probe.telemetry_overhead_frac", Unit: "ratio", Better: "lower", Moves: movesObs},
	{Name: "obs.probe.trace_overhead_frac", Unit: "ratio", Better: "lower", Moves: movesObs},

	// The harness's own tracing tax: traced wall / untraced wall - 1.
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower", Moves: movesNone},
}

// driverEndToEnd returns the end-to-end metrics the driver gates — what a
// --trace 0 run reports.
func driverEndToEnd() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.Only == "" && !m.Loose {
			out = append(out, m)
		}
	}
	return out
}

// driverPerLayer returns what a --trace 1 run reports: the end-to-end metrics
// the driver does not gate, followed by every per-layer metric.
func driverPerLayer() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.Only != "" || m.Loose {
			out = append(out, m)
		}
	}
	return append(out, perLayer...)
}
