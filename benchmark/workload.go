package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"math"

	"github.com/wp2p/wp2p/internal/experiments"
	"github.com/wp2p/wp2p/internal/scenario"
	"github.com/wp2p/wp2p/internal/stats"
)

// The scenario specs are the harness's own, embedded so the load never
// depends on the working directory or on examples/scenarios.
//
//go:embed specs/*.json
var specFS embed.FS

// size selects how much work a workload does: the benchmark's full size, a
// tenth of it for the verify pass under invariant checking, or a tiny one
// for the smoke test.
type size int

const (
	sizeFull size = iota
	sizeTenth
	sizeTiny
)

// outcome is what one rep produced, beyond the host costs the harness
// measures around it.
type outcome struct {
	ops, failed int
	// digest identifies the rep's result; reps of one seed must agree.
	digest string
	// stats are the cross-layer counters of the rep's results (one
	// snapshot per result; every world of a result already merged).
	stats []*stats.Snapshot
	// endToEnd carries the workload's own end-to-end metrics by catalogue
	// name. A "wall_s" here replaces the harness's stopwatch (live-loopback
	// times first Start to last Complete itself).
	endToEnd map[string]float64
	// perLayer carries model quantities by catalogue name.
	perLayer map[string]float64
	// notes are failure descriptions for the human report.
	notes []string
}

// workload is one set of inputs. prepare does the untimed set-up (load,
// validate, override, warm-up) and returns the timed rep.
type workload struct {
	name string
	why  string
	// A non-empty fidelity forces every peer group's transport model (the
	// packet-truth reference run of flashcrowd-hybrid).
	prepare func(seed int64, sz size, fidelity string, tr *tracer) (rep func() (outcome, error), err error)
}

var workloads = []workload{
	{
		name:    wlPacket,
		why:     "packet-level flash crowd: engine heap, netem hop path and tcp dominate, flow is idle, so a flow change must not move it",
		prepare: crowdPrepare("specs/flashcrowd-packet.json"),
	},
	{
		name:    wlHybrid,
		why:     "same crowd on the fluid core plus a mobile WLAN fringe: flow dominates, the heap is shallow, and it carries the flow-vs-packet accuracy check",
		prepare: crowdPrepare("specs/flashcrowd-hybrid.json"),
	},
	{
		name:    wlFigures,
		why:     "the twelve paper figures: small worlds on lossy WLAN with handoffs and the wP2P components, flow and tracker idle; seed-independent",
		prepare: figuresPrepare,
	},
	{
		name:    wlLive,
		why:     "bt over real loopback sockets (1 seed, 2 leeches) after a closed-loop ping-pong: no tcp/netem/heap pressure, the only load on transport/net.go",
		prepare: livePrepare,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// crowdGroup is the index of the measured "crowd" group in both specs.
const crowdGroup = 1

// crowdPrepare builds the prepare function of a flash-crowd workload.
func crowdPrepare(specPath string) func(int64, size, string, *tracer) (func() (outcome, error), error) {
	return func(seed int64, sz size, fidelity string, tr *tracer) (func() (outcome, error), error) {
		data, err := specFS.ReadFile(specPath)
		if err != nil {
			return nil, err
		}
		base, err := scenario.Load(data)
		if err != nil {
			return nil, err
		}
		crowd, warm := base.Peers[crowdGroup].Count, 100
		switch sz {
		case sizeTenth:
			crowd, warm = crowd/10, 20
		case sizeTiny:
			crowd, warm = 40, 10
		}
		overrides := func(count int) []scenario.Override {
			return []scenario.Override{
				{Path: "seed", Value: float64(seed)},
				{Path: fmt.Sprintf("peers[%d].count", crowdGroup), Value: float64(count)},
			}
		}
		opts := scenario.Options{Fidelity: fidelity}

		// Warm-up: the same spec with a small crowd, so first-use costs
		// (pools, route caches, lazy tables) are paid before the stopwatch.
		warmSpec, err := base.Variant(overrides(warm))
		if err != nil {
			return nil, err
		}
		if _, err := scenario.RunOpts(warmSpec, 1, opts); err != nil {
			return nil, err
		}

		return func() (outcome, error) {
			end := tr.begin("load_spec")
			spec, err := base.Variant(overrides(crowd))
			end()
			if err != nil {
				return outcome{}, err
			}
			end = tr.begin("run")
			res, err := scenario.RunOpts(spec, 1, opts)
			end()
			if err != nil {
				return outcome{}, err
			}
			end = tr.begin("digest")
			defer end()
			return crowdOutcome(res, crowd)
		}, nil
	}
}

// crowdOutcome reads a sampled completed_frac run: the series is the
// crowd's completion CDF at one-second steps, so its last point is the
// share of peers that finished within the horizon and its integral gives
// the mean completion time (each peer placed mid-step).
func crowdOutcome(res *experiments.Result, crowd int) (outcome, error) {
	if len(res.Series) != 1 || len(res.Series[0].Y) == 0 {
		return outcome{}, fmt.Errorf("%s: want one sampled series, got %d", res.ID, len(res.Series))
	}
	x, y := res.Series[0].X, res.Series[0].Y
	done := int(math.Round(y[len(y)-1] * float64(crowd)))
	mean, prevT, prevF := 0.0, 0.0, 0.0
	for i := range y {
		mean += (y[i] - prevF) * (prevT + x[i]) / 2
		prevT, prevF = x[i], y[i]
	}
	mean += (1 - prevF) * prevT // unfinished peers count as the full window
	digest, err := resultDigest(res)
	if err != nil {
		return outcome{}, err
	}
	o := outcome{
		ops: crowd, failed: crowd - done, digest: digest, stats: []*stats.Snapshot{res.Stats},
		perLayer: map[string]float64{"model.sim_completion_s": mean},
	}
	if o.failed > 0 {
		o.notes = append(o.notes, fmt.Sprintf("%d of %d crowd peers did not complete within the horizon", o.failed, crowd))
	}
	return o, nil
}

// resultDigest hashes the wp2p.result.v1 exports of the given results.
func resultDigest(results ...*experiments.Result) (string, error) {
	var buf bytes.Buffer
	for _, r := range results {
		if err := r.WriteJSON(&buf); err != nil {
			return "", err
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// counter returns a named instrument across snapshots — counters summed,
// gauges by maximum, the registry's own merge rule — and 0 when absent.
func counter(snaps []*stats.Snapshot, name string) float64 {
	var total, peak int64
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for _, c := range s.Counters {
			if c.Name == name {
				total += c.Value
			}
		}
		for _, g := range s.Gauges {
			if g.Name == name && g.Value > peak {
				peak = g.Value
			}
		}
	}
	return float64(total + peak) // a name is a counter or a gauge, never both
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounts derives the per-layer count metrics from a rep's stats.
// wallS is the untraced wall time the per-event cost is taken against.
func layerCounts(s []*stats.Snapshot, wallS float64) map[string]float64 {
	c := func(name string) float64 { return counter(s, name) }
	// tx_packets counts what reached the air (corrupted ones included);
	// queue overflows never did.
	wlanOverflow := c("netem.wireless.drops.queue_overflow")
	wlanDrops := c("netem.wireless.drops.corrupted") + wlanOverflow
	return map[string]float64{
		"sim.events_fired":          c("sim.events_fired"),
		"sim.events_cancelled":      c("sim.events_cancelled"),
		"sim.cancel_ratio":          ratio(c("sim.events_cancelled"), c("sim.events_scheduled")),
		"sim.heap_max_depth":        c("sim.heap_max_depth"),
		"sim.host_ns_per_event":     ratio(wallS*1e9, c("sim.events_fired")),
		"netem.packets_routed":      c("netem.packets_routed"),
		"netem.pool_miss_ratio":     ratio(c("netem.pool.misses"), c("netem.pool.hits")+c("netem.pool.misses")),
		"netem.wireless.tx_packets": c("netem.wireless.tx_packets"),
		"netem.wireless.drop_ratio": ratio(wlanDrops, c("netem.wireless.tx_packets")+wlanOverflow),
		"flow.rate_updates":         c("flow.rate_updates"),
		"flow.streams_opened":       c("flow.streams_opened"),
		"flow.delivered_packets":    c("flow.delivered_packets"),
		"flow.updates_per_packet":   ratio(c("flow.rate_updates"), c("flow.delivered_packets")),
		"flow.drop_ratio":           ratio(c("flow.drops.queue_overflow"), c("flow.delivered_packets")+c("flow.drops.queue_overflow")),
		"tcp.segs_sent":             c("tcp.segs_sent"),
		"tcp.retransmit_ratio":      ratio(c("tcp.retransmits"), c("tcp.segs_sent")),
		"tcp.rtos":                  c("tcp.rtos"),
		"tcp.pure_ack_ratio":        ratio(c("tcp.acks.pure"), c("tcp.acks.pure")+c("tcp.acks.piggybacked")),
		"bt.tracker.announces":      c("bt.tracker.announces"),
		"bt.pieces_completed":       c("bt.pieces_completed"),
		"bt.chokes":                 c("bt.chokes"),
		"mobility.handoffs":         c("mobility.handoffs"),
	}
}
