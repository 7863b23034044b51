package scenario

import (
	"fmt"
	"time"

	"github.com/wp2p/wp2p/internal/experiments"
	"github.com/wp2p/wp2p/internal/runner"
	"github.com/wp2p/wp2p/internal/stats"
)

// seedStride spaces per-run seeds, mirroring the registry experiments.
const seedStride = 101

// Options tunes how a scenario executes without changing what it computes.
type Options struct {
	// ShardWorkers > 0 runs each world on the sharded engine with that many
	// worker threads (the CLI -shards value); 0 keeps the single-engine
	// path. Results and digests are identical at any positive value.
	ShardWorkers int
	// Fidelity "" honors each group's fidelity field; FidelityPacket builds
	// every group packet-level, the reference a flow run's error is
	// measured against (a different trajectory, the same protocol logic).
	// Flow is chosen per group, never here.
	Fidelity string
}

// RunOpts executes the scenario's full grid — every series variant at every
// sweep value, Runs averaged runs per cell — and returns the figure.
//
// The grid is fanned over the runner pool: every world is independently
// seeded, results are reduced per cell in run order, and cells land in
// (series, sweep-value) declaration order, so the output is bit-identical
// at any -parallel setting. scale multiplies the spec's duration and size
// (1 = as written) and must be > 0.
func RunOpts(s *Spec, scale float64, opts Options) (*experiments.Result, error) {
	if !(scale > 0) {
		return nil, fmt.Errorf("scenario: scale %v: want > 0", scale)
	}
	if opts.ShardWorkers > 0 && s.Workload.Protocol != "" && s.Workload.Protocol != ProtoBT {
		return nil, fmt.Errorf("scenario: -shards supports only the bt protocol (got %q)", s.Workload.Protocol)
	}
	if opts.Fidelity != "" && opts.Fidelity != FidelityPacket {
		return nil, fmt.Errorf("scenario: Options.Fidelity %q: want \"\" or %q (flow is chosen per group: set its peers[i].fidelity to %q)",
			opts.Fidelity, FidelityPacket, FidelityFlow)
	}
	seed, runs := s.Seed, s.Runs
	if seed == 0 {
		seed = 1
	}
	if runs == 0 {
		runs = 1
	}

	res := &experiments.Result{
		ID:     s.Name,
		Title:  s.Title,
		XLabel: s.xLabel(),
		YLabel: s.Measure.yLabel(),
	}
	if res.Title == "" {
		res.Title = s.Name
	}

	series := s.Series
	if len(series) == 0 {
		series = []SeriesSpec{{Label: s.Measure.Peers}}
	}

	// Resolve every cell's spec up front: override errors are user errors
	// and must surface before any simulation runs.
	type cell struct {
		spec *Spec
		x    float64
	}
	grid := make([][]cell, len(series))
	for si, sv := range series {
		base := s
		if len(sv.Set) > 0 {
			v, err := s.Variant(seriesOverrides(sv.Set))
			if err != nil {
				return nil, fmt.Errorf("series %q: %w", sv.Label, err)
			}
			base = v
		}
		if s.Sweep == nil {
			grid[si] = []cell{{spec: base, x: 0}}
			continue
		}
		grid[si] = make([]cell, len(s.Sweep.Values))
		for vi, val := range s.Sweep.Values {
			v, err := base.Variant([]Override{{Path: s.Sweep.Param, Value: val}})
			if err != nil {
				return nil, fmt.Errorf("sweep value %d (%v): %w", vi, val, err)
			}
			grid[si][vi] = cell{spec: v, x: sweepX(s.Sweep, vi)}
		}
	}

	col := stats.NewCollector()
	if s.Measure.Sample > 0 {
		// Sampled mode: each series is a time series, runs averaged
		// point-wise.
		for si, sv := range series {
			spec := grid[si][0].spec
			x := sampleAxis(spec, scale)
			y := runner.AverageSeries(runs, func(r int) []float64 {
				return runSampled(spec, scale, seed+int64(r)*seedStride, len(x), col, opts)
			})
			res.AddSeries(sv.Label, x, y)
		}
		res.Stats = col.Snapshot()
		return res, nil
	}

	// Scalar mode: series, sweep values and runs all fan out together.
	ys := runner.Sweep(grid, func(_ int, row []cell) []float64 {
		return runner.Sweep(row, func(_ int, c cell) float64 {
			return runner.Average(runs, func(r int) float64 {
				return runScalar(c.spec, scale, seed+int64(r)*seedStride, col, opts)
			})
		})
	})
	for si, sv := range series {
		x := make([]float64, len(grid[si]))
		for vi, c := range grid[si] {
			x[vi] = c.x
		}
		res.AddSeries(sv.Label, x, ys[si])
	}
	res.Stats = col.Snapshot()
	return res, nil
}

// xLabel names the x axis for the spec's mode.
func (s *Spec) xLabel() string {
	switch {
	case s.Measure.Sample > 0:
		return "time (s)"
	case s.Sweep != nil && s.Sweep.XLabel != "":
		return s.Sweep.XLabel
	case s.Sweep != nil:
		return s.Sweep.Param
	default:
		return "x"
	}
}

// sweepX returns the plotted x for sweep value vi: the explicit axis if
// given, a numeric value's own magnitude, a duration's seconds, else the
// index.
func sweepX(sw *SweepSpec, vi int) float64 {
	if len(sw.X) > 0 {
		return sw.X[vi]
	}
	switch v := sw.Values[vi].(type) {
	case float64:
		return v
	case string:
		if d, err := time.ParseDuration(v); err == nil {
			return d.Seconds()
		}
	}
	return float64(vi)
}

// runScalar runs one world to the horizon and measures it.
func runScalar(s *Spec, scale float64, seed int64, col *stats.Collector, opts Options) float64 {
	c := compile(s, scale, seed, opts)
	defer c.w.Finish(col)
	c.w.RunFor(c.horizon)
	return c.measure(c.horizon)
}

// sampleAxis precomputes the sampled mode's x axis (sim seconds at each
// sample point) for a spec at a scale.
func sampleAxis(s *Spec, scale float64) []float64 {
	horizon := experiments.ScaledDur(s.Duration.D(), scale, s.DurationFloor.D())
	tscale := float64(horizon) / float64(s.Duration.D())
	sample := time.Duration(float64(s.Measure.Sample.D()) * tscale)
	var x []float64
	for t := sample; t <= horizon; t += sample {
		x = append(x, t.Seconds())
	}
	return x
}

// runSampled runs one world, pausing every sample period to record the
// metric — a trajectory instead of an endpoint.
func runSampled(s *Spec, scale float64, seed int64, points int, col *stats.Collector, opts Options) []float64 {
	c := compile(s, scale, seed, opts)
	defer c.w.Finish(col)
	sample := time.Duration(float64(s.Measure.Sample.D()) * c.tscale)
	out := make([]float64, 0, points)
	for i := 0; i < points; i++ {
		c.w.RunFor(sample)
		out = append(out, c.measure(c.w.Now()))
	}
	return out
}

// measure evaluates the spec's metric over the measured group at the given
// window end, averaging across instances (completed_frac: the fraction).
func (c *compiled) measure(window time.Duration) float64 {
	insts := c.groups[c.spec.Measure.Peers]
	if len(insts) == 0 {
		return 0
	}
	n := float64(len(insts))
	sum := 0.0
	switch c.spec.Measure.Metric {
	case MetricDownloadKBps:
		for _, inst := range insts {
			win := window
			if at := inst.completedAt; at > 0 && at < win {
				win = at
			}
			sum += float64(inst.client.Downloaded()) / win.Seconds() / 1000
		}
		return sum / n
	case MetricUploadKBps:
		for _, inst := range insts {
			sum += float64(inst.client.Uploaded()) / window.Seconds() / 1000
		}
		return sum / n
	case MetricDownloadedMB:
		for _, inst := range insts {
			sum += float64(inst.client.Downloaded()) / 1e6
		}
		return sum / n
	case MetricCompletionS:
		for _, inst := range insts {
			if at := inst.completedAt; at >= 0 {
				sum += at.Seconds()
			} else {
				// Incomplete counts as the full window — a floor on the
				// truth that keeps the metric finite.
				sum += window.Seconds()
			}
		}
		return sum / n
	case MetricCompleted:
		for _, inst := range insts {
			if inst.completedAt >= 0 {
				sum++
			}
		}
		return sum / n
	}
	return 0
}
