package experiments

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"github.com/wp2p/wp2p/internal/check"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/stats"
	"github.com/wp2p/wp2p/internal/telemetry"
	"github.com/wp2p/wp2p/internal/trace"
)

// observers is everything a run can arm on the worlds it builds — flight
// recorders, invariant checkers with their digest streams, sim-time
// sampling, the barrier profiler — together with what finished worlds hand
// back. Worlds are built and finished inside worker-pool closures, so the
// one package value, obs, sits behind one mutex; every fold below commutes,
// so what the Write* functions emit is byte-identical at any -parallel
// setting. The Enable*/Disable* functions are setters on obs.
type observers struct {
	mu sync.Mutex

	tracing  bool
	spec     string    // trace.ParseFilter syntax; empty keeps everything
	capacity int       // recorder ring size (0 = recorder default)
	sink     io.Writer // where finished worlds dump their recorder tails

	checking   bool
	checkEvery int // sweep period in events (0 = check package default)
	digests    bool
	violations int
	streams    []check.Stream

	sampleEvery time.Duration    // sim time between samples; 0 = sampling off
	series      *stats.Collector // the sampled registries of finished worlds
	worlds      int              // how many worlds those were
	ann         []telemetry.Annotation

	profiling bool
	profile   *sim.BarrierProfile // merged over finished sharded worlds
}

var obs observers

func init() {
	// WP2P_CHECK is the CI hook: a non-empty value arms invariant checking
	// for every world built by any test or binary in the process, without
	// each call site needing a flag.
	if os.Getenv("WP2P_CHECK") != "" {
		EnableChecking(0)
	}
}

// EnableTracing attaches a flight recorder to every subsequently created
// World: each world records its watch points into a ring of the given
// capacity (0 = recorder default), filtered by spec (trace.ParseFilter
// syntax; empty keeps everything), and World.Finish dumps the retained tail
// to sink. Dumps from concurrently finishing worlds are serialized.
func EnableTracing(spec string, capacity int, sink io.Writer) {
	obs.mu.Lock()
	defer obs.mu.Unlock()
	obs.tracing, obs.spec, obs.capacity, obs.sink = true, spec, capacity, sink
}

// DisableTracing stops attaching recorders to new worlds.
func DisableTracing() {
	obs.mu.Lock()
	defer obs.mu.Unlock()
	obs.tracing = false
}

// EnableChecking attaches an invariant checker to every subsequently created
// World, sweeping all registered components every `every` events (0 selects
// the check package default). A violation dumps the world's flight-recorder
// tail (when tracing is also on) and panics with the seed, failing the run
// fast and reproducibly.
func EnableChecking(every int) {
	obs.mu.Lock()
	defer obs.mu.Unlock()
	obs.checking, obs.checkEvery = true, every
}

// EnableDigests additionally records determinism digests at the check
// package's default period; streams accumulate across worlds and are
// written with WriteDigests. Implies EnableChecking.
func EnableDigests() {
	obs.mu.Lock()
	defer obs.mu.Unlock()
	obs.digests = true
	if !obs.checking {
		obs.checking, obs.checkEvery = true, 0
	}
}

// DisableChecking stops attaching checkers to new worlds and clears any
// accumulated digest streams and violation count.
func DisableChecking() {
	obs.mu.Lock()
	defer obs.mu.Unlock()
	obs.checking, obs.digests, obs.violations, obs.streams = false, false, 0, nil
}

// CheckViolations reports invariant violations observed so far (only ever
// non-zero when a custom OnViolation swallowed them; the default panics).
func CheckViolations() int {
	obs.mu.Lock()
	defer obs.mu.Unlock()
	return obs.violations
}

// DigestStreams returns the digest streams collected from finished worlds,
// in canonical order — byte-identical output regardless of -parallel
// scheduling.
func DigestStreams() []check.Stream {
	obs.mu.Lock()
	defer obs.mu.Unlock()
	out := append([]check.Stream(nil), obs.streams...)
	check.SortStreams(out)
	return out
}

// WriteDigests writes the collected streams in wp2p.digest.v1 format.
func WriteDigests(w io.Writer) error {
	return check.WriteStreams(w, DigestStreams())
}

// EnableTelemetry makes every subsequently created World sample its
// registries on the cfg.Every sim-time grid. Sampling is driven from the
// experiment harness between event windows (see World.RunUntil), never from
// scheduled events, so it does not perturb the single-engine trajectory.
// Finished worlds fold their series into one collector; WriteTimeseries
// exports it.
func EnableTelemetry(cfg telemetry.Config) {
	if cfg.Every <= 0 {
		cfg.Every = telemetry.DefaultEvery
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	obs.sampleEvery, obs.series, obs.worlds, obs.ann = cfg.Every, stats.NewCollector(), 0, nil
}

// DisableTelemetry stops sampling new worlds and drops any accumulated
// series.
func DisableTelemetry() {
	obs.mu.Lock()
	defer obs.mu.Unlock()
	obs.sampleEvery, obs.series, obs.worlds, obs.ann = 0, nil, 0, nil
}

// TimeseriesExport returns the accumulated wp2p.timeseries.v1 document, or
// nil when telemetry is not enabled. Before any world has finished it is an
// empty document with the configured cadence, which ReadExport accepts.
func TimeseriesExport() *telemetry.Export {
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if obs.series == nil {
		return nil
	}
	return telemetry.NewExport(obs.sampleEvery, obs.worlds, obs.series.Series(), obs.ann)
}

// WriteTimeseries writes the accumulated series in wp2p.timeseries.v1
// format.
func WriteTimeseries(w io.Writer) error {
	e := TimeseriesExport()
	if e == nil {
		return fmt.Errorf("experiments: telemetry was not enabled")
	}
	return e.WriteJSON(w)
}

// EnableBarrierProfile arms wall-clock barrier profiling on every
// subsequently created sharded world. Single-engine worlds have no barrier
// and are unaffected.
func EnableBarrierProfile() {
	obs.mu.Lock()
	defer obs.mu.Unlock()
	obs.profiling = true
}

// DisableBarrierProfile stops profiling new worlds and drops the aggregate.
func DisableBarrierProfile() {
	obs.mu.Lock()
	defer obs.mu.Unlock()
	obs.profiling, obs.profile = false, nil
}

// BarrierProfileAggregate returns the merged profile across every finished
// sharded world, or nil when none was profiled (profiling off, or the run
// used the single-engine path).
func BarrierProfileAggregate() *sim.BarrierProfile {
	obs.mu.Lock()
	defer obs.mu.Unlock()
	return obs.profile
}

// attach arms a freshly built world, shard by shard (a single-engine world
// is one shard). Recorders and checkers go on before any host exists, so
// they see every component the world registers.
func (o *observers) attach(w *World) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.tracing {
		// Rings are single-engine structures, so each shard's model code
		// emits only into its own recorder, tagged with the shard id.
		filter := trace.ParseFilter(o.spec)
		w.recs = make([]*trace.Recorder, len(w.Shards))
		for i, p := range w.Shards {
			w.recs[i] = trace.NewRecorder(p.Engine, o.capacity)
			if w.Sharded != nil {
				w.recs[i].SetShard(i)
			}
			w.recs[i].SetFilter(filter)
			trace.WatchNetwork(w.recs[i], "net", p.Net)
		}
	}
	if o.checking {
		w.chks = make([]*check.Checker, len(w.Shards))
		for i, p := range w.Shards {
			w.chks[i] = check.Attach(p.Engine, check.Config{
				Every:       int64(o.checkEvery),
				Digests:     o.digests,
				OnViolation: w.onViolation,
			})
		}
	}
	w.sampleEvery = o.sampleEvery
	if o.profiling && w.Sharded != nil {
		w.Sharded.EnableProfile()
	}
}

// onViolation is the experiment-layer violation handler: count it, dump the
// flight-recorder tail if one is attached (the events leading up to the
// violation are exactly what debugging needs), then fail fast with the seed
// so the run is reproducible.
func (w *World) onViolation(v check.Violation) {
	obs.mu.Lock()
	obs.violations++
	obs.mu.Unlock()
	if rec := w.recFor(0); rec != nil {
		fmt.Fprintf(os.Stderr, "== invariant violation seed=%d: recorder tail ==\n", w.seed)
		rec.Dump(os.Stderr)
	}
	panic(fmt.Sprintf("invariant violation (seed %d): %s", w.seed, v))
}

// finish folds a world that has stopped running into col (the experiment's
// own collector; nil skips it) and into the aggregates above. Every shard's
// registry goes through the same Collector.Add that merges runs, so totals
// and series are shard- and worker-count independent.
func (o *observers) finish(w *World, col *stats.Collector) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if w.Sharded != nil {
		switch bp := w.Sharded.Profile(); {
		case bp == nil: // profiling was off when the world was built
		case o.profile == nil:
			o.profile = bp
		default:
			o.profile.Merge(bp)
		}
	}
	sampled := w.sampleEvery > 0 && o.series != nil
	for i, p := range w.Shards {
		reg := p.Engine.Stats()
		if col != nil {
			col.Add(reg)
		}
		if !sampled {
			continue
		}
		o.series.Add(reg)
		if w.Sharded != nil {
			// Per-shard event trajectories are the telemetry face of the
			// barrier profiler: a shard whose curve flattens while others
			// climb is the convoy straggler's victim.
			const name = "sim.events_fired"
			o.series.AddSeries(reg.Counter(name).Series(fmt.Sprintf("%s.shard.%d", name, i)))
		}
	}
	if sampled {
		o.worlds++
		o.ann = append(o.ann, w.ann...)
	}
	if o.digests {
		for i, c := range w.chks {
			st := check.Stream{Label: fmt.Sprintf("seed=%d", w.seed), Records: c.Records()}
			if w.Sharded != nil {
				st.Label = fmt.Sprintf("seed=%d/shard=%d", w.seed, i)
			}
			if rec := w.recFor(i); rec != nil {
				for _, ev := range rec.Events() {
					st.Tail = append(st.Tail, ev.String())
				}
			}
			o.streams = append(o.streams, st)
		}
	}
	if w.recs == nil || o.sink == nil {
		return
	}
	if len(w.recs) == 1 {
		rec := w.recs[0]
		fmt.Fprintf(o.sink, "== trace seed=%d total=%d retained=%d ==\n", w.seed, rec.Total(), len(rec.Events()))
		rec.Dump(o.sink)
		return
	}
	var total int64
	retained := 0
	for _, r := range w.recs {
		total += r.Total()
		retained += len(r.Events())
	}
	fmt.Fprintf(o.sink, "== trace seed=%d shards=%d total=%d retained=%d ==\n", w.seed, len(w.recs), total, retained)
	trace.DumpMerged(o.sink, w.recs...)
}
