// Package stats provides the cross-layer metrics registry every simulation
// engine carries: named counters, gauges, and fixed-bucket histograms that
// the sim/netem/tcp/bt/wp2p layers increment as they run.
//
// The registry is built for the engine's hot path. Instruments are looked up
// (and allocated) once at component construction; after that every update is
// a plain field operation — no map access, no allocation, no wall clock —
// so the 0 allocs/op engine benchmarks and the bit-identical `-parallel`
// guarantee both survive instrumentation. A Registry belongs to exactly one
// Engine and, like the engine, is not safe for concurrent use; aggregation
// across concurrently executing runs goes through Collector, whose merge is
// commutative (see fold) so the aggregate is independent of worker-pool
// scheduling.
//
// The same instruments carry the sim-time view: Registry.Sample pushes every
// instrument's current value into that instrument's own bounded series, and
// Collector.Add folds series index by index with the rule it folds end-of-run
// values with — so the shards of one world and the runs of one experiment
// aggregate the same way, into the trajectories internal/telemetry exports.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v   int64
	ser ring
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n (negative n is ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v += n
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Series returns the counter's sampled trajectory under the given name — how
// one registry's view of a metric (one shard's, say) is exported beside the
// collector's fold of all of them; see Collector.AddSeries.
func (c *Counter) Series(name string) Series { return c.ser.series(name, KindCounter) }

// Gauge is an instantaneous level. Across runs a gauge aggregates by
// maximum, which is the useful reading for the quantities gauges track here
// (peak heap depth, peak queue length).
type Gauge struct {
	v   int64
	ser ring
}

// Set records the current level.
func (g *Gauge) Set(v int64) { g.v = v }

// SetMax records v only if it exceeds the current level — the one-liner for
// "track the high-water mark" call sites.
func (g *Gauge) SetMax(v int64) {
	if v > g.v {
		g.v = v
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v }

// Histogram counts observations into fixed buckets. Bucket i counts
// observations ≤ bounds[i]; the final implicit bucket counts everything
// above the last bound. Bounds are fixed at registration so observing never
// allocates and merged histograms always line up.
type Histogram struct {
	bounds []int64
	counts []int64 // len(bounds)+1, last bucket is +Inf
	count  int64
	sum    int64

	serCount, serSum ring
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += v
}

// Registry holds one engine's instruments, keyed by dotted lowercase names
// ("tcp.retransmits"). Lookups get-or-create, so components sharing an
// engine share counters — fifty wired links all feed
// "netem.wired.tx_packets", which is exactly the per-run aggregate the
// experiment summaries want.
type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	samples    int64 // Sample calls so far
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Call at
// component construction and keep the pointer; the increment path must not
// pay for the map lookup.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds (which must be sorted ascending) on first use. Re-registering
// an existing name with different bounds panics: two components disagreeing
// about a histogram's shape is a wiring bug, and silently picking one set of
// bounds would corrupt the merge.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if h, ok := r.histograms[name]; ok {
		if len(h.bounds) != len(bounds) {
			panic(fmt.Sprintf("stats: histogram %q re-registered with different bounds", name))
		}
		for i, b := range bounds {
			if h.bounds[i] != b {
				panic(fmt.Sprintf("stats: histogram %q re-registered with different bounds", name))
			}
		}
		return h
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("stats: histogram %q bounds not strictly ascending", name))
		}
	}
	h := &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
	r.histograms[name] = h
	return h
}

// CounterValue is one named count in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one named level in a snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramValue is one named distribution in a snapshot. Counts has one
// entry per bound plus a final overflow bucket.
type HistogramValue struct {
	Name   string  `json:"name"`
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// Snapshot is a point-in-time copy of a registry (or a Collector's merge of
// many), with every section sorted by name — the stable order the JSON
// export and the golden schema test depend on.
type Snapshot struct {
	// Runs is how many registries were merged in (1 for a single engine).
	Runs       int              `json:"runs"`
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{Runs: 1}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.v})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: g.v})
	}
	for name, h := range r.histograms {
		s.Histograms = append(s.Histograms, HistogramValue{
			Name:   name,
			Bounds: append([]int64(nil), h.bounds...),
			Counts: append([]int64(nil), h.counts...),
			Count:  h.count,
			Sum:    h.sum,
		})
	}
	s.sort()
	return s
}

func (s *Snapshot) sort() {
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
}

// Collector merges many registries — the runs of an experiment, the shards
// of a world — into one aggregate: end-of-run values (Snapshot) and, for
// registries that were sampled, series (Series). It is safe for concurrent
// use: the worker pool's runs call Add as they finish, in whatever order
// they finish, and because fold commutes the result is bit-identical at any
// worker-pool size.
type Collector struct {
	mu     sync.Mutex
	runs   int
	counts map[string]int64
	gauges map[string]int64
	hists  map[string]*HistogramValue
	series map[seriesKey]*Series
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		counts: make(map[string]int64),
		gauges: make(map[string]int64),
		hists:  make(map[string]*HistogramValue),
		series: make(map[seriesKey]*Series),
	}
}

// Add folds one registry into the aggregate.
func (c *Collector) Add(r *Registry) {
	if r == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runs++
	for name, cnt := range r.counters {
		c.counts[name] = fold(KindCounter, c.counts[name], cnt.v)
	}
	for name, g := range r.gauges {
		c.gauges[name] = fold(KindGauge, c.gauges[name], g.v)
	}
	for name, h := range r.histograms {
		agg, ok := c.hists[name]
		if !ok {
			agg = &HistogramValue{
				Name:   name,
				Bounds: append([]int64(nil), h.bounds...),
				Counts: make([]int64, len(h.counts)),
			}
			c.hists[name] = agg
		}
		if len(agg.Counts) != len(h.counts) {
			panic(fmt.Sprintf("stats: histogram %q merged with different bounds", name))
		}
		for i, n := range h.counts {
			agg.Counts[i] = fold(KindHistCount, agg.Counts[i], n)
		}
		agg.Count = fold(KindHistCount, agg.Count, h.count)
		agg.Sum = fold(KindHistSum, agg.Sum, h.sum)
	}
	if r.samples == 0 {
		return
	}
	for name, cnt := range r.counters {
		c.addSeries(cnt.ser.series(name, KindCounter))
	}
	for name, g := range r.gauges {
		c.addSeries(g.ser.series(name, KindGauge))
	}
	for name, h := range r.histograms {
		c.addSeries(h.serCount.series(name, KindHistCount))
		c.addSeries(h.serSum.series(name, KindHistSum))
	}
}

// Snapshot returns the aggregate values in stable sorted order. A collector
// that never saw a run returns nil, so untouched experiments export no stats
// section at all.
func (c *Collector) Snapshot() *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.runs == 0 {
		return nil
	}
	s := &Snapshot{Runs: c.runs}
	for name, v := range c.counts {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: v})
	}
	for name, v := range c.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: v})
	}
	for _, h := range c.hists {
		s.Histograms = append(s.Histograms, HistogramValue{
			Name:   h.Name,
			Bounds: append([]int64(nil), h.Bounds...),
			Counts: append([]int64(nil), h.Counts...),
			Count:  h.Count,
			Sum:    h.Sum,
		})
	}
	s.sort()
	return s
}

// Table renders the snapshot as an aligned text summary, instruments grouped
// by their layer prefix (the name segment before the first dot) — the `-stats`
// output of the CLIs.
func (s *Snapshot) Table() string {
	if s == nil {
		return "(no stats collected)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "-- stats (aggregated over %d run(s); counters/histograms summed, gauges max) --\n", s.Runs)
	width := 0
	for _, cv := range s.Counters {
		if len(cv.Name) > width {
			width = len(cv.Name)
		}
	}
	for _, gv := range s.Gauges {
		if len(gv.Name)+6 > width { // " (max)" suffix
			width = len(gv.Name) + 6
		}
	}
	lastLayer := ""
	sep := func(name string) {
		layer, _, _ := strings.Cut(name, ".")
		if layer != lastLayer {
			if lastLayer != "" {
				b.WriteByte('\n')
			}
			lastLayer = layer
		}
	}
	// Counters and gauges interleave in one sorted listing so each layer
	// group reads as a unit.
	rows := make([]struct {
		name, label string
		value       int64
	}, 0, len(s.Counters)+len(s.Gauges))
	for _, cv := range s.Counters {
		rows = append(rows, struct {
			name, label string
			value       int64
		}{cv.Name, cv.Name, cv.Value})
	}
	for _, gv := range s.Gauges {
		rows = append(rows, struct {
			name, label string
			value       int64
		}{gv.Name, gv.Name + " (max)", gv.Value})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	for _, row := range rows {
		sep(row.name)
		fmt.Fprintf(&b, "%-*s %12d\n", width, row.label, row.value)
	}
	for _, hv := range s.Histograms {
		sep(hv.Name)
		mean := int64(0)
		if hv.Count > 0 {
			mean = hv.Sum / hv.Count
		}
		fmt.Fprintf(&b, "%s: count=%d mean=%d buckets", hv.Name, hv.Count, mean)
		for i, n := range hv.Counts {
			if i < len(hv.Bounds) {
				fmt.Fprintf(&b, " ≤%d:%d", hv.Bounds[i], n)
			} else {
				fmt.Fprintf(&b, " >%d:%d", hv.Bounds[len(hv.Bounds)-1], n)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
