package stats

import "sort"

// Series kinds. A histogram samples as two series — observation count and
// value sum — because those are the components that fold commutatively and
// reconstruct a windowed mean downstream.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistCount = "hist_count"
	KindHistSum   = "hist_sum"
)

// fold is the aggregation rule, for end-of-run values and for each sample
// index of a series alike: a gauge keeps the maximum, every other kind
// (counters and both histogram components, bucket counts included) sums.
// Both operations commute, which is what makes a Collector's result
// independent of the order registries reach it.
func fold(kind string, agg, v int64) int64 {
	if kind != KindGauge {
		return agg + v
	}
	if v > agg {
		return v
	}
	return agg
}

// seriesCap bounds each instrument's series at 8192 samples (64 KiB of
// int64s); at the default 5 s cadence that is over 11 sim-hours. A run that
// outlives it drops its oldest samples and the series' Start advances, so the
// export stays truthful about what was kept.
const seriesCap = 8192

// Series is one metric's sampled trajectory, in the shape
// wp2p.timeseries.v1 carries it. Sample V[i] is the (Start+i)-th the
// registry took; Start is nonzero only when the ring wrapped.
type Series struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Start int64   `json:"start,omitempty"`
	V     []int64 `json:"v"`
}

// ring is an instrument's sample history. Storage grows by append up to
// seriesCap; from then on pushes overwrite in place (head chases the oldest
// sample) and start advances, so steady-state sampling allocates nothing.
type ring struct {
	v     []int64
	head  int   // next write position once the ring is full
	start int64 // absolute index of the oldest retained sample
}

func (s *ring) push(v int64) {
	if len(s.v) < seriesCap {
		s.v = append(s.v, v)
		return
	}
	s.v[s.head] = v
	s.start++
	if s.head++; s.head == len(s.v) {
		s.head = 0
	}
}

// sample records v as sample number n. An instrument registered after
// sampling began first catches up with zeros — exactly its value before it
// existed — so every series of a registry shares one time axis.
func (s *ring) sample(n, v int64) {
	for s.start+int64(len(s.v)) < n {
		s.push(0)
	}
	s.push(v)
}

// series copies the retained samples out in oldest-first order.
func (s *ring) series(name, kind string) Series {
	v := make([]int64, 0, len(s.v))
	v = append(append(v, s.v[s.head:]...), s.v[:s.head]...)
	return Series{Name: name, Kind: kind, Start: s.start, V: v}
}

// Sample pushes every instrument's current value into that instrument's
// series. The caller owns the time axis: it advances the engine to each
// sample boundary and calls Sample between event windows, so sampling
// schedules nothing, draws no randomness and cannot perturb the run. A
// registry that is never sampled holds no series and pays nothing.
func (r *Registry) Sample() {
	for _, c := range r.counters {
		c.ser.sample(r.samples, c.v)
	}
	for _, g := range r.gauges {
		g.ser.sample(r.samples, g.v)
	}
	for _, h := range r.histograms {
		h.serCount.sample(r.samples, h.count)
		h.serSum.sample(r.samples, h.sum)
	}
	r.samples++
}

// seriesKey identifies an aggregate series: a histogram contributes two
// under one metric name.
type seriesKey struct{ name, kind string }

// AddSeries folds one series into the aggregate under its own name, aligned
// on absolute sample indexes. Indexes only one side retains keep that side's
// value, plus — past the end of a shorter cumulative series — the total that
// series ended on. Add calls it for every instrument of a registry; callers use it
// directly to export one registry's trajectory under a qualified name. The
// collector takes ownership of s.V.
func (c *Collector) AddSeries(s Series) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addSeries(s)
}

func (c *Collector) addSeries(s Series) {
	if len(s.V) == 0 {
		return // never sampled
	}
	key := seriesKey{s.Name, s.Kind}
	agg, ok := c.series[key]
	if !ok {
		first := s // copied here so only a new series allocates
		c.series[key] = &first
		return
	}
	// Re-base both onto the smaller start index, zero-filling the front of
	// whichever began later (its instrument was still at zero there — for
	// gauges, zero never wins the max).
	start := agg.Start
	if s.Start < start {
		start = s.Start
	}
	av := prepend(agg.V, agg.Start-start)
	bv := prepend(s.V, s.Start-start)
	if len(bv) > len(av) {
		av, bv = bv, av
	}
	for i, v := range bv {
		av[i] = fold(s.Kind, av[i], v)
	}
	// A registry that stopped sampling earlier keeps its cumulative totals
	// from then on: carry its last value under the rest of the longer
	// series, so a summed counter never falls where a shorter world ends.
	if s.Kind != KindGauge {
		for i, last := len(bv), bv[len(bv)-1]; i < len(av); i++ {
			av[i] += last
		}
	}
	agg.Start, agg.V = start, av
}

func prepend(v []int64, zeros int64) []int64 {
	if zeros <= 0 {
		return v
	}
	return append(make([]int64, zeros, zeros+int64(len(v))), v...)
}

// Series returns the aggregate trajectories sorted by (name, kind) — so a
// histogram's count row precedes its sum row. The slices are the
// collector's own; treat them as read-only.
func (c *Collector) Series() []Series {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Series, 0, len(c.series))
	for _, s := range c.series {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}
