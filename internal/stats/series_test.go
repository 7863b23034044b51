package stats

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// sampledRun drives one registry through n samples with random activity and
// records what a straightforward model says its series must hold: for every
// (name, kind), the value at each absolute sample index. "late.*"
// instruments register partway through, so their early indexes are absent
// from the model — which is zero, the fold's identity.
type sampledRun struct {
	reg   *Registry
	n     int64
	truth map[seriesKey]map[int64]int64
}

func newSampledRun(rng *rand.Rand, n int64) *sampledRun {
	run := &sampledRun{reg: NewRegistry(), n: n, truth: map[seriesKey]map[int64]int64{}}
	note := func(name, kind string, idx, v int64) {
		k := seriesKey{name, kind}
		if run.truth[k] == nil {
			run.truth[k] = map[int64]int64{}
		}
		run.truth[k][idx] = v
	}
	r := run.reg
	lateAt := rng.Int63n(n)
	hasGauge := rng.Intn(3) > 0
	for i := int64(0); i < n; i++ {
		c := r.Counter("m.count")
		c.Add(rng.Int63n(5))
		note("m.count", KindCounter, i, c.Value())
		h := r.Histogram("m.lat", []int64{10, 100})
		h.Observe(rng.Int63n(300))
		note("m.lat", KindHistCount, i, h.count)
		note("m.lat", KindHistSum, i, h.sum)
		if hasGauge {
			g := r.Gauge("m.peak")
			g.Set(rng.Int63n(50))
			note("m.peak", KindGauge, i, g.Value())
		}
		if i >= lateAt {
			l := r.Counter("late.count")
			l.Inc()
			note("late.count", KindCounter, i, l.Value())
		}
		r.Sample()
	}
	return run
}

// wantSeries is the reference fold over whole runs: every aggregate series
// spans from the earliest index any run retains to the last index any run
// took, and each index folds the runs that still retain it — plus, for the
// cumulative kinds, the final total of every run that ended before it.
func wantSeries(runs []*sampledRun) map[seriesKey]Series {
	out := map[seriesKey]Series{}
	for _, run := range runs {
		for k := range run.truth {
			out[k] = Series{Name: k.name, Kind: k.kind, Start: 1 << 62}
		}
	}
	for k, s := range out {
		var end int64
		for _, run := range runs {
			if run.truth[k] == nil {
				continue
			}
			if kept := run.n - seriesCap; kept < s.Start {
				s.Start = kept
			}
			if run.n > end {
				end = run.n
			}
		}
		if s.Start < 0 {
			s.Start = 0
		}
		s.V = make([]int64, end-s.Start)
		for _, run := range runs {
			for idx, v := range run.truth[k] {
				if idx >= run.n-seriesCap {
					s.V[idx-s.Start] = fold(k.kind, s.V[idx-s.Start], v)
				}
			}
			if last, ok := run.truth[k][run.n-1]; ok && k.kind != KindGauge {
				for idx := run.n; idx < end; idx++ {
					s.V[idx-s.Start] += last
				}
			}
		}
		out[k] = s
	}
	return out
}

// TestFoldOrderProperty is the determinism contract for values and series
// together: k registries folded one by one, all at once from k goroutines,
// and in shuffled order give identical snapshots and identical series — and
// the series are the ones an index-by-index reference fold computes,
// including across a ring that wrapped, runs of unequal length and
// instruments that registered late.
func TestFoldOrderProperty(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(5)
		runs := make([]*sampledRun, k)
		for i := range runs {
			n := 1 + rng.Int63n(40)
			if seed%4 == 0 && i == 0 {
				n = seriesCap + 1 + rng.Int63n(60) // one run outlives its ring
			}
			runs[i] = newSampledRun(rng, n)
		}

		oneByOne := NewCollector()
		for _, run := range runs {
			oneByOne.Add(run.reg)
		}
		atOnce := NewCollector()
		var wg sync.WaitGroup
		for _, run := range runs {
			wg.Add(1)
			go func(r *Registry) {
				defer wg.Done()
				atOnce.Add(r)
			}(run.reg)
		}
		wg.Wait()
		shuffled := NewCollector()
		for _, i := range rng.Perm(k) {
			shuffled.Add(runs[i].reg)
		}

		snap, series := oneByOne.Snapshot(), oneByOne.Series()
		for name, col := range map[string]*Collector{"all at once": atOnce, "shuffled": shuffled} {
			if !reflect.DeepEqual(col.Snapshot(), snap) {
				t.Errorf("seed %d: snapshot folded %s differs from one-by-one", seed, name)
			}
			if !reflect.DeepEqual(col.Series(), series) {
				t.Errorf("seed %d: series folded %s differ from one-by-one", seed, name)
			}
		}
		want := wantSeries(runs)
		if len(series) != len(want) {
			t.Fatalf("seed %d: %d series, reference has %d", seed, len(series), len(want))
		}
		for _, s := range series {
			if !reflect.DeepEqual(s, want[seriesKey{s.Name, s.Kind}]) {
				t.Errorf("seed %d: %s/%s start=%d len=%d differs from the reference fold", seed, s.Name, s.Kind, s.Start, len(s.V))
			}
		}
	}
}

// TestUnsampledRegistryHoldsNoSeries pins the off state: a registry nobody
// sampled contributes no series, and folding it costs what it cost before
// series existed — nothing, once the collector knows its instrument names.
func TestUnsampledRegistryHoldsNoSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(3)
	r.Gauge("g").Set(4)
	r.Histogram("h", []int64{10}).Observe(5)
	col := NewCollector()
	col.Add(r)
	if s := col.Series(); len(s) != 0 {
		t.Fatalf("unsampled registry produced series: %+v", s)
	}
	if allocs := testing.AllocsPerRun(100, func() { col.Add(r) }); allocs > 0 {
		t.Fatalf("folding an unsampled registry allocates %.1f/op, want 0", allocs)
	}
}
