package telemetry

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/stats"
)

// export folds sampled registries into one document the way the experiment
// harness does: every registry through one stats.Collector, then NewExport.
func export(ann []Annotation, regs ...*stats.Registry) *Export {
	col := stats.NewCollector()
	for _, r := range regs {
		col.Add(r)
	}
	return NewExport(time.Second, len(regs), col.Series(), ann)
}

func TestProbeSamplesCountersAtCadence(t *testing.T) {
	reg := stats.NewRegistry()
	c := reg.Counter("test.events")
	for k := 1; k <= 3; k++ {
		c.Add(int64(10 * k))
		reg.Sample()
	}

	e := export(nil, reg)
	s := findSeries(t, e, "test.events")
	want := []int64{10, 30, 60} // cumulative counter values at each boundary
	if !int64sEqual(s.V, want) {
		t.Fatalf("series = %v, want %v", s.V, want)
	}
	if s.Kind != KindCounter {
		t.Fatalf("kind = %q, want counter", s.Kind)
	}
	if e.EveryNS != int64(time.Second) || e.Runs != 1 {
		t.Fatalf("every_ns=%d runs=%d", e.EveryNS, e.Runs)
	}
}

func TestProbeGaugeAndHistogram(t *testing.T) {
	reg := stats.NewRegistry()
	g := reg.Gauge("test.depth")
	h := reg.Histogram("test.lat", []int64{10, 100})

	g.Set(7)
	h.Observe(5)
	h.Observe(50)
	reg.Sample()
	g.Set(3)
	h.Observe(200)
	reg.Sample()

	e := export(nil, reg)
	if s := findSeries(t, e, "test.depth"); !int64sEqual(s.V, []int64{7, 3}) || s.Kind != KindGauge {
		t.Fatalf("gauge series = %+v", s)
	}
	// Histograms export as count + sum pairs under one name.
	var count, sum *SeriesData
	for i := range e.Series {
		if e.Series[i].Name == "test.lat" {
			switch e.Series[i].Kind {
			case KindHistCount:
				count = &e.Series[i]
			case KindHistSum:
				sum = &e.Series[i]
			}
		}
	}
	if count == nil || sum == nil {
		t.Fatalf("missing histogram series: %+v", e.Series)
	}
	if !int64sEqual(count.V, []int64{2, 3}) {
		t.Fatalf("hist count = %v", count.V)
	}
	if !int64sEqual(sum.V, []int64{55, 255}) {
		t.Fatalf("hist sum = %v", sum.V)
	}
}

func TestProbeLateInstrumentBackfillsZeros(t *testing.T) {
	reg := stats.NewRegistry()
	reg.Counter("early").Add(1)
	reg.Sample()
	reg.Sample()

	late := reg.Counter("late") // appears after two samples
	late.Add(42)
	reg.Sample()
	reg.Counter("never") // registered after the last sample: no series at all

	e := export(nil, reg)
	s := findSeries(t, e, "late")
	if !int64sEqual(s.V, []int64{0, 0, 42}) || s.Start != 0 {
		t.Fatalf("late series = %+v, want zeros backfilled", s)
	}
	if len(e.Series) != 2 {
		t.Fatalf("export has %d series, want early and late only", len(e.Series))
	}
}

// ringCap is the per-series sample bound (stats' seriesCap).
const ringCap = 8192

func TestRingWrapAdvancesStart(t *testing.T) {
	reg := stats.NewRegistry()
	c := reg.Counter("wrap.me")
	for k := 1; k <= ringCap+3; k++ {
		c.Add(1)
		reg.Sample()
	}
	s := findSeries(t, export(nil, reg), "wrap.me")
	if s.Start != 3 {
		t.Fatalf("start = %d, want 3 (%d samples, cap %d)", s.Start, ringCap+3, ringCap)
	}
	if len(s.V) != ringCap || s.V[0] != 4 || s.V[ringCap-1] != ringCap+3 {
		t.Fatalf("retained %d samples %d..%d, want the last %d cumulative values", len(s.V), s.V[0], s.V[len(s.V)-1], ringCap)
	}
}

func TestCollectorMergeCommutes(t *testing.T) {
	mk := func(vals []int64, gauge []int64) *stats.Registry {
		reg := stats.NewRegistry()
		c := reg.Counter("m.count")
		g := reg.Gauge("m.peak")
		for i := range vals {
			c.Add(vals[i] - c.Value())
			g.Set(gauge[i])
			reg.Sample()
		}
		return reg
	}
	// Each world of a scenario annotates the same storm.
	storm := []Annotation{{AtNS: int64(90 * time.Second), Label: "storm"}, {AtNS: int64(90 * time.Second), Label: "storm"}}
	a := mk([]int64{1, 2, 3}, []int64{5, 2, 9})
	b := mk([]int64{10, 20, 30}, []int64{1, 8, 4})
	ab, ba := export(storm, a, b), export(storm, b, a)

	var bufAB, bufBA bytes.Buffer
	if err := ab.WriteJSON(&bufAB); err != nil {
		t.Fatal(err)
	}
	if err := ba.WriteJSON(&bufBA); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufAB.Bytes(), bufBA.Bytes()) {
		t.Fatalf("merge order changed export:\nA,B:\n%s\nB,A:\n%s", bufAB.String(), bufBA.String())
	}

	if s := findSeries(t, ab, "m.count"); !int64sEqual(s.V, []int64{11, 22, 33}) {
		t.Fatalf("summed counters = %v", s.V)
	}
	if s := findSeries(t, ab, "m.peak"); !int64sEqual(s.V, []int64{5, 8, 9}) {
		t.Fatalf("maxed gauges = %v", s.V)
	}
	if len(ab.Annotations) != 1 || ab.Annotations[0].Label != "storm" {
		t.Fatalf("annotations not deduped: %+v", ab.Annotations)
	}
	if ab.Runs != 2 {
		t.Fatalf("runs = %d", ab.Runs)
	}
}

func TestCollectorMergeUnequalLengths(t *testing.T) {
	mk := func(n int) *stats.Registry {
		reg := stats.NewRegistry()
		c := reg.Counter("n")
		for i := 0; i < n; i++ {
			c.Add(1)
			reg.Sample()
		}
		return reg
	}
	s := findSeries(t, export(nil, mk(2), mk(4)), "n")
	if !int64sEqual(s.V, []int64{2, 4, 5, 6}) {
		t.Fatalf("merged = %v, want the short run's final count carried", s.V)
	}
}

func TestParseFilter(t *testing.T) {
	if ParseFilter("") != nil || ParseFilter(" , ") != nil {
		t.Fatal("empty specs must mean no filter")
	}
	f := ParseFilter("sim., netem.wired")
	for name, want := range map[string]bool{
		"sim.events_fired":     true,
		"netem.wired.tx_bytes": true,
		"netem.wireless.drops": false,
		"tcp.segs_sent":        false,
	} {
		if f(name) != want {
			t.Errorf("filter(%q) = %v, want %v", name, f(name), want)
		}
	}
}

// TestMultiRegistryReducesAcrossShards: the shards of one world fold like the
// runs of one experiment, and one shard's own trajectory rides along under a
// qualified name.
func TestMultiRegistryReducesAcrossShards(t *testing.T) {
	col := stats.NewCollector()
	for i := 0; i < 3; i++ {
		reg := stats.NewRegistry()
		c := reg.Counter("sim.events_fired")
		c.Add(int64(100 * (i + 1)))
		reg.Sample()
		col.Add(reg)
		col.AddSeries(c.Series(fmt.Sprintf("sim.events_fired.shard.%d", i)))
	}
	e := NewExport(time.Second, 1, col.Series(), nil)
	if s := findSeries(t, e, "sim.events_fired"); !int64sEqual(s.V, []int64{600}) {
		t.Fatalf("reduced total = %v, want [600]", s.V)
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("sim.events_fired.shard.%d", i)
		if s := findSeries(t, e, name); !int64sEqual(s.V, []int64{int64(100 * (i + 1))}) {
			t.Fatalf("%s = %v", name, s.V)
		}
	}
}

func TestExportRoundTrip(t *testing.T) {
	reg := stats.NewRegistry()
	reg.Counter("x").Add(5)
	reg.Sample()
	col := stats.NewCollector()
	col.Add(reg)
	ann := []Annotation{{AtNS: int64(90 * time.Second), Label: "handoff storm (count=5)"}}

	var buf bytes.Buffer
	if err := NewExport(250*time.Millisecond, 1, col.Series(), ann).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	e, err := ReadExport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if e.Schema != SchemaVersion || e.EveryNS != int64(250*time.Millisecond) {
		t.Fatalf("round trip lost header: %+v", e)
	}
	if len(e.Annotations) != 1 || e.Annotations[0].AtNS != int64(90*time.Second) {
		t.Fatalf("annotations = %+v", e.Annotations)
	}
	if s := findSeries(t, e, "x"); !int64sEqual(s.V, []int64{5}) {
		t.Fatalf("series = %+v", s)
	}
}

func TestReadExportRejectsBadSchema(t *testing.T) {
	if _, err := ReadExport(bytes.NewReader([]byte(`{"schema":"bogus.v9","every_ns":1}`))); err == nil {
		t.Fatal("want schema error")
	}
	if _, err := ReadExport(bytes.NewReader([]byte(`{"schema":"wp2p.timeseries.v1","every_ns":0}`))); err == nil {
		t.Fatal("want every_ns error")
	}
}

func TestSampleSteadyStateAllocs(t *testing.T) {
	reg := stats.NewRegistry()
	c := reg.Counter("alloc.free")
	g := reg.Gauge("alloc.g")
	h := reg.Histogram("alloc.h", []int64{10})
	// Warm: fill the rings so pushes wrap in place.
	for k := 0; k < ringCap+2; k++ {
		reg.Sample()
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(1)
		g.Set(2)
		h.Observe(3)
		reg.Sample()
	})
	if allocs > 0 {
		t.Fatalf("steady-state Sample allocates %.1f/op, want 0", allocs)
	}
}

func findSeries(t *testing.T, e *Export, name string) *SeriesData {
	t.Helper()
	for i := range e.Series {
		if e.Series[i].Name == name {
			return &e.Series[i]
		}
	}
	t.Fatalf("series %q missing from export (have %d series)", name, len(e.Series))
	return nil
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// golden is a wp2p.timeseries.v1 export checked in from `wp2p scenario
// -scale 0.05 -timeseries … examples/scenarios/handoff-storm.json`; it is
// also internal/scenario's cross-commit byte-identity golden.
const golden = "../scenario/testdata/handoff-storm_scale005.timeseries.json"

func TestGoldenExportValidates(t *testing.T) {
	f, err := os.Open(golden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e, err := ReadExport(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Series) == 0 || len(e.Series[0].V) != 36 || len(e.Annotations) != 2 {
		t.Errorf("golden read as %d series (first %d samples long), %d annotations", len(e.Series), len(e.Series[0].V), len(e.Annotations))
	}
}

// TestCorruptedExportsAreRejected breaks the format's rules one at a time —
// the first five by editing the golden, the rest a minimal document: the
// reader must refuse each, naming what broke.
func TestCorruptedExportsAreRejected(t *testing.T) {
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	const small = `{"schema":"wp2p.timeseries.v1","every_ns":1000,"runs":1,"series":[
		{"name":"c","kind":"counter","v":[1,2]},
		{"name":"h","kind":"hist_count","v":[3,4]},
		{"name":"h","kind":"hist_sum","v":[5,9]}],
		"annotations":[{"at_ns":1,"label":"a"},{"at_ns":2,"label":"b"}]}`
	if _, err := ReadExport(strings.NewReader(small)); err != nil {
		t.Fatalf("the minimal document itself: %v", err)
	}
	for name, c := range map[string]struct{ doc, old, new, want string }{
		"schema":         {string(raw), `"wp2p.timeseries.v1"`, `"wp2p.timeseries.v0"`, "schema"},
		"cadence":        {string(raw), `"every_ns": 5000000000`, `"every_ns": 0`, "every_ns"},
		"kind":           {string(raw), `"kind": "gauge"`, `"kind": "level"`, "unknown kind"},
		"sort order":     {string(raw), `"name": "bt.chokes"`, `"name": "zz.chokes"`, "not sorted"},
		"annotation":     {string(raw), `"at_ns": 18000000000`, `"at_ns": 98000000000`, "annotations not sorted"},
		"runs":           {small, `"runs":1`, `"runs":0`, "3 series but runs = 0"},
		"empty name":     {small, `"name":"c"`, `"name":""`, "empty name"},
		"negative start": {small, `"kind":"counter"`, `"kind":"counter","start":-1`, "negative start -1"},
		"duplicate":      {small, `"name":"h","kind":"hist_count"`, `"name":"c","kind":"counter"`, `duplicate series ("c", counter)`},
		"decreasing":     {small, `[1,2]`, `[2,1]`, `counter series "c" decreases at sample 1 (2 -> 1)`},
		"lone hist sum":  {small, `"kind":"hist_count"`, `"kind":"gauge"`, `histogram "h" has a sum series but no count series`},
		"hist coverage":  {small, `[5,9]`, `[5]`, `histogram "h" count covers [0,2) but sum covers [0,1)`},
		"unlabelled":     {small, `"label":"a"`, `"label":""`, "annotation 0 at 1ns has an empty label"},
		"negative time":  {small, `"at_ns":1`, `"at_ns":-1`, `annotation "a" at negative time -1ns`},
		"lone hist count": {small, `,
		{"name":"h","kind":"hist_sum","v":[5,9]}`, ``, `histogram "h" has a count series but no sum series`},
	} {
		if !strings.Contains(c.doc, c.old) {
			t.Fatalf("%s: the document no longer contains %s", name, c.old)
		}
		_, err := ReadExport(strings.NewReader(strings.Replace(c.doc, c.old, c.new, 1)))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: ReadExport = %v, want an error mentioning %q", name, err, c.want)
		}
	}
}
