package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// inProcess runs a rep in the test process instead of a child.
func inProcess(rs repSpec) repReport { return runRep(rs, time.Now()) }

// TestSmoke runs every workload and every probe at tiny size, in-process,
// and checks that what the harness emits is what BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	decl := loadBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

	if decl.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, harness default = %d", decl.RunSeconds, defaultSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, harness has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, harness has %q (or the why differs)", i, decl.Workloads[i].Name, w.name)
		}
	}
	// The catalogue and BENCHMARK.json agree on unit, direction and bound.
	for i, m := range driverEndToEnd() {
		d := decl.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, catalogue %+v", i, d, m)
		}
	}
	for i, m := range driverPerLayer() {
		if d := decl.PerLayer[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, catalogue %+v", i, d, m)
		}
	}
	wantEndToEnd := make([]string, len(decl.EndToEnd))
	for i, m := range decl.EndToEnd {
		wantEndToEnd[i] = m.Name
	}
	sort.Strings(wantEndToEnd)
	wantPerLayer := make([]string, len(decl.PerLayer))
	for i, m := range decl.PerLayer {
		wantPerLayer[i] = m.Name
	}
	sort.Strings(wantPerLayer)

	probes := runProbes(sizeTiny)
	if probes.Err != "" {
		t.Error(probes.Err)
	}
	for _, p := range allProbes {
		if probes.Ops[p.name] < 1 {
			t.Errorf("probe %s reported no operation", p.name)
		}
	}

	var results []workloadResult
	measured := map[string]bool{} // metrics some workload or probe really produced
	tr := newTracer("")
	for i := range workloads {
		w := &workloads[i]
		var res workloadResult
		tr.workload = w.name
		traceWorkload(inProcess, w, 1, sizeTiny, &res, tr) // one untraced rep, then the traced one
		if !res.correct() {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, res.OpsFailed, res.OpsTotal, res.Notes)
		}
		if got := sortedKeys(driverLine(res, nil, false).Metrics); strings.Join(got, " ") != strings.Join(wantEndToEnd, " ") {
			t.Errorf("%s: untraced run emits %v, BENCHMARK.json end_to_end is %v", w.name, got, wantEndToEnd)
		}
		line := driverLine(res, probes.Metrics, true)
		if got := sortedKeys(line.Metrics); strings.Join(got, " ") != strings.Join(wantPerLayer, " ") {
			t.Errorf("%s: traced run emits %v, BENCHMARK.json per_layer is %v", w.name, got, wantPerLayer)
		}
		for k := range line.Metrics {
			if !name.MatchString(k) {
				t.Errorf("metric name %q has a character outside [A-Za-z0-9_.-]", k)
			}
		}
		for _, src := range []map[string]float64{res.EndToEnd, res.PerLayer, probes.Metrics} {
			for k := range src {
				measured[k] = true
			}
		}
		results = append(results, res)
	}
	for _, k := range wantPerLayer {
		if !measured[k] {
			t.Errorf("per-layer metric %s is declared but no workload or probe measures it", k)
		}
	}
	if !name.MatchString(wlPacket) || !name.MatchString(wlHybrid) || !name.MatchString(wlFigures) || !name.MatchString(wlLive) {
		t.Error("a workload name has a character outside [A-Za-z0-9_.-]")
	}

	// The traced figures rep is long enough to be sampled: its shares sum to 1.
	for _, r := range results {
		if r.Name != wlFigures {
			continue
		}
		sum := 0.0
		for _, b := range cpuBuckets {
			sum += r.PerLayer["cpu."+b+"_frac"]
		}
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("%s: cpu shares sum to %v, want 1", r.Name, sum)
		}
	}

	// Spans: every workload has a root with setup and rep under it.
	spans := tr.spans
	finishSpans(spans)
	for _, w := range workloads {
		have := map[string]bool{}
		for _, s := range spans {
			if s.Workload == w.name {
				have[s.Name] = true
				if s.EndNS < s.StartNS || s.SelfNS < 0 {
					t.Errorf("%s: span %s has end %d before start %d or negative self time %d", w.name, s.Name, s.EndNS, s.StartNS, s.SelfNS)
				}
			}
		}
		for _, want := range []string{w.name, "setup", "rep", "verify"} {
			if !have[want] {
				t.Errorf("%s: no %q span in the trace (have %v)", w.name, want, sortedKeys(have))
			}
		}
	}

	// -compare: a result agrees with itself and flags a regression beyond a bound.
	base := &resultFile{Schema: schemaVersion, Workloads: results}
	var buf bytes.Buffer
	if code := compareResults(&buf, base, base); code != 0 {
		t.Errorf("a result does not agree with itself under -compare:\n%s", buf.String())
	}
	worse := &resultFile{Schema: schemaVersion}
	for _, r := range results {
		c := r
		c.EndToEnd = map[string]float64{}
		for k, v := range r.EndToEnd {
			c.EndToEnd[k] = v
		}
		c.EndToEnd["wall_s"] *= 1.5
		worse.Workloads = append(worse.Workloads, c)
	}
	buf.Reset()
	if code := compareResults(&buf, base, worse); code != 1 {
		t.Errorf("-compare let a 50%% slower wall_s through:\n%s", buf.String())
	}
	if rows := strings.Count(buf.String(), "\n"); rows < len(workloads)*len(endToEnd) {
		t.Errorf("-compare printed %d lines, want one row per pairing (%d)", rows, len(workloads)*len(endToEnd))
	}
}
