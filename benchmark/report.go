package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"text/tabwriter"
)

// num prints a value with all its digits, the way the result file holds it.
func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// cell prints a metric of a workload, "n/a" where it is not measured.
func cell(m map[string]float64, name string) string {
	if v, ok := m[name]; ok {
		return num(v)
	}
	return "n/a"
}

// printEndToEnd prints one row per end-to-end metric, one column per workload.
func printEndToEnd(w io.Writer, results []workloadResult) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "end-to-end\tunit")
	for _, r := range results {
		fmt.Fprintf(tw, "\t%s", r.Name)
	}
	fmt.Fprintln(tw)
	for _, m := range endToEnd {
		fmt.Fprintf(tw, "%s\t%s", m.Name, m.Unit)
		for _, r := range results {
			fmt.Fprintf(tw, "\t%s", cell(r.EndToEnd, m.Name))
		}
		fmt.Fprintln(tw)
	}
	for _, row := range []struct {
		name string
		get  func(workloadResult) int
	}{
		{"ops_total", func(r workloadResult) int { return r.OpsTotal }},
		{"ops_failed", func(r workloadResult) int { return r.OpsFailed }},
		{"reps", func(r workloadResult) int { return r.Reps }},
	} {
		fmt.Fprintf(tw, "%s\tcount", row.name)
		for _, r := range results {
			fmt.Fprintf(tw, "\t%d", row.get(r))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// printPerLayer prints the counts and CPU shares per workload, then the
// probes (measured once, not per workload).
func printPerLayer(w io.Writer, results []workloadResult, probes map[string]float64) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "per-layer\tunit")
	for _, r := range results {
		fmt.Fprintf(tw, "\t%s", r.Name)
	}
	fmt.Fprintln(tw)
	var probeDefs []metricDef
	for _, m := range perLayer {
		if _, ok := probes[m.Name]; ok {
			probeDefs = append(probeDefs, m)
			continue
		}
		fmt.Fprintf(tw, "%s\t%s", m.Name, m.Unit)
		for _, r := range results {
			fmt.Fprintf(tw, "\t%s", cell(r.PerLayer, m.Name))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(w)
	if len(probeDefs) == 0 {
		return
	}
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "probe\tunit\tmedian of 5 batches")
	for _, m := range probeDefs {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", m.Name, m.Unit, num(probes[m.Name]))
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// printSelfTimes prints the traced run's self time per span name.
func printSelfTimes(w io.Writer, rows []selfTime) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "trace self time\tspan\tcount\tself ms")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.3f\n", r.Workload, r.Name, r.Count, r.SelfMS)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

func printHost(w io.Writer, h hostStamp) {
	fmt.Fprintf(w, "host: nproc=%d gomaxprocs=%d %s %s load1=%.2f (never compare across boxes)\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.OSArch, h.Load1)
}

func loadResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schemaVersion)
	}
	return &f, nil
}

// compareFiles gates candidate against baseline: one row per pairing of
// end-to-end metric and workload, with the catalogue's bound (the same
// numbers BENCHMARK.json carries). It returns 1 if any pairing is beyond
// its bound, 2 if a file cannot be read.
func compareFiles(w io.Writer, basePath, candPath string) int {
	base, err := loadResult(basePath)
	if err == nil {
		var cand *resultFile
		if cand, err = loadResult(candPath); err == nil {
			return compareResults(w, base, cand)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func compareResults(w io.Writer, base, cand *resultFile) int {
	fmt.Fprint(w, "baseline  ")
	printHost(w, base.Host)
	fmt.Fprint(w, "candidate ")
	printHost(w, cand.Host)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbaseline\tcandidate\tworse by\tbound\tverdict")
	code := 0
	for _, wl := range workloads {
		b, c := findWorkload(base, wl.name), findWorkload(cand, wl.name)
		for _, m := range endToEnd {
			bv, bok := b[m.Name]
			cv, cok := c[m.Name]
			if !bok || !cok {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t\t\tn/a\n", wl.name, m.Name, cell(b, m.Name), cell(c, m.Name))
				continue
			}
			worse := cv - bv // how far the candidate moved in the bad direction
			if m.Better == "higher" {
				worse = bv - cv
			}
			bound, shown := m.Bound, ""
			if m.Abs {
				shown = fmt.Sprintf("%+.4f\t%.4f abs", worse, bound)
			} else {
				worse = ratio(worse, bv)
				shown = fmt.Sprintf("%+.2f%%\t%.2f%%", worse*100, bound*100)
			}
			verdict := "ok"
			if worse > bound {
				verdict, code = "BEYOND BOUND", 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", wl.name, m.Name, num(bv), num(cv), shown, verdict)
		}
	}
	tw.Flush()
	return code
}

func findWorkload(f *resultFile, name string) map[string]float64 {
	for _, r := range f.Workloads {
		if r.Name == name {
			return r.EndToEnd
		}
	}
	return nil
}
