// Command validate-timeseries structurally validates wp2p.timeseries.v1
// JSON files exported by the -timeseries flag of wp2p run, figures and
// scenario (see internal/telemetry). It is the CI gate that keeps the export
// schema honest beyond the byte-level identity check: every file must carry the
// expected schema tag and a positive cadence, series must be uniquely
// keyed, canonically sorted by (name, kind), carry a recognised kind and a
// non-negative start index, counter and hist_count series must be
// monotonically non-decreasing (they snapshot cumulative instruments), a
// histogram's count and sum rows must cover the same sample range, and
// annotations must be sorted by (time, label).
//
// Usage:
//
//	validate-timeseries [-min-samples n] file.json...
//
// Exits non-zero on the first malformed file, naming the violated rule.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/wp2p/wp2p/internal/telemetry"
)

var validKinds = map[string]bool{
	telemetry.KindCounter:   true,
	telemetry.KindGauge:     true,
	telemetry.KindHistCount: true,
	telemetry.KindHistSum:   true,
}

func validate(path string, minSamples int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	e, err := telemetry.ReadExport(f)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if len(e.Series) > 0 && e.Runs < 1 {
		return fmt.Errorf("%s: %d series but runs = %d", path, len(e.Series), e.Runs)
	}

	type key struct{ name, kind string }
	seen := map[key]*telemetry.SeriesData{}
	for i := range e.Series {
		s := &e.Series[i]
		if s.Name == "" {
			return fmt.Errorf("%s: series %d has an empty name", path, i)
		}
		if !validKinds[s.Kind] {
			return fmt.Errorf("%s: series %q has unknown kind %q", path, s.Name, s.Kind)
		}
		if s.Start < 0 {
			return fmt.Errorf("%s: series %q has negative start %d", path, s.Name, s.Start)
		}
		if len(s.V) < minSamples {
			return fmt.Errorf("%s: series %q has %d samples, want ≥ %d", path, s.Name, len(s.V), minSamples)
		}
		k := key{s.Name, s.Kind}
		if seen[k] != nil {
			return fmt.Errorf("%s: duplicate series (%q, %s)", path, s.Name, s.Kind)
		}
		seen[k] = s
		if i > 0 {
			prev := &e.Series[i-1]
			if prev.Name > s.Name || (prev.Name == s.Name && prev.Kind >= s.Kind) {
				return fmt.Errorf("%s: series not sorted by (name, kind): (%q, %s) before (%q, %s)",
					path, prev.Name, prev.Kind, s.Name, s.Kind)
			}
		}
		// Counters and histogram components snapshot cumulative instruments,
		// so a decreasing sample means a merge or sampling bug upstream.
		if s.Kind == telemetry.KindCounter || s.Kind == telemetry.KindHistCount {
			for j := 1; j < len(s.V); j++ {
				if s.V[j] < s.V[j-1] {
					return fmt.Errorf("%s: %s series %q decreases at sample %d (%d -> %d)",
						path, s.Kind, s.Name, int64(j)+s.Start, s.V[j-1], s.V[j])
				}
			}
		}
	}
	// A histogram exports as a (count, sum) pair over one name; a lone half
	// or mismatched coverage means the exporter dropped data.
	for k, s := range seen {
		if k.kind != telemetry.KindHistCount {
			continue
		}
		sum := seen[key{k.name, telemetry.KindHistSum}]
		if sum == nil {
			return fmt.Errorf("%s: histogram %q has a count series but no sum series", path, k.name)
		}
		if sum.Start != s.Start || len(sum.V) != len(s.V) {
			return fmt.Errorf("%s: histogram %q count covers [%d,%d) but sum covers [%d,%d)",
				path, k.name, s.Start, s.Start+int64(len(s.V)), sum.Start, sum.Start+int64(len(sum.V)))
		}
	}
	for k := range seen {
		if k.kind == telemetry.KindHistSum && seen[key{k.name, telemetry.KindHistCount}] == nil {
			return fmt.Errorf("%s: histogram %q has a sum series but no count series", path, k.name)
		}
	}

	for i := range e.Annotations {
		a := &e.Annotations[i]
		if a.Label == "" {
			return fmt.Errorf("%s: annotation %d at %dns has an empty label", path, i, a.AtNS)
		}
		if a.AtNS < 0 {
			return fmt.Errorf("%s: annotation %q at negative time %dns", path, a.Label, a.AtNS)
		}
		if i > 0 {
			p := &e.Annotations[i-1]
			if p.AtNS > a.AtNS || (p.AtNS == a.AtNS && p.Label >= a.Label) {
				return fmt.Errorf("%s: annotations not sorted by (time, label) at index %d", path, i)
			}
		}
	}
	return nil
}

func main() {
	minSamples := flag.Int("min-samples", 0, "require every series to retain at least this many samples")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: validate-timeseries [-min-samples n] file.json...")
		os.Exit(2)
	}
	for _, path := range flag.Args() {
		if err := validate(path, *minSamples); err != nil {
			fmt.Fprintf(os.Stderr, "validate-timeseries: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("ok %s\n", path)
	}
}
