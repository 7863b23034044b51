// Package telemetry is the wp2p.timeseries.v1 format: the document a run's
// sampled trajectories are written as, the reader that holds every rule a
// valid one obeys (`wp2p validate`, and every other reader, goes through it),
// and the timeline `wp2p timeline` renders from it — so the phenomena the
// paper plots (throughput degradation under mobile churn, LIHD recovery, a
// flash crowd's arrival wave) exist as curves over virtual time instead of
// only as end-of-run totals.
//
// The data itself is internal/stats': registries sample their own
// instruments, one stats.Collector folds the shards of a world and the runs
// of a session, and the experiment harness (internal/experiments) drives the
// sampling from outside the event loop. Because that fold commutes and the
// encoding below is canonical, an export is byte-identical at any -parallel
// worker-pool size and any -shards worker count (DESIGN.md §15).
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"github.com/wp2p/wp2p/internal/stats"
)

// SchemaVersion identifies the JSON layout WriteJSON emits; ReadExport and
// `wp2p validate` key on it.
const SchemaVersion = "wp2p.timeseries.v1"

// Series kinds, as the document spells them.
const (
	KindCounter   = stats.KindCounter
	KindGauge     = stats.KindGauge
	KindHistCount = stats.KindHistCount
	KindHistSum   = stats.KindHistSum
)

// DefaultEvery is the sampling cadence when the CLI gives none: 5 s of sim
// time keeps a 20-minute figure at 240 points.
const DefaultEvery = 5 * time.Second

// Config parameterizes a run's sampling.
type Config struct {
	// Every is the sim-time interval between samples (0 = DefaultEvery).
	// Sample k (0-based) is taken with the world clock at exactly (k+1)·Every.
	Every time.Duration
}

// ParseFilter compiles a comma-separated list of metric-name prefixes into a
// predicate ("sim.,netem.wired" keeps the engine and wired-medium
// instruments). An empty spec returns nil: keep everything.
func ParseFilter(spec string) func(name string) bool {
	var pats []string
	for _, term := range strings.Split(spec, ",") {
		if term = strings.TrimSpace(term); term != "" {
			pats = append(pats, term)
		}
	}
	if len(pats) == 0 {
		return nil
	}
	return func(name string) bool {
		for _, p := range pats {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
}

// Annotation marks a scheduled occurrence — a fault-injection event, a storm
// onset — on the shared time axis, for the timeline report to draw.
type Annotation struct {
	AtNS  int64  `json:"at_ns"`
	Label string `json:"label"`
}

// SeriesData is one exported metric trajectory. Sample v[i] was taken with
// the world clock at (Start+i+1)·EveryNS; Start is nonzero only when the
// ring wrapped and dropped the run's earliest samples.
type SeriesData = stats.Series

// Export is the wp2p.timeseries.v1 document.
type Export struct {
	Schema      string       `json:"schema"`
	EveryNS     int64        `json:"every_ns"`
	Runs        int          `json:"runs"`
	Series      []SeriesData `json:"series"`
	Annotations []Annotation `json:"annotations,omitempty"`
}

// NewExport assembles the document for series sampled every `every` of sim
// time over runs worlds, in canonical order: series as the collector sorted
// them, annotations by (time, label) with the duplicates concurrent worlds
// of one scenario record collapsed.
func NewExport(every time.Duration, runs int, series []SeriesData, ann []Annotation) *Export {
	e := &Export{Schema: SchemaVersion, EveryNS: int64(every), Runs: runs, Series: series}
	ann = append([]Annotation(nil), ann...)
	sort.Slice(ann, func(i, j int) bool {
		if ann[i].AtNS != ann[j].AtNS {
			return ann[i].AtNS < ann[j].AtNS
		}
		return ann[i].Label < ann[j].Label
	})
	for i, a := range ann {
		if i == 0 || a != ann[i-1] {
			e.Annotations = append(e.Annotations, a)
		}
	}
	return e
}

// WriteJSON writes the export as indented JSON. The encoding is
// deterministic: series are sorted by name, annotations by (time, label),
// and every value is an integer.
func (e *Export) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

// ReadExport parses a wp2p.timeseries.v1 document and checks every rule of
// the format, naming the first one broken: the schema tag and a positive
// cadence; series uniquely keyed, in canonical (name, kind) order, of a known
// kind, with a non-negative start; counter and hist_count series
// non-decreasing; a histogram's count and sum rows both present over the same
// sample range; annotations labelled, non-negative and sorted by (time, label).
func ReadExport(r io.Reader) (*Export, error) {
	var e Export
	if err := json.NewDecoder(r).Decode(&e); err != nil {
		return nil, fmt.Errorf("telemetry: not valid JSON: %w", err)
	}
	if err := e.validate(); err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	return &e, nil
}

func (e *Export) validate() error {
	if e.Schema != SchemaVersion {
		return fmt.Errorf("schema %q, want %q", e.Schema, SchemaVersion)
	}
	if e.EveryNS <= 0 {
		return fmt.Errorf("every_ns %d must be positive", e.EveryNS)
	}
	if len(e.Series) > 0 && e.Runs < 1 {
		return fmt.Errorf("%d series but runs = %d", len(e.Series), e.Runs)
	}
	for i := range e.Series {
		s := &e.Series[i]
		if s.Name == "" {
			return fmt.Errorf("series %d has an empty name", i)
		}
		switch s.Kind {
		case KindCounter, KindGauge, KindHistCount, KindHistSum:
		default:
			return fmt.Errorf("series %q has unknown kind %q", s.Name, s.Kind)
		}
		if s.Start < 0 {
			return fmt.Errorf("series %q has negative start %d", s.Name, s.Start)
		}
		if i > 0 {
			prev := &e.Series[i-1]
			if prev.Name == s.Name && prev.Kind == s.Kind {
				return fmt.Errorf("duplicate series (%q, %s)", s.Name, s.Kind)
			}
			if prev.Name > s.Name || (prev.Name == s.Name && prev.Kind > s.Kind) {
				return fmt.Errorf("series not sorted by (name, kind): (%q, %s) before (%q, %s)",
					prev.Name, prev.Kind, s.Name, s.Kind)
			}
		}
		// Counters and histogram components snapshot cumulative instruments,
		// so a decreasing sample means a merge or sampling bug upstream.
		if s.Kind == KindCounter || s.Kind == KindHistCount {
			for j := 1; j < len(s.V); j++ {
				if s.V[j] < s.V[j-1] {
					return fmt.Errorf("%s series %q decreases at sample %d (%d -> %d)",
						s.Kind, s.Name, int64(j)+s.Start, s.V[j-1], s.V[j])
				}
			}
		}
	}
	// A histogram exports as a (count, sum) pair over one name — neighbours,
	// in canonical order; a lone half or mismatched coverage means the
	// exporter dropped data.
	for i := range e.Series {
		s := &e.Series[i]
		switch s.Kind {
		case KindHistCount:
			if i+1 == len(e.Series) || e.Series[i+1].Name != s.Name || e.Series[i+1].Kind != KindHistSum {
				return fmt.Errorf("histogram %q has a count series but no sum series", s.Name)
			}
			if sum := &e.Series[i+1]; sum.Start != s.Start || len(sum.V) != len(s.V) {
				return fmt.Errorf("histogram %q count covers [%d,%d) but sum covers [%d,%d)",
					s.Name, s.Start, s.Start+int64(len(s.V)), sum.Start, sum.Start+int64(len(sum.V)))
			}
		case KindHistSum:
			if i == 0 || e.Series[i-1].Name != s.Name || e.Series[i-1].Kind != KindHistCount {
				return fmt.Errorf("histogram %q has a sum series but no count series", s.Name)
			}
		}
	}
	for i := range e.Annotations {
		a := &e.Annotations[i]
		if a.Label == "" {
			return fmt.Errorf("annotation %d at %dns has an empty label", i, a.AtNS)
		}
		if a.AtNS < 0 {
			return fmt.Errorf("annotation %q at negative time %dns", a.Label, a.AtNS)
		}
		if i > 0 {
			p := &e.Annotations[i-1]
			if p.AtNS > a.AtNS || (p.AtNS == a.AtNS && p.Label >= a.Label) {
				return fmt.Errorf("annotations not sorted by (time, label) at index %d", i)
			}
		}
	}
	return nil
}
