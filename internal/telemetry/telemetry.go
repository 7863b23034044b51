// Package telemetry is the wp2p.timeseries.v1 format: the document a run's
// sampled trajectories are written as, and the reader downstream tooling
// (tools/timeline-report, tools/validate-timeseries) loads it with — so the
// phenomena the paper plots (throughput degradation under mobile churn, LIHD
// recovery, a flash crowd's arrival wave) exist as curves over virtual time
// instead of only as end-of-run totals.
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

// SchemaVersion identifies the JSON layout WriteJSON emits. Downstream
// tooling (tools/timeline-report, tools/validate-timeseries) keys on it.
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
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
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

// ReadExport parses and validates a wp2p.timeseries.v1 document.
func ReadExport(r io.Reader) (*Export, error) {
	var e Export
	if err := json.NewDecoder(r).Decode(&e); err != nil {
		return nil, err
	}
	if e.Schema != SchemaVersion {
		return nil, fmt.Errorf("telemetry: schema %q, want %q", e.Schema, SchemaVersion)
	}
	if e.EveryNS <= 0 {
		return nil, fmt.Errorf("telemetry: every_ns %d must be positive", e.EveryNS)
	}
	return &e, nil
}
