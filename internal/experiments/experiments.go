// Package experiments reproduces every data figure of the paper's
// motivation (Figures 2–4) and evaluation (Figures 8–9) sections as
// deterministic simulation scenarios. Each experiment builds its topology
// from the netem/tcp/bt/wp2p stack, runs it, and returns a Result whose
// series correspond to the paper's plotted lines.
//
// Absolute throughput depends on the modelled link rates (the authors ran
// on a physical testbed); what the scenarios preserve is the paper's
// qualitative shape: orderings, peaks, crossovers, and relative gains.
package experiments

import (
	"fmt"
	"strings"

	"github.com/wp2p/wp2p/internal/stats"
)

// Series is one plotted line: y-values over an x-axis.
type Series struct {
	Label string    `json:"label"`
	X     []float64 `json:"x"`
	Y     []float64 `json:"y"`
}

// Result is a reproduced figure.
type Result struct {
	ID     string   `json:"id"` // e.g. "fig8a"
	Title  string   `json:"title"`
	XLabel string   `json:"x_label"`
	YLabel string   `json:"y_label"`
	Series []Series `json:"series"`
	Notes  []string `json:"notes,omitempty"`

	// Stats aggregates the cross-layer registry counts over every world the
	// experiment ran (counters and histograms summed, gauges max); nil when
	// the experiment collected none.
	Stats *stats.Snapshot `json:"stats,omitempty"`
}

// AddSeries appends a line to the result.
func (r *Result) AddSeries(label string, x, y []float64) {
	r.Series = append(r.Series, Series{Label: label, X: x, Y: y})
}

// Note records a free-form observation (e.g. measured improvement factors).
func (r *Result) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Table renders the result as an aligned text table, x-values in the first
// column and one column per series.
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Series) == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	headers := append([]string{r.XLabel}, labelsOf(r.Series)...)
	rows := [][]string{}
	base := r.Series[0]
	for i := range base.X {
		row := []string{formatNum(base.X[i])}
		for _, s := range r.Series {
			if i < len(s.Y) {
				row = append(row, formatNum(s.Y[i]))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	writeAligned(&b, headers, rows)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	fmt.Fprintf(&b, "(y-axis: %s)\n", r.YLabel)
	return b.String()
}

func labelsOf(ss []Series) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.Label
	}
	return out
}

func formatNum(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e7:
		return fmt.Sprintf("%d", int64(v))
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.1f", v)
	case v >= 0.01:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.1e", v)
	}
}

func writeAligned(b *strings.Builder, headers []string, rows [][]string) {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
}

// Runner is the signature every experiment exposes.
type Runner func() *Result

// RegistryOptions tunes how registry experiments execute without changing
// what they compute.
type RegistryOptions struct {
	// Shards > 0 runs shard-capable experiments (currently fig4a) on the
	// sharded engine with that many worker threads. Experiments that have
	// not been taught the sharded world ignore it. Results and digests are
	// identical at any value.
	Shards int
	// Fidelity selects the wired-core transport model for experiments that
	// support it (currently fig2a and fig4a): FidelityPacket (default) or
	// FidelityFlow. Wireless and mobile hosts stay packet-level either way.
	Fidelity string
}

// Registry maps experiment ids to runners built with the given scale
// (1.0 = paper-faithful sizes, smaller = faster benchmark-friendly runs)
// and execution options; the zero RegistryOptions is the default.
func Registry(scale float64, opts RegistryOptions) map[string]Runner {
	if scale <= 0 {
		scale = 1
	}
	return map[string]Runner{
		"fig2a":  func() *Result { return Fig2aBiVsUniTCP(Fig2aConfig{Scale: scale, Fidelity: opts.Fidelity}) },
		"fig2bc": func() *Result { return Fig2bcPacketsAfterDrop(Fig2bcConfig{Scale: scale}) },
		"fig3a":  func() *Result { return Fig3aUploadCapWired(Fig3Config{Scale: scale}) },
		"fig3b":  func() *Result { return Fig3bUploadCapWireless(Fig3Config{Scale: scale}) },
		"fig3c":  func() *Result { return Fig3cIncentiveMobility(Fig3cConfig{Scale: scale}) },
		"fig4a": func() *Result {
			return Fig4aServerMobility(Fig4aConfig{Scale: scale, Shards: opts.Shards, Fidelity: opts.Fidelity})
		},
		"fig4bc": func() *Result { return Fig4bcRarestPlayability(FigPlayConfig{Scale: scale}) },
		"fig8a":  func() *Result { return Fig8aAgeBasedManipulation(Fig8aConfig{Scale: scale}) },
		"fig8b":  func() *Result { return Fig8bIdentityRetention(Fig8bConfig{Scale: scale}) },
		"fig8c":  func() *Result { return Fig8cLIHD(Fig8cConfig{Scale: scale}) },
		"fig9ab": func() *Result { return Fig9abMobilityAwareFetch(FigPlayConfig{Scale: scale}) },
		"fig9c":  func() *Result { return Fig9cRoleReversal(Fig9cConfig{Scale: scale}) },

		// Extensions beyond the paper's figures: the component ablation its
		// design section invites, and the seed-mode LIHD it defers to
		// future work (§4.2).
		"ablation":     func() *Result { return AblationWP2P(scale) },
		"ext-seedlihd": func() *Result { return ExtSeedLIHD(scale) },
		"ext-ed2k":     func() *Result { return ExtEd2kIdentity(scale) },
		"ext-gnutella": func() *Result { return ExtGnutellaServerMobility(scale) },
	}
}

// IDs returns the registry's experiment ids in run order: first the paper's
// figures, then the extensions.
func IDs() []string {
	return []string{
		"fig2a", "fig2bc", "fig3a", "fig3b", "fig3c",
		"fig4a", "fig4bc", "fig8a", "fig8b", "fig8c", "fig9ab", "fig9c",
		"ablation", "ext-seedlihd", "ext-ed2k", "ext-gnutella",
	}
}
