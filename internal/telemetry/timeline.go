package telemetry

import (
	"fmt"
	"html"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"time"
)

// A Timeline is an export laid out for reading (`wp2p timeline`): one lane
// per metric over the shared sim-time axis, with the scenario's
// fault-schedule annotations listed against it.
//
// Counters and histogram counts are cumulative snapshots, so their lanes are
// differentiated into per-second rates — the shape a throughput dip or a
// handoff storm actually has. Gauges plot raw. A histogram's (count, sum)
// pair additionally yields a windowed-mean lane.
type Timeline struct {
	e    *Export
	rows []row
}

// NewTimeline lays out the series whose names keep accepts (nil = all).
func NewTimeline(e *Export, keep func(name string) bool) *Timeline {
	return &Timeline{e: e, rows: buildRows(e, keep)}
}

// Lanes is the number of lanes; zero means keep matched nothing.
func (t *Timeline) Lanes() int { return len(t.rows) }

// row is one rendered timeline lane: a metric's trajectory resampled into
// plottable points, each point pinned to an absolute sim time.
type row struct {
	name string
	at   []int64   // sim time of each point, ns
	v    []float64 // plotted value at each point
}

// plot appends sample j of s, taken at sim time (s.Start+j+1)·every, as v.
func (r *row) plot(e *Export, s *SeriesData, j int, v float64) {
	r.at = append(r.at, (s.Start+int64(j)+1)*e.EveryNS)
	r.v = append(r.v, v)
}

// buildRows turns the export's series into display lanes. Cumulative kinds
// (counter, hist_count) are differentiated into per-interval rates; a
// histogram's count+sum pair contributes a windowed-mean lane as well.
func buildRows(e *Export, keep func(string) bool) []row {
	sums := map[string]*SeriesData{}
	for i := range e.Series {
		if e.Series[i].Kind == KindHistSum {
			sums[e.Series[i].Name] = &e.Series[i]
		}
	}
	var rows []row
	for i := range e.Series {
		s := &e.Series[i]
		if keep != nil && !keep(s.Name) {
			continue
		}
		switch s.Kind {
		case KindGauge:
			r := row{name: s.Name}
			for j, v := range s.V {
				r.plot(e, s, j, float64(v))
			}
			rows = append(rows, r)
		case KindCounter, KindHistCount:
			rows = append(rows, rateRow(e, s))
			if sum := sums[s.Name]; s.Kind == KindHistCount && sum != nil && sum.Start == s.Start && len(sum.V) == len(s.V) {
				rows = append(rows, meanRow(e, s, sum))
			}
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	return rows
}

// rateRow differentiates a cumulative series into per-second rates. The
// sample before a wrapped ring's first retained index is unknown, so the
// rate lane starts one sample in when Start > 0.
func rateRow(e *Export, s *SeriesData) row {
	r := row{name: s.Name + "/s"}
	everySec := float64(e.EveryNS) / 1e9
	prev := int64(0)
	for j, v := range s.V {
		if j > 0 || s.Start == 0 {
			r.plot(e, s, j, float64(v-prev)/everySec)
		}
		prev = v
	}
	return r
}

// meanRow reconstructs a histogram's windowed mean from its count and sum
// deltas; windows with no observations plot as zero.
func meanRow(e *Export, count, sum *SeriesData) row {
	r := row{name: count.Name + " (mean)"}
	var pc, ps int64
	for j := range count.V {
		dc, dsum := count.V[j]-pc, sum.V[j]-ps
		pc, ps = count.V[j], sum.V[j]
		m := 0.0
		if dc > 0 {
			m = float64(dsum) / float64(dc)
		}
		if j > 0 || count.Start == 0 {
			r.plot(e, count, j, m)
		}
	}
	return r
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders values into width cells, bucketing by mean and scaling
// to the row's own [min, max].
func sparkline(v []float64, width int) string {
	if len(v) == 0 {
		return ""
	}
	width = min(width, len(v))
	cells := make([]float64, width)
	for i := range cells {
		lo, hi := i*len(v)/width, (i+1)*len(v)/width // hi > lo: width ≤ len(v)
		sum := 0.0
		for _, x := range v[lo:hi] {
			sum += x
		}
		cells[i] = sum / float64(hi-lo)
	}
	min, max := slices.Min(cells), slices.Max(cells)
	var b strings.Builder
	for _, c := range cells {
		idx := 0
		if max > min {
			idx = int((c - min) / (max - min) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

func minMaxLast(v []float64) (min, max, last float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	return slices.Min(v), slices.Max(v), v[len(v)-1]
}

// span is the sim time of the timeline's last point, ns.
func (t *Timeline) span() (span int64) {
	for _, r := range t.rows {
		if n := len(r.at); n > 0 {
			span = max(span, r.at[n-1])
		}
	}
	return span
}

func fmtVal(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// WriteText renders a text table: a sparkline of at most width (≥ 1) cells
// and the min, max and last value per lane, then the annotations.
func (t *Timeline) WriteText(w io.Writer, width int) {
	e, rows := t.e, t.rows
	fmt.Fprintf(w, "timeline: %d series, every %v, %d runs, span %v\n\n",
		len(rows), time.Duration(e.EveryNS), e.Runs, time.Duration(t.span()))
	nameW := 12
	for _, r := range rows {
		if len(r.name) > nameW {
			nameW = len(r.name)
		}
	}
	for _, r := range rows {
		min, max, last := minMaxLast(r.v)
		fmt.Fprintf(w, "%-*s  %-*s  min %s  max %s  last %s\n",
			nameW, r.name, width, sparkline(r.v, width), fmtVal(min), fmtVal(max), fmtVal(last))
	}
	if len(e.Annotations) > 0 {
		fmt.Fprintf(w, "\nevents:\n")
		for _, a := range e.Annotations {
			fmt.Fprintf(w, "  %10v  %s\n", time.Duration(a.AtNS), a.Label)
		}
	}
}

// WriteHTML emits a self-contained page: one inline-SVG chart per lane,
// annotation markers as vertical lines with hover titles. No scripts, no
// external assets — the file is archivable next to the export it renders.
func (t *Timeline) WriteHTML(w io.Writer) {
	e, rows := t.e, t.rows
	const cw, ch, pad = 720, 96, 4
	span := max(t.span(), 1)
	x := func(at int64) float64 { return pad + float64(at)/float64(span)*(cw-2*pad) }
	fmt.Fprintf(w, `<!doctype html><html><head><meta charset="utf-8"><title>wp2p timeline</title>
<style>
body{font:14px/1.4 system-ui,sans-serif;margin:24px;color:#222}
h1{font-size:18px} .meta{color:#666;margin-bottom:16px}
.lane{margin-bottom:14px} .lane .label{font:12px monospace;margin-bottom:2px}
.lane .range{color:#888;font-size:11px;margin-left:8px}
svg{background:#fafafa;border:1px solid #ddd;border-radius:3px}
table{border-collapse:collapse;margin-top:8px;font-size:13px}
td{padding:2px 10px 2px 0;font-family:monospace}
</style></head><body>
<h1>wp2p timeline</h1>
<div class="meta">%d series · sample every %v · %d runs · span %v</div>
`, len(rows), time.Duration(e.EveryNS), e.Runs, time.Duration(span))
	for _, r := range rows {
		min, max, _ := minMaxLast(r.v)
		y := func(v float64) float64 {
			if max == min {
				return ch / 2
			}
			return pad + (1-(v-min)/(max-min))*(ch-2*pad)
		}
		fmt.Fprintf(w, `<div class="lane"><div class="label">%s<span class="range">min %s · max %s</span></div>
<svg width="%d" height="%d" viewBox="0 0 %d %d">`,
			html.EscapeString(r.name), fmtVal(min), fmtVal(max), cw, ch, cw, ch)
		for _, a := range e.Annotations {
			fmt.Fprintf(w, `<line x1="%.1f" y1="0" x2="%.1f" y2="%d" stroke="#d33" stroke-width="1" opacity="0.5"><title>%s @ %v</title></line>`,
				x(a.AtNS), x(a.AtNS), ch, html.EscapeString(a.Label), time.Duration(a.AtNS))
		}
		var pts strings.Builder
		for i := range r.v {
			fmt.Fprintf(&pts, "%.1f,%.1f ", x(r.at[i]), y(r.v[i]))
		}
		fmt.Fprintf(w, `<polyline points="%s" fill="none" stroke="#2563eb" stroke-width="1.5"/></svg></div>
`, strings.TrimSpace(pts.String()))
	}
	if len(e.Annotations) > 0 {
		fmt.Fprintf(w, "<h1>events</h1><table>")
		for _, a := range e.Annotations {
			fmt.Fprintf(w, "<tr><td>%v</td><td>%s</td></tr>", time.Duration(a.AtNS), html.EscapeString(a.Label))
		}
		fmt.Fprintf(w, "</table>")
	}
	fmt.Fprintf(w, "</body></html>\n")
}
