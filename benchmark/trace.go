package main

import (
	"sort"
	"time"
)

// span is one timed interval of the traced run, recorded by the harness
// around its calls into a layer. Times are Unix nanoseconds so spans from
// different child processes share one axis.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// SelfNS is the span's duration minus what its children cover; filled
	// in by finishSpans.
	SelfNS int64 `json:"self_ns"`
}

// tracer keeps spans in memory; the harness writes them out at exit. A nil
// tracer records nothing, so untraced reps pay one nil check per boundary.
type tracer struct {
	workload string
	spans    []span
	open     []int // indexes of the spans begun and not yet ended
}

func newTracer(workload string) *tracer { return &tracer{workload: workload} }

// begin opens a span under the innermost open one and returns the function
// that ends it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{
		ID: i + 1, Parent: parent, Name: name, Workload: t.workload,
		StartNS: time.Now().UnixNano(),
	})
	t.open = append(t.open, i)
	return func() {
		t.spans[i].EndNS = time.Now().UnixNano()
		t.open = t.open[:len(t.open)-1]
	}
}

// adopt appends spans recorded by a child process, renumbering them past the
// tracer's own and hanging the child's roots under the innermost open span.
func (t *tracer) adopt(child []span) {
	if t == nil {
		return
	}
	base := len(t.spans)
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	for _, s := range child {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// finishSpans fills in each span's self time.
func finishSpans(spans []span) {
	covered := make(map[int]int64, len(spans))
	for _, s := range spans {
		covered[s.Parent] += s.EndNS - s.StartNS
	}
	for i := range spans {
		spans[i].SelfNS = spans[i].EndNS - spans[i].StartNS - covered[spans[i].ID]
	}
}

// selfTime is one row of the trace summary: self time per span name within
// a workload.
type selfTime struct {
	Workload string  `json:"workload"`
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	SelfMS   float64 `json:"self_ms"`
}

// selfTimes aggregates finished spans by (workload, name), largest first
// within each workload.
func selfTimes(spans []span) []selfTime {
	type key struct{ w, n string }
	index := map[key]int{}
	rank := map[string]int{} // workloads in first-seen order
	var rows []selfTime
	for _, s := range spans {
		k := key{s.Workload, s.Name}
		i, ok := index[k]
		if !ok {
			if _, seen := rank[s.Workload]; !seen {
				rank[s.Workload] = len(rank)
			}
			i = len(rows)
			index[k] = i
			rows = append(rows, selfTime{Workload: s.Workload, Name: s.Name})
		}
		rows[i].Count++
		rows[i].SelfMS += float64(s.SelfNS) / 1e6
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if ri, rj := rank[rows[i].Workload], rank[rows[j].Workload]; ri != rj {
			return ri < rj
		}
		return rows[i].SelfMS > rows[j].SelfMS
	})
	return rows
}
