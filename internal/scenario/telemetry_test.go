package scenario

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/experiments"
	"github.com/wp2p/wp2p/internal/telemetry"
)

// TestHandoffStormTimeline runs the bundled handoff-storm scenario with
// sampling armed and checks the export tells the story the timeline report
// renders: the fault schedule's storms appear as annotations, and download
// progress (bt.pieces_completed) dips after a storm hits and recovers
// afterwards — the paper's mobile-host disruption, as a trajectory.
func TestHandoffStormTimeline(t *testing.T) {
	experiments.EnableTelemetry(telemetry.Config{Every: 5 * time.Second})
	t.Cleanup(experiments.DisableTelemetry)

	spec := loadExample(t, "handoff-storm.json")
	if _, err := RunOpts(spec, 0.2, Options{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	e := experiments.TimeseriesExport()
	if e == nil {
		t.Fatal("no timeseries export")
	}

	var storms []int64
	for _, a := range e.Annotations {
		if strings.HasPrefix(a.Label, "handoff_storm") {
			storms = append(storms, a.AtNS)
		}
	}
	if len(storms) < 2 {
		t.Fatalf("want ≥ 2 handoff_storm annotations, got %d (%v)", len(storms), e.Annotations)
	}

	var pieces *telemetry.SeriesData
	for i := range e.Series {
		if e.Series[i].Name == "bt.pieces_completed" && e.Series[i].Kind == telemetry.KindCounter {
			pieces = &e.Series[i]
		}
	}
	if pieces == nil {
		t.Fatal("export is missing the bt.pieces_completed counter series")
	}

	// Differentiate the cumulative counter into per-sample completion deltas;
	// delta[i] covers the sim-time window ending at (i+1)·Every.
	deltas := make([]int64, len(pieces.V))
	prev := int64(0)
	for i, v := range pieces.V {
		deltas[i] = v - prev
		prev = v
	}
	sampleOf := func(atNS int64) int {
		i := int(atNS / e.EveryNS) // storm at time t lands in the window ending at or after t
		if i >= len(deltas) {
			i = len(deltas) - 1
		}
		return i
	}

	t0 := storms[0]
	s0 := sampleOf(t0)
	dipEnd := sampleOf(t0 + int64(30*time.Second))
	preMax, dipMin, recMax := int64(0), int64(1<<62), int64(0)
	for i := 0; i <= s0; i++ {
		if deltas[i] > preMax {
			preMax = deltas[i]
		}
	}
	for i := s0 + 1; i <= dipEnd && i < len(deltas); i++ {
		if deltas[i] < dipMin {
			dipMin = deltas[i]
		}
	}
	for i := dipEnd + 1; i < len(deltas); i++ {
		if deltas[i] > recMax {
			recMax = deltas[i]
		}
	}
	if dipMin >= preMax {
		t.Errorf("no throughput dip after the storm: pre-storm peak %d, post-storm floor %d (deltas %v)",
			preMax, dipMin, deltas)
	}
	if recMax <= dipMin {
		t.Errorf("no recovery after the dip: floor %d, later peak %d (deltas %v)",
			dipMin, recMax, deltas)
	}

	// The storm itself must be visible on the mobility axis: handoffs fire
	// after the first storm's onset.
	for i := range e.Series {
		s := &e.Series[i]
		if s.Name != "mobility.handoffs" || s.Kind != telemetry.KindCounter {
			continue
		}
		if last := s.V[len(s.V)-1]; last == 0 {
			t.Error("mobility.handoffs never advanced despite two storms")
		}
		return
	}
	t.Error("export is missing the mobility.handoffs counter series")
}

// TestTimeseriesMatchesGolden is the cross-commit byte-identity gate for the
// sampling path: handoff-storm at -scale 0.05 must export exactly the
// document checked in from `wp2p scenario -scale 0.05 -timeseries …` before
// sampling moved into internal/stats. A deliberate model or instrument
// change regenerates the file with that command.
func TestTimeseriesMatchesGolden(t *testing.T) {
	experiments.EnableTelemetry(telemetry.Config{})
	t.Cleanup(experiments.DisableTelemetry)
	if _, err := RunOpts(loadExample(t, "handoff-storm.json"), 0.05, Options{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var got bytes.Buffer
	if err := experiments.WriteTimeseries(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/handoff-storm_scale005.timeseries.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("timeseries export differs from the golden (%d bytes, golden %d)", got.Len(), len(want))
	}
}
