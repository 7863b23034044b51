package main

import (
	"bytes"
	"os"
	"testing"

	"github.com/wp2p/wp2p/internal/telemetry"
)

// TestTextReportMatchesGolden renders the checked-in handoff-storm export
// (see tools/validate-timeseries for its provenance) in text mode with
// `-metrics bt.pieces,mobility.,tcp.cwnd,sim.heap -width 36` and compares
// with testdata/handoff-storm.txt: one differentiated counter, one gauge,
// a histogram's rate and windowed-mean lanes, and both storm annotations.
func TestTextReportMatchesGolden(t *testing.T) {
	f, err := os.Open("../../internal/scenario/testdata/handoff-storm_scale005.timeseries.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e, err := telemetry.ReadExport(f)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	writeText(&got, e, buildRows(e, telemetry.ParseFilter("bt.pieces,mobility.,tcp.cwnd,sim.heap")), 36)
	want, err := os.ReadFile("testdata/handoff-storm.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("text report changed:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}
