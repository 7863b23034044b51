package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/stats"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenResult is a fixed Result exercising every part of the schema:
// series, notes, and a stats snapshot with all three instrument kinds.
func goldenResult() *Result {
	e := sim.NewEngine()
	reg := e.Stats()
	reg.Counter("tcp.retransmits").Add(7)
	reg.Gauge("sim.heap_max_depth").SetMax(42)
	h := reg.Histogram("tcp.cwnd_bytes", []int64{1000, 2000})
	h.Observe(500)
	h.Observe(1500)
	h.Observe(9000)
	col := stats.NewCollector()
	col.Add(reg)

	r := &Result{
		ID:     "golden",
		Title:  "schema fixture",
		XLabel: "x",
		YLabel: "y",
		Stats:  col.Snapshot(),
	}
	r.AddSeries("a", []float64{1, 2}, []float64{0.5, 1.5})
	r.Note("note %d", 1)
	return r
}

// TestResultSchemaGolden pins the wp2p.result.v1 JSON layout byte-for-byte.
// If this fails after an intentional format change, bump SchemaVersion and
// regenerate with `go test ./internal/experiments/ -run Golden -update`.
func TestResultSchemaGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenResult().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "result_schema_v1.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSON drifted from %s:\ngot:\n%s\nwant:\n%s", path, buf.Bytes(), want)
	}
}

// TestExportJSONRoundTrip checks the exported file reads back through
// ReadResult into the value that wrote it: writing that again gives the same
// bytes, stats section included.
func TestExportJSONRoundTrip(t *testing.T) {
	path, err := goldenResult().ExportJSON(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadResult(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "golden" || len(got.Series) != 1 || got.Stats == nil || len(got.Stats.Histograms) != 1 || got.Stats.Histograms[0].Count != 3 {
		t.Errorf("round trip lost fields: %+v", got)
	}
	var again bytes.Buffer
	if err := got.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Errorf("read-then-write changed the document:\n%s\nwas:\n%s", again.Bytes(), raw)
	}
}
