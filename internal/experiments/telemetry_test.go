package experiments

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/runner"
	"github.com/wp2p/wp2p/internal/telemetry"
)

// withTelemetry arms sim-time sampling for the duration of one test,
// restoring the package-global config afterwards.
func withTelemetry(t *testing.T, cfg telemetry.Config) {
	t.Helper()
	EnableTelemetry(cfg)
	t.Cleanup(DisableTelemetry)
}

// captureTimeseries runs a figure with sampling armed and returns the
// exported wp2p.timeseries.v1 bytes. Each call resets the collector, so
// captures are independent.
func captureTimeseries(t *testing.T, workers int, run func() *Result) []byte {
	t.Helper()
	withTelemetry(t, telemetry.Config{Every: 10 * time.Second})
	prev := runner.SetWorkers(workers)
	defer runner.SetWorkers(prev)
	run()
	var buf bytes.Buffer
	if err := WriteTimeseries(&buf); err != nil {
		t.Fatal(err)
	}
	DisableTelemetry()
	return buf.Bytes()
}

// TestTimeseriesIdenticalAcrossParallelism pins the telemetry side of the
// determinism contract on the single-engine path: the exported bytes must
// not depend on the -parallel worker-pool size or on which order runs
// finish, and repeated same-seed invocations must reproduce them.
func TestTimeseriesIdenticalAcrossParallelism(t *testing.T) {
	fig2a := Registry(0.05)["fig2a"]
	seq := captureTimeseries(t, 1, fig2a)
	if len(seq) == 0 {
		t.Fatal("no timeseries bytes collected")
	}
	par := captureTimeseries(t, 4, fig2a)
	again := captureTimeseries(t, 1, fig2a)
	if !bytes.Equal(seq, par) {
		t.Error("timeseries differs between -parallel 1 and -parallel 4")
	}
	if !bytes.Equal(seq, again) {
		t.Error("timeseries differs between repeated same-seed runs")
	}
}

// TestTimeseriesIdenticalAcrossShardWorkers pins the sharded side: a
// sharded world's trajectory is worker-count invariant, so the export —
// including the per-shard spotlight series — must be byte-identical at any
// -shards worker count.
func TestTimeseriesIdenticalAcrossShardWorkers(t *testing.T) {
	fig4a := func(shards int) func() *Result {
		return func() *Result { return Fig4aServerMobility(Fig4aConfig{Scale: 0.05, Shards: shards}) }
	}
	one := captureTimeseries(t, 1, fig4a(1))
	if len(one) == 0 {
		t.Fatal("no timeseries bytes collected")
	}
	if !strings.Contains(string(one), `"sim.events_fired.shard.0"`) {
		t.Error("sharded export is missing the per-shard spotlight series")
	}
	two := captureTimeseries(t, 1, fig4a(2))
	four := captureTimeseries(t, 4, fig4a(4))
	if !bytes.Equal(one, two) {
		t.Error("timeseries differs between -shards 1 and -shards 2")
	}
	if !bytes.Equal(one, four) {
		t.Error("timeseries differs between -shards 2 and -shards 4 (with -parallel 4)")
	}
}

// TestTracingLeavesExportsAlone pins "tracing never perturbs results" at the
// files a run writes: fig8a with a flight recorder on every world exports the
// same wp2p.result.v1 and wp2p.timeseries.v1 bytes as without one.
func TestTracingLeavesExportsAlone(t *testing.T) {
	export := func(traced bool) (result, series []byte) {
		withTelemetry(t, telemetry.Config{})
		if traced {
			EnableTracing("", 0, io.Discard)
			defer DisableTracing()
		}
		var rb, sb bytes.Buffer
		if err := Registry(0.05)["fig8a"]().WriteJSON(&rb); err != nil {
			t.Fatal(err)
		}
		if err := WriteTimeseries(&sb); err != nil {
			t.Fatal(err)
		}
		DisableTelemetry()
		return rb.Bytes(), sb.Bytes()
	}
	plainRes, plainTS := export(false)
	tracedRes, tracedTS := export(true)
	if !bytes.Equal(plainRes, tracedRes) {
		t.Error("tracing changed the fig8a wp2p.result.v1 export")
	}
	if !bytes.Equal(plainTS, tracedTS) {
		t.Error("tracing changed the fig8a timeseries export")
	}
}

// TestTimeseriesExportParses keeps the export loadable by its own reader —
// the one `wp2p validate` and `wp2p timeline` use, with every rule of the format.
func TestTimeseriesExportParses(t *testing.T) {
	raw := captureTimeseries(t, 1, Registry(0.05)["fig2a"])
	e, err := telemetry.ReadExport(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if e.Runs == 0 || len(e.Series) == 0 {
		t.Fatalf("export is empty: runs=%d series=%d", e.Runs, len(e.Series))
	}
	// The engine's core counter must be present: every world fires events.
	found := false
	for _, s := range e.Series {
		if s.Name == "sim.events_fired" && s.Kind == telemetry.KindCounter {
			found = true
			if s.V[len(s.V)-1] == 0 {
				t.Error("sim.events_fired sampled as zero at end of run")
			}
		}
	}
	if !found {
		t.Error("export is missing the sim.events_fired counter series")
	}
}

// TestEmptyTimeseriesRoundTrips: a session that armed sampling but finished
// no world still writes a document its own reader accepts, carrying the
// configured cadence.
func TestEmptyTimeseriesRoundTrips(t *testing.T) {
	withTelemetry(t, telemetry.Config{Every: 2 * time.Second})
	var buf bytes.Buffer
	if err := WriteTimeseries(&buf); err != nil {
		t.Fatal(err)
	}
	e, err := telemetry.ReadExport(&buf)
	if err != nil {
		t.Fatalf("empty export rejected by its own reader: %v", err)
	}
	if e.EveryNS != int64(2*time.Second) || e.Runs != 0 || len(e.Series) != 0 {
		t.Fatalf("empty export = %+v", e)
	}
}

// TestBarrierProfileAggregation runs a sharded figure with profiling armed
// and checks the aggregate table renders with the expected sections.
func TestBarrierProfileAggregation(t *testing.T) {
	EnableBarrierProfile()
	t.Cleanup(DisableBarrierProfile)
	Fig4aServerMobility(Fig4aConfig{Scale: 0.05, Shards: 2})
	bp := BarrierProfileAggregate()
	if bp == nil {
		t.Fatal("no barrier profile collected from a sharded run")
	}
	if bp.Windows == 0 {
		t.Error("profile recorded zero barrier windows")
	}
	var buf bytes.Buffer
	bp.WriteTable(&buf)
	out := buf.String()
	for _, want := range []string{"barrier profile", "windows", "cross-shard events", "shard"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile table is missing %q:\n%s", want, out)
		}
	}
	// Profiling must not leak into unsharded runs.
	DisableBarrierProfile()
	EnableBarrierProfile()
	Registry(0.05)["fig2a"]()
	if BarrierProfileAggregate() != nil {
		t.Error("single-engine run produced a barrier profile")
	}
}
