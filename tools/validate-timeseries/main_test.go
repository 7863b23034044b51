package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// golden is a wp2p.timeseries.v1 export checked in from `wp2p scenario
// -scale 0.05 -timeseries … examples/scenarios/handoff-storm.json`; it is
// also internal/scenario's cross-commit byte-identity golden.
const golden = "../../internal/scenario/testdata/handoff-storm_scale005.timeseries.json"

func TestGoldenExportValidates(t *testing.T) {
	if err := validate(golden, 1); err != nil {
		t.Fatal(err)
	}
	// The run is 36 samples long; asking for more must name the rule.
	if err := validate(golden, 37); err == nil || !strings.Contains(err.Error(), "samples, want ≥ 37") {
		t.Fatalf("min-samples 37 on a 36-sample export: %v", err)
	}
}

// TestCorruptedExportsAreRejected edits the golden one rule at a time: the
// validator must refuse each, naming what broke.
func TestCorruptedExportsAreRejected(t *testing.T) {
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct{ old, new, want string }{
		"schema":     {`"wp2p.timeseries.v1"`, `"wp2p.timeseries.v0"`, "schema"},
		"cadence":    {`"every_ns": 5000000000`, `"every_ns": 0`, "every_ns"},
		"kind":       {`"kind": "gauge"`, `"kind": "level"`, "unknown kind"},
		"sort order": {`"name": "bt.chokes"`, `"name": "zz.chokes"`, "not sorted"},
		"annotation": {`"at_ns": 18000000000`, `"at_ns": 98000000000`, "annotations not sorted"},
	} {
		if !strings.Contains(string(raw), c.old) {
			t.Fatalf("%s: golden no longer contains %s", name, c.old)
		}
		path := filepath.Join(t.TempDir(), "bad.json")
		if err := os.WriteFile(path, []byte(strings.Replace(string(raw), c.old, c.new, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := validate(path, 0); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: validate = %v, want an error mentioning %q", name, err, c.want)
		}
	}
}
