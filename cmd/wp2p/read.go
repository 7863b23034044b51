package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/wp2p/wp2p/internal/check"
	"github.com/wp2p/wp2p/internal/experiments"
	"github.com/wp2p/wp2p/internal/scenario"
	"github.com/wp2p/wp2p/internal/telemetry"
)

// The subcommands in this file read what the simulated ones write. Each
// format's rules live in its package's reader; nothing here knows them.

// cmdValidate reads each file with the reader of the format it says it is.
func cmdValidate(args []string, stdout, stderr io.Writer) int {
	s := newCommand("validate", stdout, stderr)
	minSamples := s.fs.Int("min-samples", 0, "require every series of a wp2p.timeseries.v1 file to retain at least this many samples")
	if !s.parse(args) {
		return s.exit
	}
	if *minSamples < 0 {
		return s.fail(2, "-min-samples %d: want ≥ 0", *minSamples)
	}
	if s.fs.NArg() == 0 {
		return s.fail(2, "no file (usage: wp2p validate [-min-samples n] file ...)")
	}
	for _, path := range s.fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			s.fail(1, "%v", err)
		} else if ok, err := validate(path, data, *minSamples); err != nil {
			s.fail(1, "%s: %v", path, err)
		} else {
			fmt.Fprintln(stdout, ok)
		}
	}
	return s.exit
}

// validate dispatches on the schema tag every format carries — the first
// line of a digest stream, the "schema" member of the JSON ones — and
// returns the line that reports a valid file.
func validate(path string, data []byte, minSamples int) (ok string, err error) {
	ok = "ok " + path
	if bytes.HasPrefix(data, []byte(check.StreamHeader)) {
		_, err = check.ParseStreams(bytes.NewReader(data))
		return ok, err
	}
	var tag struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &tag); err != nil {
		return "", fmt.Errorf("neither a %s stream nor JSON: %w", check.StreamHeader, err)
	}
	switch tag.Schema {
	case experiments.SchemaVersion:
		_, err = experiments.ReadResult(bytes.NewReader(data))
	case telemetry.SchemaVersion:
		var e *telemetry.Export
		if e, err = telemetry.ReadExport(bytes.NewReader(data)); err == nil {
			for _, series := range e.Series {
				if len(series.V) < minSamples {
					return "", fmt.Errorf("series %q has %d samples, want ≥ %d", series.Name, len(series.V), minSamples)
				}
			}
		}
	case scenario.SchemaVersion:
		var spec *scenario.Spec
		if spec, err = scenario.Load(data); err == nil {
			mode := "single"
			if spec.Measure.Sample > 0 {
				mode = "sampled"
			} else if spec.Sweep != nil {
				mode = fmt.Sprintf("sweep ×%d", len(spec.Sweep.Values))
			}
			ok = fmt.Sprintf("%s: ok — %s (%s, %s, %d peer groups)", path, spec.Name, spec.Workload.Protocol, mode, len(spec.Peers))
		}
	default:
		err = fmt.Errorf("schema %q is none of %s, %s, %s", tag.Schema, experiments.SchemaVersion, telemetry.SchemaVersion, scenario.SchemaVersion)
	}
	return ok, err
}

// cmdBisect localizes the first diverging window of two digest files. Exit
// status 0 = digest-identical, 1 = diverged, 2 = usage or an unreadable file.
func cmdBisect(args []string, stdout, stderr io.Writer) int {
	s := newCommand("bisect", stdout, stderr)
	if !s.parse(args) {
		return s.exit
	}
	if s.fs.NArg() != 2 {
		return s.fail(2, "want two files (usage: wp2p bisect A.digest B.digest)")
	}
	var streams [2][]check.Stream
	for i, path := range s.fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return s.fail(2, "%v", err)
		}
		streams[i], err = check.ParseStreams(f)
		f.Close()
		if err != nil {
			return s.fail(2, "%s: %v", path, err)
		}
	}
	if !check.Bisect(stdout, s.fs.Arg(0), s.fs.Arg(1), streams[0], streams[1]) {
		return 1
	}
	return 0
}

// cmdTimeline renders a timeseries export: a text table of sparklines on
// stdout, or with -html a self-contained page.
func cmdTimeline(args []string, stdout, stderr io.Writer) int {
	s := newCommand("timeline", stdout, stderr)
	metrics := s.fs.String("metrics", "", "comma-separated metric-name prefixes to include (empty = all)")
	width := s.fs.Int("width", 64, "sparkline width in cells (text output)")
	htmlOut := s.fs.String("html", "", "write a self-contained HTML page to this file instead of the text table")
	if !s.parse(args) {
		return s.exit
	}
	if s.fs.NArg() != 1 {
		return s.fail(2, "want one file (usage: wp2p timeline [-metrics prefixes] [-width n] [-html out.html] file.json)")
	}
	if *width < 1 {
		return s.fail(2, "-width %d: a sparkline needs at least one cell", *width)
	}
	f, err := os.Open(s.fs.Arg(0))
	if err != nil {
		return s.fail(1, "%v", err)
	}
	e, err := telemetry.ReadExport(f)
	f.Close()
	if err != nil {
		return s.fail(1, "%s: %v", s.fs.Arg(0), err)
	}
	t := telemetry.NewTimeline(e, telemetry.ParseFilter(*metrics))
	if t.Lanes() == 0 {
		return s.fail(1, "no series match")
	}
	if *htmlOut == "" {
		t.WriteText(stdout, *width)
		return 0
	}
	out, err := os.Create(*htmlOut)
	if err != nil {
		return s.fail(1, "%v", err)
	}
	t.WriteHTML(out)
	if err := out.Close(); err != nil {
		return s.fail(1, "%v", err)
	}
	fmt.Fprintf(stdout, "wrote %s\n", *htmlOut)
	return 0
}
