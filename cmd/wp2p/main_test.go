package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

const (
	repoRoot     = "../.."
	fig4aSpec    = repoRoot + "/examples/scenarios/fig4a.json"
	fig4aGolden  = repoRoot + "/internal/experiments/testdata/fig4a_scale005.digest"
	stormGolden  = repoRoot + "/internal/scenario/testdata/handoff-storm_scale005.timeseries.json"
	anExperiment = "fig2bc" // the cheapest registry experiment
)

// wp2p runs the program in-process and returns its exit status and output.
func wp2p(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// simulated reports whether any world ran: every printer ends a result with
// a "completed in" (run, scenario) or "done" (figures) line.
func simulated(stdout, stderr string) bool {
	return strings.Contains(stdout, "completed in") || strings.Contains(stderr, "done ")
}

var timingLine = regexp.MustCompile(`(?m)^\[.* completed in .*\]\n`)

func TestDigestMatchesGolden(t *testing.T) {
	digest := filepath.Join(t.TempDir(), "fig4a.digest")
	code, stdout, stderr := wp2p("run", "-scale", "0.05", "-digest", digest, "fig4a")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "[wrote digest stream "+digest+"]") {
		t.Errorf("stdout does not announce the digest file:\n%s", stdout)
	}
	got, err := os.ReadFile(digest)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(fig4aGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("run -scale 0.05 -digest fig4a differs from the golden %s", fig4aGolden)
	}
}

// TestRunMatchesScenario is the CLI-level twin of TestFig4aEquivalence: the
// declarative fig4a prints the numbers the hardcoded figure prints.
func TestRunMatchesScenario(t *testing.T) {
	rows := func(args ...string) string {
		code, stdout, stderr := wp2p(args...)
		if code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", args, code, stderr)
		}
		var keep []string
		for _, line := range strings.Split(stdout, "\n") {
			if f := strings.Fields(line); len(f) > 1 && f[0][0] >= '0' && f[0][0] <= '9' {
				keep = append(keep, strings.Join(f, " "))
			}
		}
		if len(keep) == 0 {
			t.Fatalf("%v printed no data rows:\n%s", args, stdout)
		}
		return strings.Join(keep, "\n")
	}
	hard := rows("run", "-scale", "0.05", "fig4a")
	decl := rows("scenario", "-scale", "0.05", fig4aSpec)
	if hard != decl {
		t.Errorf("data rows differ:\nrun fig4a:\n%s\nscenario fig4a.json:\n%s", hard, decl)
	}
}

func TestParallelInvariance(t *testing.T) {
	out := func(parallel string) string {
		code, stdout, stderr := wp2p("run", "-scale", "0.05", "-parallel", parallel, "-stats", "fig2bc", "fig9ab", "ext-gnutella")
		if code != 0 {
			t.Fatalf("-parallel %s: exit %d, stderr:\n%s", parallel, code, stderr)
		}
		if !timingLine.MatchString(stdout) {
			t.Fatalf("-parallel %s printed no timing line:\n%s", parallel, stdout)
		}
		return timingLine.ReplaceAllString(stdout, "")
	}
	if p1, p4 := out("1"), out("4"); p1 != p4 {
		t.Errorf("stdout differs between -parallel 1 and 4:\n--- 1\n%s\n--- 4\n%s", p1, p4)
	}
}

// TestRejectedBeforeAnyWorld pins fail-fast: a command line that cannot
// succeed exits with its documented status before anything is simulated.
func TestRejectedBeforeAnyWorld(t *testing.T) {
	dir := t.TempDir()
	// A path under a regular file can be neither created nor mkdir'd.
	blocker := filepath.Join(dir, "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(blocker, "x")
	for _, tc := range []struct {
		name string
		args []string
		code int
		msg  string // must appear on stderr
	}{
		{"no subcommand", nil, 2, "usage: wp2p"},
		{"unknown subcommand", []string{"simulate"}, 2, `unknown subcommand "simulate"`},
		{"unknown flag", []string{"run", "-transport", "net"}, 2, "not defined: -transport"},
		{"unknown experiment", []string{"run", "-scale", "0.05", anExperiment, "fig99"}, 1, `unknown experiment "fig99" (try -list)`},
		{"bad fidelity", []string{"run", "-scale", "0.05", "-fidelity", "bogus", anExperiment}, 1, `unknown -fidelity "bogus"`},
		{"bad fidelity (scenario)", []string{"scenario", "-scale", "0.05", "-fidelity", "bogus", fig4aSpec}, 1, `unknown -fidelity "bogus"`},
		{"no scenario file", []string{"scenario", "-scale", "0.05"}, 2, "usage: wp2p scenario"},
		{"missing scenario file", []string{"scenario", "-scale", "0.05", fig4aSpec, filepath.Join(dir, "none.json")}, 1, "none.json"},
		{"bad sweep", []string{"scenario", "-sweep", "nonsense", fig4aSpec}, 2, "-sweep"},
		// The loader's own rule, reached from the flag: this printed a table of zeros.
		{"negative runs", []string{"scenario", "-scale", "0.05", "-runs", "-1", fig4aSpec}, 2, "runs: must be ≥ 0, got -1"},
		{"figures with an argument", []string{"figures", "-scale", "0.05", "fig4a"}, 2, "unexpected argument"},
		{"barrierprofile without shards", []string{"run", "-scale", "0.05", "-barrierprofile", anExperiment}, 2, "-barrierprofile needs -shards"},
		{"sample-every without timeseries", []string{"run", "-scale", "0.05", "-sample-every", "1s", anExperiment}, 2, "-sample-every needs -timeseries"},
		{"digestevery is gone", []string{"scenario", "-scale", "0.05", "-digestevery", "64", fig4aSpec}, 2, "not defined: -digestevery"},
		{"tracecap without trace", []string{"run", "-scale", "0.05", "-tracecap", "16", anExperiment}, 2, "-tracecap needs -trace"},
		{"unwritable digest", []string{"run", "-scale", "0.05", "-digest", bad, anExperiment}, 1, bad},
		{"unwritable timeseries", []string{"scenario", "-scale", "0.05", "-timeseries", bad, fig4aSpec}, 1, bad},
		{"unwritable json dir", []string{"run", "-scale", "0.05", "-json", bad, anExperiment}, 1, blocker},
		{"unwritable memprofile", []string{"run", "-scale", "0.05", "-memprofile", bad, anExperiment}, 1, bad},
		{"unwritable report", []string{"figures", "-scale", "0.05", "-o", bad}, 1, bad},
		{"live takes no simulation flags", []string{"live", "-check"}, 2, "not defined: -check"},
		{"scenario -validate is gone", []string{"scenario", "-validate", fig4aSpec}, 2, "not defined: -validate"},
		{"validate takes no simulation flags", []string{"validate", "-scale", "0.05", fig4aSpec}, 2, "not defined: -scale"},
		{"validate with no file", []string{"validate"}, 2, "usage: wp2p validate"},
		{"bisect with one file", []string{"bisect", fig4aGolden}, 2, "usage: wp2p bisect"},
		{"timeline with no file", []string{"timeline", "-width", "8"}, 2, "usage: wp2p timeline"},
		// timeline-report panicked on these two (cells[0] of an empty slice, makeslice);
		// the file is missing, so exit 2 also shows that nothing was opened.
		{"timeline -width 0", []string{"timeline", "-width", "0", filepath.Join(dir, "none.json")}, 2, "-width 0"},
		{"timeline -width -1", []string{"timeline", "-width", "-1", filepath.Join(dir, "none.json")}, 2, "-width -1"},
		{"live unwritable cpuprofile", []string{"live", "-cpuprofile", bad}, 1, bad},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := wp2p(tc.args...)
			if code != tc.code {
				t.Errorf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr)
			}
			if !strings.Contains(stderr, tc.msg) {
				t.Errorf("stderr does not contain %q:\n%s", tc.msg, stderr)
			}
			if simulated(stdout, stderr) || strings.Contains(stdout, "live swarm") {
				t.Errorf("something ran before the rejection:\n%s%s", stdout, stderr)
			}
		})
	}
}

// TestFailedShardedRunReportsOnce: a run that fails before any sharded world
// exists has no barrier profile, and that is not a second error.
func TestFailedShardedRunReportsOnce(t *testing.T) {
	code, stdout, stderr := wp2p("scenario", "-scale", "0.05", "-shards", "2", "-barrierprofile", repoRoot+"/examples/scenarios/ed2k-churn.json")
	want := "wp2p scenario: ed2k-churn: scenario: -shards supports only the bt protocol (got \"ed2k\")\n"
	if code != 1 || stderr != want {
		t.Errorf("exit %d, stderr:\n%swant exit 1 and:\n%s", code, stderr, want)
	}
	if simulated(stdout, stderr) {
		t.Errorf("something ran:\n%s", stdout)
	}
}

func TestLiveSwarmWritesProfile(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	code, stdout, stderr := wp2p("live", "-scale", "0.25", "-leeches", "2", "-cpuprofile", prof)
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "all leeches complete") {
		t.Errorf("swarm did not report completion:\n%s", stdout)
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Errorf("no CPU profile written: %v, %v", fi, err)
	}
}

func TestOutputsAndObservers(t *testing.T) {
	dir := t.TempDir()
	ts, mem, jsonDir := filepath.Join(dir, "t.json"), filepath.Join(dir, "heap.prof"), filepath.Join(dir, "json")
	code, stdout, stderr := wp2p("run", "-scale", "0.05", "-shards", "2", "-barrierprofile", "-check",
		"-timeseries", ts, "-memprofile", mem, "-json", jsonDir, "-trace", "bt=*", "-tracecap", "8", "fig4a")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"barrier profile", "[wrote timeseries " + ts + "]", "[wrote " + filepath.Join(jsonDir, "fig4a.json") + "]"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	if stderr == "" {
		t.Error("-trace dumped nothing to stderr")
	}
	for _, path := range []string{ts, mem, filepath.Join(jsonDir, "fig4a.json")} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s missing or empty: %v", path, err)
		}
	}
}

// TestFiguresReport also pins the report text and every registry
// experiment's wp2p.result.v1 export to the hashes in
// testdata/figures_scale003.sha256 (sha256sum format), the standing gate for
// "no number moves unless the PR says which and why".
func TestFiguresReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 16 experiments, twice")
	}
	dir := t.TempDir()
	report := filepath.Join(dir, "report.md")
	code, stdout, stderr := wp2p("figures", "-scale", "0.03", "-parallel", "1", "-json", dir, "-o", report)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if stdout != "" {
		t.Errorf("-o left output on stdout:\n%s", stdout)
	}
	md, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(md), "\n## "); n != 16 {
		t.Errorf("report has %d sections, want 16", n)
	}
	if !strings.HasPrefix(string(md), "# Reproduced figures (scale 0.03)\n\nGenerated by `wp2p figures -scale 0.03`,") {
		t.Errorf("unexpected report header:\n%.200s", md)
	}
	// The report is a function of the command line alone: no timing, and the
	// same bytes however the runs are scheduled.
	if strings.Contains(string(md), "_runtime") {
		t.Error("report still carries a _runtime line")
	}
	code, again, stderr := wp2p("figures", "-scale", "0.03", "-parallel", "4")
	if code != 0 {
		t.Fatalf("-parallel 4: exit %d, stderr:\n%s", code, stderr)
	}
	if !bytes.Equal(md, []byte(again)) {
		t.Error("report differs between -parallel 1 -o file and -parallel 4 on stdout")
	}

	if runtime.GOARCH != "amd64" {
		t.Skip("export hashes were recorded on amd64; fused multiply-add may round differently here")
	}
	table, err := os.ReadFile("testdata/figures_scale003.sha256")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(table)), "\n")
	if len(lines) != 17 {
		t.Fatalf("hash table has %d lines, want 16 exports and report.md", len(lines))
	}
	for _, line := range lines {
		want, name, _ := strings.Cut(line, "  ")
		export, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Error(err)
			continue
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(export)); got != want {
			t.Errorf("%s: sha256 %s, recorded %s", name, got, want)
		}
	}
}

func TestScenarioValidate(t *testing.T) {
	files, err := filepath.Glob(repoRoot + "/examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no bundled scenarios: %v", err)
	}
	code, stdout, stderr := wp2p(append([]string{"validate"}, files...)...)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if n := strings.Count(stdout, ": ok — "); n != len(files) {
		t.Errorf("%d ok lines for %d files:\n%s", n, len(files), stdout)
	}
	want := fig4aSpec + ": ok — fig4a-scenario (bt, sweep ×5, 2 peer groups)\n"
	if !strings.Contains(stdout, want) {
		t.Errorf("stdout lacks %q:\n%s", want, stdout)
	}
	if simulated(stdout, stderr) {
		t.Errorf("validate ran something:\n%s", stdout)
	}
}

// TestValidateEveryFormat validates, in one invocation, one file of each
// format the program writes or runs; the first three are written here.
func TestValidateEveryFormat(t *testing.T) {
	dir := t.TempDir()
	digest, ts, result := filepath.Join(dir, "d.digest"), filepath.Join(dir, "ts.json"), filepath.Join(dir, anExperiment+".json")
	if code, _, stderr := wp2p("run", "-scale", "0.05", "-json", dir, "-digest", digest, "-timeseries", ts, anExperiment); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	code, stdout, stderr := wp2p("validate", result, ts, digest, fig4aSpec)
	want := "ok " + result + "\nok " + ts + "\nok " + digest + "\n" + fig4aSpec + ": ok — fig4a-scenario (bt, sweep ×5, 2 peer groups)\n"
	if code != 0 || stdout != want {
		t.Errorf("exit %d, stdout:\n%swant:\n%sstderr:\n%s", code, stdout, want, stderr)
	}

	// One bad file fails the invocation without hiding the others' verdicts.
	missing, unknown := filepath.Join(dir, "none.json"), filepath.Join(dir, "unknown.json")
	if err := os.WriteFile(unknown, []byte(`{"schema": "wp2p.report.v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr = wp2p("validate", missing, unknown, fig4aGolden)
	if code != 1 || stdout != "ok "+fig4aGolden+"\n" {
		t.Errorf("exit %d, stdout:\n%s", code, stdout)
	}
	for _, want := range []string{"wp2p validate: open " + missing, "wp2p validate: " + unknown + `: schema "wp2p.report.v1" is none of`} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}

	// -min-samples is the one rule that is the caller's, not the format's.
	if code, stdout, _ := wp2p("validate", "-min-samples", "36", stormGolden); code != 0 || stdout != "ok "+stormGolden+"\n" {
		t.Errorf("-min-samples 36 on a 36-sample export: exit %d, stdout:\n%s", code, stdout)
	}
	if code, _, stderr := wp2p("validate", "-min-samples", "37", stormGolden); code != 1 || !strings.Contains(stderr, "samples, want ≥ 37") {
		t.Errorf("-min-samples 37 on a 36-sample export: exit %d, stderr:\n%s", code, stderr)
	}
}

// TestValidateNamesTheBrokenResultRule breaks a fresh -json export one
// wp2p.result.v1 rule at a time; each error must name the file and the rule.
func TestValidateNamesTheBrokenResultRule(t *testing.T) {
	dir := t.TempDir()
	if code, _, stderr := wp2p("run", "-scale", "0.05", "-json", dir, anExperiment); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	raw, err := os.ReadFile(filepath.Join(dir, anExperiment+".json"))
	if err != nil {
		t.Fatal(err)
	}
	obj := func(v any) map[string]any { return v.(map[string]any) }
	first := func(v any) map[string]any { return obj(v.([]any)[0]) }
	for name, tc := range map[string]struct {
		corrupt func(doc map[string]any)
		want    string
	}{
		"schema":       {func(d map[string]any) { d["schema"] = "wp2p.result.v0" }, `schema "wp2p.result.v0" is none of`},
		"id":           {func(d map[string]any) { d["id"] = "" }, "empty id"},
		"series":       {func(d map[string]any) { d["series"] = []any{} }, "no series"},
		"x/y lengths":  {func(d map[string]any) { s := first(d["series"]); s["y"] = s["y"].([]any)[1:] }, `series "uni packets" has 20 x values but 19 y values`},
		"runs":         {func(d map[string]any) { obj(d["stats"])["runs"] = 0 }, "stats present but runs = 0"},
		"counter name": {func(d map[string]any) { first(obj(d["stats"])["counters"])["name"] = "" }, "unnamed counter"},
		"bucket count": {func(d map[string]any) {
			h := first(obj(d["stats"])["histograms"])
			h["bounds"] = h["bounds"].([]any)[1:]
		}, `histogram "tcp.cwnd_bytes" has`},
		"bucket sum": {func(d map[string]any) { first(obj(d["stats"])["histograms"])["count"] = -1 }, `histogram "tcp.cwnd_bytes" count -1 != bucket sum`},
	} {
		t.Run(name, func(t *testing.T) {
			var doc map[string]any
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(doc)
			bad, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "bad.json")
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			code, stdout, stderr := wp2p("validate", path)
			if code != 1 || stdout != "" || !strings.Contains(stderr, "wp2p validate: "+path+": ") || !strings.Contains(stderr, tc.want) {
				t.Errorf("exit %d, stdout %q, stderr %q; want exit 1 and an error mentioning %q", code, stdout, stderr, tc.want)
			}
		})
	}
}

// TestBisect: a digest against itself, against a run with one link rate
// changed, and against a file cut off mid-record.
func TestBisect(t *testing.T) {
	dir := t.TempDir()
	spec := repoRoot + "/internal/scenario/testdata/partial-shaped-links.json"
	same, other, cut := filepath.Join(dir, "a.digest"), filepath.Join(dir, "b.digest"), filepath.Join(dir, "cut.digest")
	for path, sweep := range map[string]string{same: "peers[1].link.up=60KBps", other: "peers[1].link.up=70KBps"} {
		if code, _, stderr := wp2p("scenario", "-scale", "0.25", "-digest", path, "-sweep", sweep, spec); code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, stderr)
		}
	}
	raw, err := os.ReadFile(same)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cut, raw[:len(raw)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, b      string
		code         int
		stdout, diag string // substrings
	}{
		{"identical", same, 0, "identical: 1 stream(s), digests match\n", ""},
		{"diverged", other, 1, "  divergence window: events (0, ", ""},
		{"truncated", cut, 2, "", "wp2p bisect: " + cut + ": check: line "},
		{"missing", filepath.Join(dir, "none.digest"), 2, "", "wp2p bisect: open "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := wp2p("bisect", same, tc.b)
			if code != tc.code || !strings.Contains(stdout, tc.stdout) || !strings.Contains(stderr, tc.diag) || (tc.diag != "") != (stderr != "") {
				t.Errorf("exit %d (want %d)\nstdout:\n%sstderr:\n%s", code, tc.code, stdout, stderr)
			}
			if tc.name == "diverged" && !strings.HasPrefix(stdout, `diverged: stream "seed=1"`+"\n  last match:") {
				t.Errorf("report does not open with the stream and its last match:\n%s", stdout)
			}
		})
	}
}

// TestTextReportMatchesGolden renders the checked-in handoff-storm export
// (see internal/telemetry's TestGoldenExportValidates for its provenance) and
// compares with testdata/handoff-storm.txt: one differentiated counter, one
// gauge, a histogram's rate and windowed-mean lanes, and both storm
// annotations. The HTML page of the same lanes is written, not printed.
func TestTextReportMatchesGolden(t *testing.T) {
	lanes := []string{"-metrics", "bt.pieces,mobility.,tcp.cwnd,sim.heap"}
	code, got, stderr := wp2p(append([]string{"timeline", "-width", "36"}, append(lanes, stormGolden)...)...)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	want, err := os.ReadFile("testdata/handoff-storm.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("text report changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	page := filepath.Join(t.TempDir(), "storm.html")
	code, stdout, stderr := wp2p(append([]string{"timeline", "-html", page}, append(lanes, stormGolden)...)...)
	if code != 0 || stdout != "wrote "+page+"\n" {
		t.Fatalf("exit %d, stdout %q, stderr:\n%s", code, stdout, stderr)
	}
	html, err := os.ReadFile(page)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(html), "<polyline "); n != strings.Count(string(want), "  min ") || !strings.Contains(string(html), "<title>handoff_storm mobile @ 18s</title>") {
		t.Errorf("page has %d charts for the text report's lanes, or no storm marker:\n%.400s", n, html)
	}

	if code, _, stderr := wp2p("timeline", "-metrics", "nothing.", stormGolden); code != 1 || !strings.Contains(stderr, "no series match") {
		t.Errorf("-metrics matching nothing: exit %d, stderr:\n%s", code, stderr)
	}
}

// TestSharedFlagsRegisteredOnce: each simulated subcommand's -h lists every
// shared flag exactly once, and live lists only the ones that apply to it.
func TestSharedFlagsRegisteredOnce(t *testing.T) {
	shared := []string{"scale", "parallel", "shards", "fidelity", "stats", "json", "check", "digest",
		"timeseries", "sample-every", "barrierprofile", "cpuprofile", "memprofile", "trace", "tracecap"}
	count := func(help, name string) int {
		return len(regexp.MustCompile(`(?m)^  -`+regexp.QuoteMeta(name)+`( |$)`).FindAllString(help, -1))
	}
	for _, sub := range []string{"run", "figures", "scenario"} {
		code, _, help := wp2p(sub, "-h")
		if code != 0 {
			t.Errorf("%s -h: exit %d", sub, code)
		}
		for _, name := range shared {
			if n := count(help, name); n != 1 {
				t.Errorf("%s -h lists -%s %d times", sub, name, n)
			}
		}
	}
	_, _, help := wp2p("live", "-h")
	for _, name := range shared {
		want := 0
		if name == "scale" || name == "cpuprofile" || name == "memprofile" {
			want = 1
		}
		if n := count(help, name); n != want {
			t.Errorf("live -h lists -%s %d times, want %d", name, n, want)
		}
	}
}
