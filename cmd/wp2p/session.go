package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/wp2p/wp2p/internal/experiments"
	"github.com/wp2p/wp2p/internal/runner"
	"github.com/wp2p/wp2p/internal/telemetry"
)

// A session is what the subcommands share: the common flags, the outputs and
// profiles they name, the observers they arm in internal/experiments. A
// subcommand adds its flags to fs, parses, starts, streams its jobs, finishes.
type session struct {
	name           string // subcommand, prefixes every diagnostic
	fs             *flag.FlagSet
	stdout, stderr io.Writer
	notes          io.Writer // "[wrote …]" lines and the barrier profile: stdout, unless that is a report
	exit           int       // exit status so far: 0, or the highest failure

	scale                                            float64
	parallel, shards, digestEvery, traceCap          int
	stats, check, barrierProf                        bool
	sampleEvery                                      time.Duration
	fidelity, jsonDir, traceSpec                     string
	digestPath, tsPath, cpuPath, memPath, reportPath string // reportPath (figures -o) replaces stdout
	outputs                                          []output
}

// An output is a file that start creates, so that a bad path fails before the
// run, and finish fills; what, unless empty, names it in a "[wrote …]" note.
type output struct {
	f     *os.File
	what  string
	write func(io.Writer) error
}

// newCommand is a session with no flag yet: all that the subcommands which
// read files (validate, bisect, timeline) use of one — parse and fail.
func newCommand(name string, stdout, stderr io.Writer) *session {
	fs := flag.NewFlagSet("wp2p "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &session{name: name, fs: fs, stdout: stdout, stderr: stderr, notes: stdout}
}

// newSession registers every flag two subcommands share, here and nowhere
// else. Only sim sessions get the flags that mean nothing without a simulated
// world, so live rejects those as unknown instead of ignoring them.
func newSession(name string, sim bool, defaultScale float64, stdout, stderr io.Writer) *session {
	s := newCommand(name, stdout, stderr)
	fs := s.fs
	fs.Float64Var(&s.scale, "scale", defaultScale, "scale: 1.0 = paper- or spec-faithful sizes, smaller = faster")
	fs.StringVar(&s.cpuPath, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&s.memPath, "memprofile", "", "write a heap profile to this file on exit")
	if !sim {
		return s
	}
	fs.IntVar(&s.parallel, "parallel", runtime.GOMAXPROCS(0), "worker-pool size for concurrent runs; 1 = fully sequential")
	fs.IntVar(&s.shards, "shards", 0, "shard each world across this many engine workers (fig4a and bt scenarios; 0 = single engine); results are identical at any value")
	fs.StringVar(&s.fidelity, "fidelity", "", "wired-core transport model, \"packet\" or \"flow\" (wireless/mobile peers stay packet-level): for fig2a and fig4a, default packet; for scenarios, overrides every group's fidelity field")
	fs.BoolVar(&s.stats, "stats", false, "print each result's cross-layer stats summary")
	fs.StringVar(&s.jsonDir, "json", "", "write each result as wp2p.result.v1 JSON into this directory")
	fs.StringVar(&s.traceSpec, "trace", "", "record a flight-recorder trace per world, filtered by source=kind spec (\"*\" or empty = everything); dumped to stderr")
	fs.IntVar(&s.traceCap, "tracecap", 0, "flight-recorder ring capacity per world (0 = default 1024; needs -trace)")
	fs.BoolVar(&s.check, "check", false, "sweep runtime invariants every few thousand events; violations abort with the seed")
	fs.StringVar(&s.digestPath, "digest", "", "write a wp2p.digest.v1 determinism digest stream to this file (implies -check)")
	fs.IntVar(&s.digestEvery, "digestevery", 0, "events between digest samples (0 = default 4096; needs -digest)")
	fs.StringVar(&s.tsPath, "timeseries", "", "sample metric series over sim time and write wp2p.timeseries.v1 JSON to this file")
	fs.DurationVar(&s.sampleEvery, "sample-every", 0, "sim-time interval between telemetry samples (0 = 5s; needs -timeseries)")
	fs.BoolVar(&s.barrierProf, "barrierprofile", false, "print the sharded-engine barrier profile table after the runs (needs -shards ≥ 1)")
	return s
}

// parse is false when the subcommand should return s.exit now: 2 after a
// usage error (the FlagSet has reported it), 0 after -h.
func (s *session) parse(args []string) bool {
	err := s.fs.Parse(args)
	if err != nil && err != flag.ErrHelp {
		s.exit = 2
	}
	return err == nil
}

// fail reports a failure; status 2 = the command line cannot work, 1 = other.
func (s *session) fail(code int, format string, a ...any) int {
	fmt.Fprintf(s.stderr, "wp2p %s: %s\n", s.name, fmt.Sprintf(format, a...))
	s.exit = max(s.exit, code)
	return code
}

// isSet tells `-trace ""` (trace everything) from no -trace at all.
func (s *session) isSet(name string) bool {
	set := false
	s.fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// open creates one output file, unless path is empty or start already failed.
func (s *session) open(path, what string, write func(io.Writer) error) *os.File {
	if path == "" || s.exit != 0 {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		s.fail(1, "%v", err)
		return nil
	}
	s.outputs = append(s.outputs, output{f, what, write})
	return f
}

// start runs before any world exists: it rejects flag combinations that could
// only fail or do nothing after the run, creates every output (starting the
// CPU profile) and arms the observers. On false, return s.exit.
func (s *session) start() bool {
	if s.barrierProf && s.shards < 1 {
		s.fail(2, "-barrierprofile needs -shards ≥ 1 (the single engine has no barrier)")
	}
	for _, need := range [][2]string{{"sample-every", "timeseries"}, {"digestevery", "digest"}, {"tracecap", "trace"}} {
		if s.isSet(need[0]) && !s.isSet(need[1]) {
			s.fail(2, "-%s needs -%s", need[0], need[1])
		}
	}
	if s.fidelity != "" && s.fidelity != experiments.FidelityPacket && s.fidelity != experiments.FidelityFlow {
		s.fail(1, "unknown -fidelity %q (want %q or %q)", s.fidelity, experiments.FidelityPacket, experiments.FidelityFlow)
	}
	if s.jsonDir != "" && s.exit == 0 {
		if err := os.MkdirAll(s.jsonDir, 0o755); err != nil {
			s.fail(1, "%v", err)
		}
	}
	s.open(s.digestPath, "digest stream", experiments.WriteDigests)
	s.open(s.tsPath, "timeseries", experiments.WriteTimeseries)
	s.open(s.memPath, "", func(w io.Writer) error { runtime.GC(); return pprof.WriteHeapProfile(w) })
	if f := s.open(s.reportPath, "", func(io.Writer) error { return nil }); f != nil {
		s.stdout = f
	}
	if f := s.open(s.cpuPath, "", func(io.Writer) error { pprof.StopCPUProfile(); return nil }); f != nil {
		if err := pprof.StartCPUProfile(f); err != nil {
			s.fail(1, "%v", err)
		}
	}
	if s.exit != 0 {
		for _, o := range s.outputs {
			o.f.Close()
		}
		return false
	}
	if s.isSet("trace") {
		experiments.EnableTracing(s.traceSpec, s.traceCap, s.stderr)
	}
	if s.check {
		experiments.EnableChecking(0)
	}
	if s.digestPath != "" {
		experiments.EnableDigests(s.digestEvery)
	}
	if s.tsPath != "" {
		experiments.EnableTelemetry(telemetry.Config{Every: s.sampleEvery})
	}
	if s.barrierProf {
		experiments.EnableBarrierProfile()
	}
	runner.SetWorkers(s.parallel)
	return true
}

// A job is one simulated run. The simulated subcommands differ only in how
// they build their jobs and which printer they pass to stream.
type job = func() (*experiments.Result, error)

// stream runs the jobs on the worker pool; each returns the function that
// prints its result, called in submission order. wrote is its -json file.
func (s *session) stream(jobs []job, print func(res *experiments.Result, dur time.Duration, wrote string)) {
	runner.Stream(s.parallel, len(jobs), func(i int) func() {
		start := time.Now()
		res, err := jobs[i]()
		dur := time.Since(start).Round(time.Millisecond)
		return func() {
			if err != nil {
				s.fail(1, "%v", err)
				return
			}
			wrote := ""
			if s.jsonDir != "" {
				if wrote, err = res.ExportJSON(s.jsonDir); err != nil {
					s.fail(1, "%v", err)
				}
			}
			print(res, dur, wrote)
		}
	}, func(_ int, report func()) { report() })
}

// printText is the printer of run and scenario.
func (s *session) printText(res *experiments.Result, dur time.Duration, wrote string) {
	fmt.Fprintln(s.stdout, res.Table())
	if s.stats {
		fmt.Fprint(s.stdout, res.Stats.Table())
	}
	if wrote != "" {
		fmt.Fprintf(s.stdout, "[wrote %s]\n", wrote)
	}
	fmt.Fprintf(s.stdout, "[%s completed in %v]\n\n", res.ID, dur)
}

// finish fills the outputs, disarms what start armed (the next session in
// this process starts clean) and returns the exit status.
func (s *session) finish() int {
	for _, o := range s.outputs {
		err := o.write(o.f)
		if cerr := o.f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			s.fail(1, "%s: %v", o.f.Name(), err)
		} else if o.what != "" {
			fmt.Fprintf(s.notes, "[wrote %s %s]\n", o.what, o.f.Name())
		}
	}
	// A run that failed before building a sharded world (or an experiment
	// that has no sharded form) leaves no profile, and has said why.
	if bp := experiments.BarrierProfileAggregate(); s.barrierProf && bp != nil {
		bp.WriteTable(s.notes)
	}
	experiments.DisableTracing()
	if s.check || s.digestPath != "" { // else WP2P_CHECK may have armed it
		experiments.DisableChecking()
	}
	experiments.DisableTelemetry()
	experiments.DisableBarrierProfile()
	return s.exit
}
