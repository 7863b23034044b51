package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/wp2p/wp2p/internal/experiments"
	"github.com/wp2p/wp2p/internal/scenario"
)

// registryJobs turns experiment ids into jobs; every unknown id is a failure.
func registryJobs(s *session, ids []string) (jobs []job) {
	reg := experiments.Registry(s.scale)
	for _, id := range ids {
		if runExp, ok := reg[id]; ok {
			jobs = append(jobs, func() (*experiments.Result, error) { return runExp(), nil })
		} else {
			s.fail(1, "unknown experiment %q (try -list)", id)
		}
	}
	return jobs
}

// cmdRun runs the named registry experiments (all, when none is named).
func cmdRun(args []string, stdout, stderr io.Writer) int {
	s := newSession("run", true, 1.0, stdout, stderr)
	list := s.fs.Bool("list", false, "list experiment ids and exit")
	if !s.parse(args) {
		return s.exit
	}
	if *list {
		fmt.Fprintln(stdout, strings.Join(experiments.IDs(), "\n"))
		return 0
	}
	ids := s.fs.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	jobs := registryJobs(s, ids)
	if s.exit != 0 || !s.start() {
		return s.exit
	}
	s.stream(jobs, s.printText)
	return s.finish()
}

// cmdFigures runs every registry experiment into one Markdown report.
func cmdFigures(args []string, stdout, stderr io.Writer) int {
	s := newSession("figures", true, 0.25, stdout, stderr)
	s.fs.StringVar(&s.reportPath, "o", "", "write the report to this file instead of stdout")
	s.notes = stderr // stdout is the report
	if !s.parse(args) {
		return s.exit
	}
	if s.fs.NArg() > 0 {
		return s.fail(2, "unexpected argument %q (figures always runs every experiment; use `wp2p run` to pick)", s.fs.Arg(0))
	}
	if !s.start() {
		return s.exit
	}
	fmt.Fprintf(s.stdout, "# Reproduced figures (scale %.2f)\n\nGenerated by `wp2p figures -scale %g`, which reproduces this file byte\nfor byte at any -parallel setting.\n\n", s.scale, s.scale)
	s.stream(registryJobs(s, experiments.IDs()), func(res *experiments.Result, dur time.Duration, _ string) {
		fmt.Fprintf(s.stdout, "## %s — %s\n\n", res.ID, res.Title)
		fmt.Fprintf(s.stdout, "```\n%s```\n\n", res.Table())
		if s.stats {
			fmt.Fprintf(s.stdout, "```\n%s```\n\n", res.Stats.Table())
		}
		fmt.Fprintf(stderr, "done %s (%v)\n", res.ID, dur)
	})
	return s.finish()
}

// cmdScenario runs scenario files, each to a table like run's.
func cmdScenario(args []string, stdout, stderr io.Writer) int {
	s := newSession("scenario", true, 1.0, stdout, stderr)
	seed := s.fs.Int64("seed", 0, "override the spec's base seed (0 = use the spec's)")
	runs := s.fs.Int("runs", 0, "override the spec's averaged runs per grid cell (0 = use the spec's)")
	sweep := s.fs.String("sweep", "", "sweep an override path from the CLI: path=v1,v2,... (replaces the file's sweep)")
	s.fs.IntVar(&s.shards, "shards", 0, "shard each world across this many engine workers (bt scenarios; 0 = single engine); results are identical at any value")
	s.fs.BoolVar(&s.barrierProf, "barrierprofile", false, "print the sharded-engine barrier profile table after the runs (needs -shards ≥ 1)")
	if !s.parse(args) {
		return s.exit
	}
	if s.fs.NArg() == 0 {
		return s.fail(2, "no scenario file (usage: wp2p scenario [flags] file.json ...)")
	}
	// -seed and -runs override the file's own fields, so the loader's rules
	// judge them (-runs -1 is as wrong as "runs": -1). -sweep stays an
	// assignment after loading: `-sweep path=v` on a sampled spec is the
	// documented way to set one field, and the loader rejects a sampled
	// file that carries a sweep.
	var overrides []scenario.Override
	if *seed != 0 {
		overrides = append(overrides, scenario.Override{Path: "seed", Value: *seed})
	}
	if *runs != 0 {
		overrides = append(overrides, scenario.Override{Path: "runs", Value: *runs})
	}
	var cliSweep *scenario.SweepSpec
	if path, list, ok := strings.Cut(*sweep, "="); ok && path != "" && list != "" {
		cliSweep = &scenario.SweepSpec{Param: path, XLabel: path}
		for _, tok := range strings.Split(list, ",") {
			var v any // JSON when it parses (numbers, booleans), else the string itself (durations, rates)
			if json.Unmarshal([]byte(tok), &v) != nil {
				v = tok
			}
			cliSweep.Values = append(cliSweep.Values, v)
		}
	} else if *sweep != "" {
		return s.fail(2, "-sweep: want path=v1,v2,..., got %q", *sweep)
	}
	var jobs []job
	for _, path := range s.fs.Args() {
		spec, err := scenario.LoadFile(path)
		if err != nil {
			s.fail(1, "%v", err)
			continue
		}
		if len(overrides) > 0 {
			if spec, err = spec.Variant(overrides); err != nil {
				s.fail(2, "%s: %v", path, err)
				continue
			}
		}
		if cliSweep != nil {
			spec.Sweep = cliSweep
		}
		jobs = append(jobs, func() (*experiments.Result, error) {
			res, err := scenario.RunOpts(spec, s.scale, scenario.Options{ShardWorkers: s.shards})
			if err != nil {
				err = fmt.Errorf("%s: %w", spec.Name, err)
			}
			return res, err
		})
	}
	if s.exit != 0 || !s.start() {
		return s.exit
	}
	s.stream(jobs, s.printText)
	return s.finish()
}
