// Command benchmark is the repo's one benchmark: four workloads, ten
// end-to-end metrics, per-layer counts, CPU shares and probes, and a traced
// run. See README.md in this directory for the tables and how to read the
// output.
//
// Usage:
//
//	go run ./benchmark -seed 1                     run everything, print every metric,
//	                                               write benchmark/out/{result,trace}.json
//	go run ./benchmark -compare a.json b.json      gate b against a with the fixed bounds
//	benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                               one workload, one JSON line (the driver contract)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

const (
	schemaVersion = "wp2p.benchmark.v1"
	outDir        = "benchmark/out"
	// defaultSeconds is how long the timed reps of one workload go on for,
	// set-up included (BENCHMARK.json's run_seconds).
	defaultSeconds = 28
)

// hostStamp records where the numbers came from. Results are comparable on
// the same box only; -compare refuses nothing but prints both stamps.
type hostStamp struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	OSArch     string  `json:"os_arch"`
	Load1      float64 `json:"load1"` // 1-minute load average when the run began
}

func stamp() hostStamp {
	h := hostStamp{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			h.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return h
}

// resultFile is benchmark/out/result.json — what -compare reads.
type resultFile struct {
	Schema    string             `json:"schema"`
	Host      hostStamp          `json:"host"`
	Seed      int64              `json:"seed"`
	Workloads []workloadResult   `json:"workloads"`
	Probes    map[string]float64 `json:"probes,omitempty"`
}

// traceFile is benchmark/out/trace.json.
type traceFile struct {
	Schema string     `json:"schema"`
	Spans  []span     `json:"spans"`
	Self   []selfTime `json:"self_time"`
}

func main() {
	start := time.Now()
	var (
		seed     = flag.Int64("seed", 1, "workload seed: sets spec.seed and the live group seed")
		wlName   = flag.String("workload", "", "run only this workload and print one JSON result line (driver mode)")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long the timed reps of a workload go on for, set-up included (never fewer than 3 reps)")
		trace    = flag.Int("trace", 0, "driver mode: 0 reports the end-to-end metrics, 1 the per-layer metrics from a traced run")
		compare  = flag.Bool("compare", false, "compare two result.json files (baseline, candidate) against the bounds; exit 1 beyond any")
		child    = flag.String("child", "", "internal: run one rep or the probe set in this process and print its JSON report")
		sizeFlag = flag.Int("size", int(sizeFull), "internal: workload size of a child rep")
		fidelity = flag.String("fidelity", "", "internal: force every group's transport model in a child rep")
		check    = flag.Bool("check", false, "internal: arm invariant checking in a child rep")
	)
	flag.Parse()

	switch {
	case *child == "rep":
		rep := runRep(repSpec{
			workload: *wlName, seed: *seed, size: size(*sizeFlag),
			fidelity: *fidelity, traced: *trace == 1, check: *check,
		}, start)
		exitOn(json.NewEncoder(os.Stdout).Encode(rep))
	case *child == "probes":
		exitOn(json.NewEncoder(os.Stdout).Encode(runProbes(sizeFull)))
	case *child != "":
		exitOn(fmt.Errorf("unknown -child %q", *child))
	case *compare:
		if flag.NArg() != 2 {
			exitOn(fmt.Errorf("-compare wants two result files: baseline candidate"))
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *wlName != "":
		os.Exit(driverRun(*wlName, *seed, *seconds, *trace == 1))
	default:
		os.Exit(suiteRun(*seed, *seconds))
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// run measures the given workloads — the timed reps when measure is set, the
// traced rep and the probe set when trace is — prints every metric it has,
// writes the output files and returns the result and the exit code: 1 if any
// operation failed or any rep-to-rep digest differed.
func run(ws []*workload, seed int64, seconds float64, measure, trace bool) (resultFile, int) {
	out := resultFile{Schema: schemaVersion, Host: stamp(), Seed: seed}
	tr := newTracer("")
	for _, w := range ws {
		var res workloadResult
		if measure {
			fmt.Fprintf(os.Stderr, "benchmark: %s: timed reps\n", w.name)
			res = measureWorkload(spawnRep, w, seed, sizeFull, seconds, minReps)
		}
		if trace {
			fmt.Fprintf(os.Stderr, "benchmark: %s: traced rep\n", w.name)
			tr.workload = w.name
			traceWorkload(spawnRep, w, seed, sizeFull, &res, tr)
		}
		out.Workloads = append(out.Workloads, res)
	}
	if trace {
		fmt.Fprintln(os.Stderr, "benchmark: probes")
		tr.workload = "probes"
		probes := spawnProbes(tr)
		out.Probes = probes.Metrics
		if probes.Err != "" { // the probe set is part of every traced result
			for i := range out.Workloads {
				out.Workloads[i].OpsTotal++
				out.Workloads[i].OpsFailed++
				out.Workloads[i].Notes = append(out.Workloads[i].Notes, "probes: "+probes.Err)
			}
		}
	}
	spans := tr.spans
	finishSpans(spans)

	printEndToEnd(os.Stdout, out.Workloads)
	if trace {
		printPerLayer(os.Stdout, out.Workloads, out.Probes)
		printSelfTimes(os.Stdout, selfTimes(spans))
	}
	printHost(os.Stdout, out.Host)
	writeOutputs(out, spans)

	code := 0
	for _, r := range out.Workloads {
		if !r.correct() {
			code = 1
		}
		for _, n := range r.Notes {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", r.Name, n)
		}
	}
	return out, code
}

// suiteRun is the one command: every workload measured and traced, and the
// probes.
func suiteRun(seed int64, seconds float64) int {
	all := make([]*workload, len(workloads))
	for i := range workloads {
		all[i] = &workloads[i]
	}
	_, code := run(all, seed, seconds, true, true)
	return code
}

// driverRun runs one workload, untraced or traced, and prints the driver's
// JSON object as the last line of standard output.
func driverRun(name string, seed int64, seconds float64, traced bool) int {
	w := workloadByName(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	out, code := run([]*workload{w}, seed, seconds, !traced, traced)
	data, err := json.Marshal(driverLine(out.Workloads[0], out.Probes, traced))
	exitOn(err)
	fmt.Println(string(data))
	return code
}

// driverResult is the JSON object the driver reads from the last line.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine builds the driver's result: every end-to-end metric defined on
// all workloads for an untraced run, every per-layer metric (a metric the
// workload does not exercise reads 0) for a traced one.
func driverLine(res workloadResult, probes map[string]float64, traced bool) driverResult {
	line := driverResult{
		Correct: res.correct(), Attempted: max(res.OpsTotal, 1), Failed: res.OpsFailed,
		Metrics: map[string]metricValue{},
	}
	defs := driverEndToEnd()
	if traced {
		defs = driverPerLayer()
	}
	for _, m := range defs {
		v, ok := res.EndToEnd[m.Name]
		if !ok {
			if v, ok = res.PerLayer[m.Name]; !ok {
				v = probes[m.Name]
			}
		}
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return line
}

// writeOutputs writes result.json and (when there are spans) trace.json
// under benchmark/out. A failure to write is reported, not fatal: the
// printed metrics are the result.
func writeOutputs(res resultFile, spans []span) {
	write := func(name string, v any) {
		data, err := json.MarshalIndent(v, "", "  ")
		if err == nil {
			err = os.MkdirAll(outDir, 0o755)
		}
		if err == nil {
			err = os.WriteFile(filepath.Join(outDir, name), append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: writing %s: %v\n", name, err)
		}
	}
	write("result.json", res)
	if len(spans) > 0 {
		write("trace.json", traceFile{Schema: schemaVersion, Spans: spans, Self: selfTimes(spans)})
	}
}
