package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"syscall"
	"time"

	"github.com/wp2p/wp2p/internal/experiments"
	"github.com/wp2p/wp2p/internal/runner"
	"github.com/wp2p/wp2p/internal/scenario"
)

// repReport is everything one rep of a workload reports. A child process
// prints it as JSON; the parent folds several into a workloadResult.
type repReport struct {
	Workload string `json:"workload"`
	// EndToEnd holds the rep's end-to-end metrics by catalogue name (ok_frac
	// excepted: the parent derives it from the operation tallies).
	EndToEnd map[string]float64 `json:"end_to_end"`
	Ops      int                `json:"ops"`
	Failed   int                `json:"failed"`
	Digest   string             `json:"digest"`
	// Counts are the per-layer count metrics derived from the rep's stats,
	// plus the model quantities the workload itself reports.
	Counts map[string]float64 `json:"counts,omitempty"`
	// CPUShares and Spans are set on a traced rep only.
	CPUShares      map[string]float64 `json:"cpu_shares,omitempty"`
	ProfileSamples int                `json:"profile_samples,omitempty"`
	Spans          []span             `json:"spans,omitempty"`
	Notes          []string           `json:"notes,omitempty"`
	// Err is set when the rep returned an error, panicked or timed out; all
	// of its operations then count as failed.
	Err string `json:"err,omitempty"`
}

// repSpec says which rep to run.
type repSpec struct {
	workload string
	seed     int64
	size     size
	// fidelity forces every group's transport model ("" = as the spec says).
	fidelity string
	// traced turns spans and the CPU profile on.
	traced bool
	// check arms the simulator's invariant sweeps (the verify pass).
	check bool
}

// repRunner runs one rep somewhere: in a fresh child process for the
// benchmark proper, in-process for the smoke test.
type repRunner func(repSpec) repReport

// cpuAndRSS reads this process's CPU time and peak resident set.
func cpuAndRSS() (cpu time.Duration, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runRep runs one rep in this process. start is when the process (or, in a
// test, the call) began: set-up time runs from there to the first timed
// instruction.
func runRep(rs repSpec, start time.Time) repReport {
	rep := repReport{Workload: rs.workload, EndToEnd: map[string]float64{}}
	w := workloadByName(rs.workload)
	if w == nil {
		rep.Err = fmt.Sprintf("unknown workload %q", rs.workload)
		return rep
	}
	// End-to-end runs use the single-engine path: one runner worker, shards 0.
	defer runner.SetWorkers(runner.SetWorkers(1))
	if rs.check {
		experiments.EnableChecking(0)
		defer experiments.DisableChecking()
	}
	var tr *tracer
	if rs.traced {
		tr = newTracer(rs.workload)
	}

	end := tr.begin("setup")
	run, err := w.prepare(rs.seed, rs.size, rs.fidelity, tr)
	runtime.GC() // the rep starts from a collected heap, not the warm-up's garbage
	end()
	rep.EndToEnd["setup_s"] = time.Since(start).Seconds()
	if err != nil {
		rep.Err = "set-up: " + err.Error()
		return rep
	}

	var prof bytes.Buffer
	if rs.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			rep.Err = "cpu profile: " + err.Error()
			return rep
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, _ := cpuAndRSS()
	end = tr.begin("rep")
	t0 := time.Now()
	out, err := run()
	wall := time.Since(t0)
	end()
	cpu1, rss := cpuAndRSS()
	runtime.ReadMemStats(&m1)
	if rs.traced {
		pprof.StopCPUProfile()
	}

	rep.EndToEnd["wall_s"] = wall.Seconds()
	rep.EndToEnd["cpu_s"] = (cpu1 - cpu0).Seconds()
	rep.EndToEnd["allocs_per_op"] = float64(m1.Mallocs - m0.Mallocs)
	rep.EndToEnd["alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	rep.EndToEnd["peak_rss_mb"] = rss
	for k, v := range out.endToEnd { // the workload's own metrics, and its own stopwatch if it has one
		rep.EndToEnd[k] = v
	}
	rep.Ops, rep.Failed, rep.Digest, rep.Notes = out.ops, out.failed, out.digest, out.notes
	rep.Counts = layerCounts(out.stats, rep.EndToEnd["wall_s"])
	for k, v := range out.perLayer {
		rep.Counts[k] = v
	}
	if err != nil {
		rep.Err = err.Error()
		return rep
	}
	if rs.traced {
		rep.Spans = tr.spans
		rep.CPUShares, rep.ProfileSamples, err = cpuShares(prof.Bytes())
		if err != nil {
			rep.Err = err.Error()
		}
	}
	return rep
}

// childTimeout bounds one child process; a hung rep counts as failed.
const childTimeout = 150 * time.Second

// spawn runs the harness binary again with the given arguments and decodes
// the JSON it prints into v. Every rep and the probe set run this way, so
// CPU time and peak RSS are per-process and no run inherits another's heap.
func spawn(v any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if ctx.Err() != nil {
		return fmt.Errorf("child timed out after %v", childTimeout)
	}
	if err != nil {
		return fmt.Errorf("child failed: %w", err)
	}
	if err := json.Unmarshal(out, v); err != nil {
		return fmt.Errorf("child printed no report: %w", err)
	}
	return nil
}

// spawnRep is the repRunner of the benchmark proper.
func spawnRep(rs repSpec) repReport {
	var rep repReport
	err := spawn(&rep, "-child", "rep",
		"-workload", rs.workload,
		"-seed", strconv.FormatInt(rs.seed, 10),
		"-size", strconv.Itoa(int(rs.size)),
		"-fidelity", rs.fidelity,
		"-trace", strconv.Itoa(b2i(rs.traced)),
		"-check="+strconv.FormatBool(rs.check))
	if err != nil {
		return repReport{Workload: rs.workload, Err: err.Error()}
	}
	return rep
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// workloadResult is one workload's measurements: quartiles over the timed
// reps, the operation tally, and (after a traced pass) the per-layer set.
type workloadResult struct {
	Name string `json:"name"`
	Reps int    `json:"reps"`
	// EndToEnd holds each end-to-end metric defined on this workload, by
	// name, folded over the reps by typical.
	EndToEnd  map[string]float64 `json:"end_to_end"`
	OpsTotal  int                `json:"ops_total"`
	OpsFailed int                `json:"ops_failed"`
	// Digest is the reps' common result digest ("" when they disagreed).
	Digest   string             `json:"digest"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	Notes    []string           `json:"notes,omitempty"`
}

func (r *workloadResult) correct() bool { return r.OpsFailed == 0 && r.Reps > 0 }

// quantile returns the p-quantile of v, interpolated between order statistics.
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := p * float64(len(s)-1)
	lo := int(at)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(at-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// typical folds the reps' readings of one end-to-end metric into the value
// the run reports: the quartile on the metric's good side. The reps of a run
// do identical work, so what differs between them is what the shared host
// added, and that only ever makes a rep slower or bigger; the good-side
// quartile follows the program's own cost while up to three quarters of a
// run sit in a slow stretch of the host, where the median gives way at half.
func typical(v []float64, name string) float64 {
	for _, m := range endToEnd {
		if m.Name == name && m.Better == "higher" {
			return quantile(v, 0.75)
		}
	}
	return quantile(v, 0.25)
}

// minReps is the fewest timed reps a measurement reports over.
const minReps = 3

// measureWorkload is the untraced pass: timed reps, each a fresh process,
// for as long as another one fits inside `seconds` (set-up included, counted
// from this call) and never fewer than `reps`, then the verify pass. It fills
// in the seven end-to-end metrics every workload has, plus the live-only ones.
func measureWorkload(run repRunner, w *workload, seed int64, sz size, seconds float64, reps int) workloadResult {
	res := workloadResult{Name: w.name, EndToEnd: map[string]float64{}}
	var good []repReport
	nominalOps, failedReps, digestsAgree := 1, 0, true
	begin, longest := time.Now(), 0.0 // longest child so far: what one more rep is expected to cost
	for n := 0; n < reps || time.Since(begin).Seconds()+longest <= seconds; n++ {
		t0 := time.Now()
		rep := run(repSpec{workload: w.name, seed: seed, size: sz})
		longest = max(longest, time.Since(t0).Seconds())
		if rep.Err != "" {
			res.Notes = append(res.Notes, fmt.Sprintf("rep %d: %s", n, rep.Err))
			failedReps++
			if failedReps >= minReps {
				break // the workload is broken; do not spend the budget on it
			}
			continue
		}
		good = append(good, rep)
		res.Notes = append(res.Notes, rep.Notes...)
		res.OpsTotal += rep.Ops
		res.OpsFailed += rep.Failed
		if rep.Ops > nominalOps {
			nominalOps = rep.Ops
		}
		// One more operation per rep: its result digest equals the first's.
		res.OpsTotal++
		if rep.Digest != good[0].Digest {
			digestsAgree = false
			res.OpsFailed++
			res.Notes = append(res.Notes, fmt.Sprintf("rep %d: result digest %.12s differs from rep 0's %.12s", n, rep.Digest, good[0].Digest))
		}
	}
	// A rep that errored, panicked or timed out fails all of its operations.
	res.OpsTotal += failedReps * (nominalOps + 1)
	res.OpsFailed += failedReps * (nominalOps + 1)
	res.Reps = len(good)
	if len(good) == 0 {
		return res
	}
	if digestsAgree {
		res.Digest = good[0].Digest
	}

	for name := range good[0].EndToEnd {
		v := make([]float64, len(good))
		for i, r := range good {
			v[i] = r.EndToEnd[name]
		}
		res.EndToEnd[name] = typical(v, name)
	}

	// Verify: the same workload at a tenth of its size with the simulator's
	// invariant sweeps armed. Any violation panics the child.
	if w.name != wlLive && sz == sizeFull {
		res.OpsTotal++
		if v := run(repSpec{workload: w.name, seed: seed, size: sizeTenth, check: true}); v.Err != "" {
			res.OpsFailed++
			res.Notes = append(res.Notes, "verify pass: "+v.Err)
		}
	}
	res.EndToEnd["ok_frac"] = 1 - ratio(float64(res.OpsFailed), float64(res.OpsTotal))
	return res
}

// traceWorkload is the traced pass: one extra rep with spans and the CPU
// profile on, and for flashcrowd-hybrid the packet-truth reference run. It
// needs the untraced wall time to price the tracing itself; when res has no
// timed reps yet (a --trace 1 run on its own) it measures one first.
func traceWorkload(run repRunner, w *workload, seed int64, sz size, res *workloadResult, tr *tracer) {
	end := tr.begin(w.name)
	defer end()
	if res.Reps == 0 {
		endBase := tr.begin("untraced")
		*res = measureWorkload(run, w, seed, sz, 0, 1)
		endBase()
		if res.Reps == 0 {
			return
		}
	}
	res.PerLayer = map[string]float64{}

	traced := run(repSpec{workload: w.name, seed: seed, size: sz, traced: true})
	tr.adopt(traced.Spans)
	res.OpsTotal += traced.Ops + 1
	if traced.Err != "" {
		res.OpsFailed += traced.Ops + 1
		res.Notes = append(res.Notes, "traced rep: "+traced.Err)
	} else {
		res.OpsFailed += traced.Failed
		if res.Digest != "" && traced.Digest != res.Digest {
			res.OpsFailed++
			res.Notes = append(res.Notes, "traced rep: result digest differs from the timed reps'")
		}
		for k, v := range traced.Counts {
			res.PerLayer[k] = v
		}
		for _, b := range cpuBuckets {
			res.PerLayer["cpu."+b+"_frac"] = traced.CPUShares[b]
		}
		res.PerLayer["bench.trace_overhead_frac"] = ratio(traced.EndToEnd["wall_s"], res.EndToEnd["wall_s"]) - 1
	}

	endVerify := tr.begin("verify")
	defer endVerify()
	if w.name == wlHybrid && traced.Err == "" {
		// Accuracy against packet-level truth: the same spec and seed with
		// every group forced to packet fidelity, once, outside the timed reps.
		ref := run(repSpec{workload: w.name, seed: seed, size: sz, fidelity: scenario.FidelityPacket})
		res.OpsTotal++
		if ref.Err != "" {
			res.OpsFailed++
			res.Notes = append(res.Notes, "packet reference: "+ref.Err)
		} else {
			truth := ref.Counts["model.sim_completion_s"]
			res.EndToEnd["flow_err_frac"] = ratio(math.Abs(traced.Counts["model.sim_completion_s"]-truth), truth)
		}
	}
	res.EndToEnd["ok_frac"] = 1 - ratio(float64(res.OpsFailed), float64(res.OpsTotal))
}
