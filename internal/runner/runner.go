// Package runner fans independent simulation runs across a worker pool.
//
// Every figure in the reproduction is a sweep of fully independent,
// deterministically-seeded runs: each run builds its own private
// Engine/World/RNG, so runs can execute concurrently without sharing any
// state. The helpers here exploit that while preserving the repo's core
// invariant — results are delivered by submission index, never by
// completion order, and all floating-point reductions happen sequentially
// in index order, so a parallel execution is bit-identical to a
// sequential one.
//
// The pool size defaults to runtime.GOMAXPROCS(0) and can be overridden
// globally with SetWorkers (the -parallel flag of cmd/wp2p) or per call
// with the *Workers variants. A size of 1 runs everything inline on the
// caller's goroutine.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// workers is the process-wide default pool size; 0 means "use
// runtime.GOMAXPROCS(0)". Atomic so tests and the CLI can retune it while
// experiments run.
var workers atomic.Int64

// Workers returns the current default pool size.
func Workers() int {
	if n := workers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers sets the default pool size for subsequent Map/Sweep/Average
// calls. n <= 0 restores the GOMAXPROCS default. It returns the previous
// setting (0 if it was the default), so callers can restore it.
func SetWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(workers.Swap(int64(n)))
}

// Panic is the value re-panicked on the caller's goroutine when a run
// panics inside the pool. It preserves the original value and the
// worker's stack so the failure points at the simulation, not the pool.
type Panic struct {
	Index int    // submission index of the failed run
	Value any    // the original panic value
	Stack []byte // the worker goroutine's stack at the point of panic
}

func (p *Panic) Error() string {
	return fmt.Sprintf("runner: run %d panicked: %v\n%s", p.Index, p.Value, p.Stack)
}

// Map runs fn(i) for i in [0, n) on the default pool and returns the
// results in index order.
func Map[T any](n int, fn func(i int) T) []T {
	return MapWorkers(Workers(), n, fn)
}

// MapWorkers is Map with an explicit pool size. workers <= 1 runs every
// call inline on the caller's goroutine, in index order — the sequential
// reference path. If a run panics, MapWorkers waits for the remaining
// in-flight runs and re-panics with a *Panic for the lowest failed index.
func MapWorkers[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	if n == 0 {
		return out
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		panics = make([]*Panic, n)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				// Each index is claimed by exactly one worker, so the
				// out/panics writes are race-free.
				out[i], panics[i] = protect(i, fn)
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	return out
}

// protect executes fn(i), converting a panic into a *Panic value.
func protect[T any](i int, fn func(i int) T) (v T, p *Panic) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 64<<10)
			p = &Panic{Index: i, Value: r, Stack: buf[:runtime.Stack(buf, false)]}
		}
	}()
	v = fn(i)
	return v, nil
}

// Sweep maps each x-axis point to fn(i, x) on the default pool — the
// fan-out shape of every figure's outer loop. Results land in x order.
func Sweep[X, Y any](xs []X, fn func(i int, x X) Y) []Y {
	return Map(len(xs), func(i int) Y { return fn(i, xs[i]) })
}

// Average runs fn for run indices [0, runs) on the default pool and
// returns the mean. The sum is reduced in run order after all results are
// in, so the value is independent of completion order.
func Average(runs int, fn func(run int) float64) float64 {
	ys := Map(runs, fn)
	sum := 0.0
	for _, y := range ys {
		sum += y
	}
	return sum / float64(runs)
}

// AverageSeries is Average for runs that produce a whole series: the
// element-wise mean of fn(0..runs-1), reduced in run order. All runs must
// return series of the same length.
func AverageSeries(runs int, fn func(run int) []float64) []float64 {
	series := Map(runs, fn)
	if len(series) == 0 || len(series[0]) == 0 {
		return nil
	}
	acc := make([]float64, len(series[0]))
	for _, ys := range series {
		for i, y := range ys {
			acc[i] += y
		}
	}
	for i := range acc {
		acc[i] /= float64(runs)
	}
	return acc
}

// Stream runs fn(i) for i in [0, n) on a pool of the given size and hands
// each result to consume(i, v) in strict index order, as soon as the next
// index is ready — so a CLI can print experiment tables in submission
// order while later experiments are still running. consume runs on the
// caller's goroutine. workers <= 1 degenerates to a sequential
// fn/consume loop. Panics propagate like MapWorkers.
func Stream[T any](workers, n int, fn func(i int) T, consume func(i int, v T)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			consume(i, fn(i))
		}
		return
	}
	type slot struct {
		v   T
		err *Panic
	}
	ready := make([]chan slot, n)
	for i := range ready {
		ready[i] = make(chan slot, 1)
	}
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, p := protect(i, fn)
				ready[i] <- slot{v: v, err: p}
			}
		}()
	}
	var failed *Panic
	for i := 0; i < n; i++ {
		s := <-ready[i]
		if s.err != nil {
			if failed == nil {
				failed = s.err
			}
			continue
		}
		if failed == nil {
			consume(i, s.v)
		}
	}
	if failed != nil {
		panic(failed)
	}
}
