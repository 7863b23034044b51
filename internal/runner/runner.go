// Package runner fans independent simulation runs across one worker budget.
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
// Every helper goes through one fan-out loop, and at most Workers() runs
// execute at once in the whole process (SetWorkers, the -parallel flag of
// cmd/wp2p; default runtime.GOMAXPROCS(0)), counting the goroutine that
// called in. Map, Sweep and Average* nested in one another share that
// budget instead of multiplying it; MapWorkers and Stream own exactly the
// workers they are given.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

var (
	// workers is the budget; 0 means "use runtime.GOMAXPROCS(0)". Atomic so
	// tests and the CLI can retune it while experiments run.
	workers atomic.Int64
	// taken counts the slots held beyond the first caller's: one a helper
	// alive, less one a caller lending its slot while it waits. slots
	// guards it and is signalled when one is given back.
	taken int
	slots = sync.NewCond(new(sync.Mutex))
)

// Workers returns the current budget: how many runs may execute at once.
func Workers() int {
	if n := workers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers sets the budget for subsequent Map/Sweep/Average calls. n <= 0
// restores the GOMAXPROCS default. It returns the previous setting (0 if it
// was the default), so callers can restore it.
func SetWorkers(n int) int {
	return int(workers.Swap(int64(max(n, 0))))
}

// take takes one slot, waiting for the budget to have room when wait is
// set; it reports whether it took one.
func take(wait bool) bool {
	slots.L.Lock()
	defer slots.L.Unlock()
	for wait && taken+1 >= Workers() {
		slots.Wait()
	}
	if taken+1 >= Workers() {
		return false
	}
	taken++
	return true
}

// give adds n slots back to the budget (a negative n takes them regardless).
func give(n int) {
	slots.L.Lock()
	taken -= n
	slots.L.Unlock()
	slots.Broadcast()
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

// A fan is one call's items, shared out among its caller and helpers.
type fan[T any] struct {
	fn      func(i int) T
	out     []T
	failed  []*Panic
	next    atomic.Int64 // the next index to claim
	recruit bool         // take a helper from the budget before each item
	spawned atomic.Bool  // a helper was started, so the caller will wait
	wg      sync.WaitGroup
}

// fanOut is the one fan-out loop: it runs fn(i) once for every i in
// [0, len(out)), lands each value in out[i], and re-panics with a *Panic
// for the lowest failed index. The caller runs items itself. own >= 1
// starts own-1 helpers of the call's own, which count against the budget
// but are not refused by it; own == 0 recruits a helper before each item
// while another is left and the budget has room. after, unless nil, runs
// on the caller's goroutine after each of its items, then with wait set
// once it has none left to claim. A caller waiting for helpers lends them
// its slot, so slots freed at a sweep's tail are picked up.
func fanOut[T any](own int, out []T, fn func(i int) T, after func(wait bool)) {
	f := &fan[T]{fn: fn, out: out, failed: make([]*Panic, len(out)), recruit: own == 0}
	own = min(own, len(out))
	if own > 1 {
		give(1 - own) // all at once, before any of them recruits
	}
	for k := 1; k < own; k++ {
		f.spawn()
	}
	for f.step() {
		if after != nil {
			after(false)
		}
	}
	if f.spawned.Load() {
		give(1)
		defer take(true)
	}
	if after != nil {
		after(true)
	}
	f.wg.Wait()
	for _, p := range f.failed {
		if p != nil {
			panic(p)
		}
	}
}

// spawn starts a helper that already holds its slot; it gives the slot back
// when no item is left.
func (f *fan[T]) spawn() {
	f.spawned.Store(true)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		defer give(1)
		for f.step() {
		}
	}()
}

// step claims and runs one item; false when none is left, or when it
// panicked. Items are claimed in index order, and none after a run panics:
// every lower index is claimed by then, so the lowest failed index is the
// same at any worker count.
func (f *fan[T]) step() bool {
	n := len(f.out)
	i := int(f.next.Add(1)) - 1
	if i >= n {
		return false
	}
	if f.recruit && i+1 < n && take(false) {
		f.spawn()
	}
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 64<<10)
			f.failed[i] = &Panic{Index: i, Value: r, Stack: buf[:runtime.Stack(buf, false)]}
			f.next.Store(int64(n))
		}
	}()
	f.out[i] = f.fn(i)
	return true
}

// Map runs fn(i) for i in [0, n) on the shared budget and returns the
// results in index order. With a budget of 1 every call runs inline on the
// caller's goroutine, in index order — the sequential reference path. If a
// run panics, Map waits for the runs in flight and re-panics with a *Panic
// for the lowest failed index.
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	fanOut(0, out, fn, nil)
	return out
}

// MapWorkers is Map on exactly workers workers, the caller one of them,
// whatever the budget: workers <= 1 runs inline, in index order.
func MapWorkers[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	fanOut(max(workers, 1), out, fn, nil)
	return out
}

// Sweep maps each x-axis point to fn(i, x) on the shared budget — the
// fan-out shape of every figure's outer loop. Results land in x order.
func Sweep[X, Y any](xs []X, fn func(i int, x X) Y) []Y {
	return Map(len(xs), func(i int) Y { return fn(i, xs[i]) })
}

// Average runs fn for run indices [0, runs) on the shared budget and
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

// Stream runs fn(i) for i in [0, n) on exactly workers workers, like
// MapWorkers, and hands each result to consume(i, v) in strict index
// order — so a CLI can print experiment tables in submission order while
// later experiments are still running. consume runs on the caller's
// goroutine, between the items the caller runs and after its last.
// workers <= 1 degenerates to a sequential fn/consume loop. A panic stops
// consumption at the failed index and propagates like MapWorkers.
func Stream[T any](workers, n int, fn func(i int) T, consume func(i int, v T)) {
	vals, ok := make([]T, n), make([]bool, n)
	ready := make([]chan struct{}, n)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	next := 0 // the next index to consume
	fanOut(max(workers, 1), make([]T, n), func(i int) T {
		defer close(ready[i])
		vals[i], ok[i] = fn(i), true
		return vals[i]
	}, func(wait bool) {
		for ; next < n; next++ {
			if wait {
				<-ready[next]
			} else {
				select {
				case <-ready[next]:
				default:
					return
				}
			}
			if !ok[next] {
				next = n // the failure fanOut re-panics with
				return
			}
			consume(next, vals[next])
		}
	})
}
