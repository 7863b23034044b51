package runner

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderAndCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		got := MapWorkers(workers, 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := MapWorkers(4, 0, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("empty map returned %v", got)
	}
}

func TestMapSequentialRunsInline(t *testing.T) {
	// workers <= 1 must run on the caller's goroutine, in index order.
	var order []int
	MapWorkers(1, 5, func(i int) int {
		order = append(order, i) // safe only if inline
		return i
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order = %v", order)
		}
	}
}

func TestMapPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		p, ok := r.(*Panic)
		if !ok {
			t.Fatalf("recovered %T %v, want *Panic", r, r)
		}
		// The lowest failed index wins, deterministically.
		if p.Index != 3 {
			t.Errorf("Panic.Index = %d, want 3", p.Index)
		}
		if p.Value != "boom" {
			t.Errorf("Panic.Value = %v, want boom", p.Value)
		}
		if len(p.Stack) == 0 {
			t.Error("Panic.Stack empty")
		}
	}()
	MapWorkers(4, 10, func(i int) int {
		if i == 3 || i == 7 {
			panic("boom")
		}
		return i
	})
	t.Fatal("MapWorkers did not re-panic")
}

func TestParallelMatchesSequentialReduction(t *testing.T) {
	fn := func(r int) float64 { return 1.0 / float64(r+1) }
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	seq := Average(50, fn)
	SetWorkers(8)
	par := Average(50, fn)
	if seq != par {
		t.Fatalf("Average diverged: sequential %v vs parallel %v", seq, par)
	}
	sfn := func(r int) []float64 { return []float64{float64(r) / 3, float64(r) / 7} }
	SetWorkers(1)
	seqS := AverageSeries(40, sfn)
	SetWorkers(8)
	parS := AverageSeries(40, sfn)
	for i := range seqS {
		if seqS[i] != parS[i] {
			t.Fatalf("AverageSeries diverged at %d: %v vs %v", i, seqS, parS)
		}
	}
}

// TestAverageSeriesRoundsLikeAverage pins the one rounding rule every
// reproduced mean goes through: Σ in run order, then ÷ n, element-wise
// bit-equal between the scalar and the series reducer.
func TestAverageSeriesRoundsLikeAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		runs, width := 1+rng.Intn(12), 1+rng.Intn(8)
		data := make([][]float64, runs)
		for r := range data {
			data[r] = make([]float64, width)
			for i := range data[r] {
				// Magnitudes from bytes/s to fractions, so sums round.
				data[r][i] = rng.Float64() * math.Pow(10, float64(rng.Intn(12)-3))
			}
		}
		series := AverageSeries(runs, func(r int) []float64 { return data[r] })
		for i := 0; i < width; i++ {
			scalar := Average(runs, func(r int) float64 { return data[r][i] })
			if math.Float64bits(series[i]) != math.Float64bits(scalar) {
				t.Fatalf("trial %d, runs %d: AverageSeries[%d] = %v, Average = %v", trial, runs, i, series[i], scalar)
			}
		}
	}
}

func TestSweep(t *testing.T) {
	xs := []float64{0, 0.5, 1.5}
	ys := Sweep(xs, func(i int, x float64) float64 { return x * 2 })
	want := []float64{0, 1, 3}
	for i := range want {
		if ys[i] != want[i] {
			t.Fatalf("Sweep = %v, want %v", ys, want)
		}
	}
}

func TestStreamConsumesInOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var consumed []int
		Stream(workers, 20, func(i int) int { return i * 3 }, func(i, v int) {
			if v != i*3 {
				t.Fatalf("workers=%d: consume(%d, %d)", workers, i, v)
			}
			consumed = append(consumed, i)
		})
		if len(consumed) != 20 {
			t.Fatalf("workers=%d: consumed %d results", workers, len(consumed))
		}
		for i, v := range consumed {
			if v != i {
				t.Fatalf("workers=%d: consume order = %v", workers, consumed)
			}
		}
	}
}

func TestStreamPanicPropagates(t *testing.T) {
	var consumed atomic.Int64
	defer func() {
		if _, ok := recover().(*Panic); !ok {
			t.Fatal("Stream did not re-panic with *Panic")
		}
		// Results before the failed index were consumed; none after.
		if n := consumed.Load(); n != 5 {
			t.Errorf("consumed %d results, want 5", n)
		}
	}()
	Stream(4, 10, func(i int) int {
		if i == 5 {
			panic("boom")
		}
		return i
	}, func(i, v int) { consumed.Add(1) })
}

func TestSetWorkers(t *testing.T) {
	prev := SetWorkers(3)
	defer SetWorkers(prev)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", Workers())
	}
	if old := SetWorkers(0); old != 3 {
		t.Fatalf("SetWorkers returned %d, want 3", old)
	}
	if Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers() = %d, want GOMAXPROCS default", Workers())
	}
}

// gauge counts the bodies running at once and remembers the peak.
type gauge struct{ live, peak atomic.Int64 }

// body runs for d while counted, and returns its seed so reductions have
// something to reduce.
func (g *gauge) body(seed int, d time.Duration) float64 {
	n := g.live.Add(1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
	time.Sleep(d)
	g.live.Add(-1)
	return float64(seed)
}

// TestNestedPoolsShareOneBudget: the CLI's shape — Stream(N) over jobs that
// Sweep points that AverageSeries runs, under SetWorkers(N) — never runs more
// than N bodies at once, and does reach N, with more jobs than workers and
// with one job whose nested calls must recruit.
func TestNestedPoolsShareOneBudget(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		for _, jobs := range []int{2*n + 1, 1} {
			prev := SetWorkers(n)
			var g gauge
			consumed := 0
			Stream(n, jobs, func(j int) []float64 {
				return Sweep([]int{0, 1, 2}, func(_ int, x int) float64 {
					return AverageSeries(3, func(r int) []float64 {
						return []float64{g.body(j+x+r, time.Millisecond)}
					})[0]
				})
			}, func(i int, ys []float64) {
				if i != consumed || ys[2] != float64(i+3) {
					t.Errorf("N=%d jobs=%d: consume(%d, %v) after %d results", n, jobs, i, ys, consumed)
				}
				consumed++
			})
			SetWorkers(prev)
			slots.L.Lock()
			h := taken
			slots.L.Unlock()
			if h != 0 {
				t.Errorf("N=%d jobs=%d: %d slots still taken after the call", n, jobs, h)
			}
			if consumed != jobs {
				t.Errorf("N=%d jobs=%d: consumed %d results", n, jobs, consumed)
			}
			if p := g.peak.Load(); p != int64(n) {
				t.Errorf("N=%d jobs=%d: peak %d bodies at once, want %d", n, jobs, p, n)
			}
		}
	}
}

// TestMapWorkersOwnsItsWorkers: an explicit pool size is not capped by the
// budget, so a two-worker speedup can be timed under SetWorkers(1).
func TestMapWorkersOwnsItsWorkers(t *testing.T) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	var g gauge
	MapWorkers(2, 8, func(i int) float64 { return g.body(i, 2*time.Millisecond) })
	if p := g.peak.Load(); p != 2 {
		t.Fatalf("MapWorkers(2) under SetWorkers(1): peak %d bodies at once, want 2", p)
	}
}

// TestFreedSlotsArePickedUp: once the short job is done, whichever goroutine
// ran it — the caller, now only waiting to consume, or a helper, now gone —
// leaves its slot to the long job's sweep, which runs two points at once.
func TestFreedSlotsArePickedUp(t *testing.T) {
	prev := SetWorkers(2)
	defer SetWorkers(prev)
	for trial := 0; trial < 4; trial++ {
		var long gauge
		Stream(2, 2, func(j int) int {
			if j != trial%2 {
				time.Sleep(time.Millisecond)
				return 0
			}
			Sweep(make([]int, 12), func(i, _ int) float64 { return long.body(i, 2*time.Millisecond) })
			return 0
		}, func(int, int) {})
		if p := long.peak.Load(); p != 2 {
			t.Fatalf("trial %d: the long job ran %d points at once, want 2", trial, p)
		}
	}
}
