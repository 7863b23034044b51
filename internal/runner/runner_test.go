package runner

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
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
