package flow

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
)

// maxMin is the reference allocation by progressive filling: every stream's
// rate rises at the same speed until a pipe on its path fills, which freezes
// all streams crossing that pipe; the rest keep rising. paths[s] lists the
// pipes stream s crosses. It shares no code with the fabric's relaxation.
func maxMin(caps []float64, paths [][]int) []float64 {
	rate := make([]float64, len(paths))
	frozen := make([]bool, len(paths))
	room := append([]float64(nil), caps...)
	for left := len(paths); left > 0; {
		rising := make([]int, len(caps))
		for s, path := range paths {
			if !frozen[s] {
				for _, p := range path {
					rising[p]++
				}
			}
		}
		step := math.Inf(1)
		for p, n := range rising {
			if n > 0 {
				step = math.Min(step, room[p]/float64(n))
			}
		}
		for s := range paths {
			if !frozen[s] {
				rate[s] += step
			}
		}
		for p, n := range rising {
			room[p] -= step * float64(n)
		}
		for s, path := range paths {
			if frozen[s] {
				continue
			}
			for _, p := range path {
				if room[p] <= 1e-9*caps[p] {
					frozen[s] = true
					left--
					break
				}
			}
		}
	}
	return rate
}

// fluidWorld is a random small topology on an end-to-end fabric: hosts with
// random capacities and long-lived streams between distinct pairs.
type fluidWorld struct {
	r     *rig
	hosts []*netem.Iface
	caps  []float64 // pipe 2h is host h's up, 2h+1 its down
	pairs [][2]int
	paths [][]int
}

func newFluidWorld(t *testing.T, rnd *rand.Rand, hosts, streams int, pick func(i int) (src, dst int)) *fluidWorld {
	w := &fluidWorld{r: newRig(t, Config{EndToEnd: true}, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond})}
	w.r.fab.SetCheckEnabled(true)
	for h := 0; h < hosts; h++ {
		up, down := netem.Rate(20+rnd.Intn(980))*netem.KBps, netem.Rate(20+rnd.Intn(980))*netem.KBps
		ifc, _, _ := w.r.fluidHost(netem.AccessLinkConfig{UpRate: up, DownRate: down, Delay: time.Millisecond})
		w.hosts = append(w.hosts, ifc)
		w.caps = append(w.caps, float64(up), float64(down))
	}
	seen := map[[2]int]bool{}
	for i := 0; i < streams; i++ {
		src, dst := pick(i)
		if src == dst || seen[[2]int{src, dst}] {
			continue
		}
		seen[[2]int{src, dst}] = true
		w.pairs = append(w.pairs, [2]int{src, dst})
		w.paths = append(w.paths, []int{2 * src, 2*dst + 1})
	}
	return w
}

// open starts every stream at sim time zero with one packet far too large to
// finish, and returns the fabric's settled rates in stream order. With held
// set the arrivals are gathered as a calendar drain gathers them and one
// wave re-shares all their pipes; otherwise each arrival runs its own wave.
func (w *fluidWorld) open(held bool) []float64 {
	f := w.r.fab
	f.draining = held
	for _, p := range w.pairs {
		w.r.send(w.hosts[p[0]], w.hosts[p[1]], 1<<30)
	}
	if held {
		f.draining = false
		f.relax()
	}
	w.r.audit()
	rates := make([]float64, len(w.pairs))
	for i, p := range w.pairs {
		rates[i] = f.links[w.hosts[p[0]].IP()].to[w.hosts[p[1]].IP()].rate
	}
	return rates
}

// floor is the share no stream may fall under once every arrival has been
// re-shared: an equal split of its scarcer pipe.
func (w *fluidWorld) floor(s int) float64 {
	crossing := make([]int, len(w.caps))
	for _, path := range w.paths {
		for _, p := range path {
			crossing[p]++
		}
	}
	fl := math.Inf(1)
	for _, p := range w.paths[s] {
		fl = math.Min(fl, w.caps[p]/float64(crossing[p]))
	}
	return fl
}

// Fan-in — every stream has its uplink to itself and they share the
// receiver's downlink — is where the relaxation is exact: an arrival's own
// uplink is re-shared before the downlink it joins, so the shared pipe always
// sees every stream's true cap. The settled rates are the max-min allocation,
// to within the propagation threshold.
func TestFanInMatchesMaxMinSolver(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		hosts := 2 + rnd.Intn(7)
		w := newFluidWorld(t, rnd, hosts, hosts-1, func(i int) (int, int) { return i + 1, 0 })
		got, want := w.open(false), maxMin(w.caps, w.paths)
		for s := range got {
			if math.Abs(got[s]-want[s]) > rateEps {
				t.Fatalf("trial %d (%d hosts) stream %v: rate %.3f, max-min %.3f\ncaps %v", trial, hosts, w.pairs[s], got[s], want[s], w.caps)
			}
		}
	}
}

// On arbitrary small topologies (≤ 8 links, ≤ 24 streams) the relaxation is
// safe but not exact: a grant on one pipe is capped by the grant on the
// other, so a stream bound on both keeps the lower value when capacity frees
// up elsewhere, and rates can settle below max-min (ROADMAP item 1). What
// must hold, with a wave per arrival or with one held wave: no pipe above
// capacity and no stream under an equal split of its scarcer pipe. The
// distance to max-min is logged, and the share of topologies that do settle
// on it may not fall: 211 and 187 of 400 when this was written.
func TestRandomTopologiesAgainstMaxMinSolver(t *testing.T) {
	rnd := rand.New(rand.NewSource(6))
	for _, held := range []bool{false, true} {
		const trials = 400
		exact, worst := 0, 0.0
		for trial := 0; trial < trials; trial++ {
			hosts := 2 + rnd.Intn(7)
			w := newFluidWorld(t, rnd, hosts, 1+rnd.Intn(24), func(int) (int, int) {
				return rnd.Intn(hosts), rnd.Intn(hosts)
			})
			got, want := w.open(held), maxMin(w.caps, w.paths)
			load := make([]float64, len(w.caps))
			same := true
			for s := range got {
				if fl := w.floor(s); got[s] < fl-rateEps {
					t.Fatalf("held=%v trial %d stream %v: rate %.3f under its equal-split floor %.3f\ncaps %v pairs %v", held, trial, w.pairs[s], got[s], fl, w.caps, w.pairs)
				}
				for _, p := range w.paths[s] {
					load[p] += got[s]
				}
				if math.Abs(got[s]-want[s]) > rateEps {
					same = false
					worst = math.Max(worst, (want[s]-got[s])/want[s])
				}
			}
			for p, l := range load {
				if l > w.caps[p]*(1+1e-9)+0.5 {
					t.Fatalf("held=%v trial %d: pipe %d carries %.3f over capacity %.3f", held, trial, p, l, w.caps[p])
				}
			}
			if same {
				exact++
			}
		}
		t.Logf("held=%v: %d of %d topologies settle on max-min within %g B/s; worst stream shortfall %.0f%%", held, exact, trials, rateEps, 100*worst)
		if exact < 180 {
			t.Errorf("held=%v: only %d of %d topologies settle on max-min, want ≥ 180", held, exact, trials)
		}
	}
}
