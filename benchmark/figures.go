package main

import (
	"fmt"
	"time"

	"github.com/wp2p/wp2p/internal/experiments"
	"github.com/wp2p/wp2p/internal/netem"
)

// figScale is the registry scale the figure suite runs at. The four heavy
// sweeps (fig3a, fig3b, fig8c, fig9c) sit on their size floors at this
// scale, so they are trimmed by sweep points and averaged runs instead, to
// keep one rep of all twelve figures inside the run budget.
const figScale = 0.2

// figure is one paper figure: how to run it at a size, and the shape its
// result must have (derived from internal/experiments/experiments_test.go,
// confirmed at figScale).
type figure struct {
	id     string
	run    func(sz size) *experiments.Result
	checks []shapeCheck
}

// shapeCheck is one qualitative property of a figure; each is one operation
// of figures-mobile's ok_frac.
type shapeCheck struct {
	name string
	ok   func(r *experiments.Result) bool
}

// small reports whether sz is one of the reduced sizes (verify pass, smoke
// test), where each figure runs one point and one seed.
func small(sz size) bool { return sz != sizeFull }

// y returns series i of a result, nil when missing, so a malformed result
// fails its checks instead of panicking.
func y(r *experiments.Result, i int) []float64 {
	if i >= len(r.Series) {
		return nil
	}
	return r.Series[i].Y
}

func last(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return v[len(v)-1]
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func allPositive(series ...[]float64) bool {
	for _, v := range series {
		if len(v) == 0 {
			return false
		}
		for _, x := range v {
			if x <= 0 {
				return false
			}
		}
	}
	return true
}

var figures = []figure{
	{
		id: "fig2a",
		run: func(sz size) *experiments.Result {
			if small(sz) {
				return experiments.Fig2aBiVsUniTCP(experiments.Fig2aConfig{
					BERs: []float64{0, 2e-5}, Duration: 20 * time.Second, Runs: 1,
				})
			}
			return experiments.Fig2aBiVsUniTCP(experiments.Fig2aConfig{Scale: figScale})
		},
		checks: []shapeCheck{
			{"uni beats bi on a clean half-duplex channel", func(r *experiments.Result) bool {
				bi, uni := y(r, 0), y(r, 1)
				return len(bi) > 0 && len(uni) > 0 && uni[0] > bi[0]
			}},
			{"bi stays below uni at BER 2e-5", func(r *experiments.Result) bool {
				bi, uni := y(r, 0), y(r, 1)
				return len(bi) > 0 && len(uni) > 0 && last(bi) < last(uni)
			}},
			{"loss hurts both directions", func(r *experiments.Result) bool {
				bi, uni := y(r, 0), y(r, 1)
				return len(bi) > 1 && len(uni) > 1 && last(bi) < bi[0] && last(uni) < uni[0]
			}},
		},
	},
	{
		id: "fig2bc",
		run: func(size) *experiments.Result {
			return experiments.Fig2bcPacketsAfterDrop(experiments.Fig2bcConfig{Scale: figScale})
		},
		checks: []shapeCheck{
			{"bi leg stays at least as loaded as uni", func(r *experiments.Result) bool {
				return len(r.Series) == 4 && sum(y(r, 2)) >= sum(y(r, 0))
			}},
			{"buffer drops occur in both traces", func(r *experiments.Result) bool {
				return sum(y(r, 1)) > 0 && sum(y(r, 3)) > 0
			}},
		},
	},
	{
		id: "fig3a",
		run: func(sz size) *experiments.Result {
			cfg := experiments.Fig3Config{Scale: figScale, CapFractions: []float64{0, 0.45, 0.9}}
			if small(sz) {
				cfg = experiments.Fig3Config{Scale: 0.05, Runs: 1, CapFractions: []float64{0.4}}
			}
			return experiments.Fig3aUploadCapWired(cfg)
		},
		checks: []shapeCheck{
			{"every cap downloads", func(r *experiments.Result) bool { return allPositive(y(r, 0)) }},
		},
	},
	{
		id: "fig3b",
		run: func(sz size) *experiments.Result {
			cfg := experiments.Fig3Config{Scale: figScale, CapFractions: []float64{0, 0.2, 0.5, 0.8}}
			if small(sz) {
				cfg = experiments.Fig3Config{Scale: 0.05, Runs: 1, CapFractions: []float64{0.2}}
			}
			return experiments.Fig3bUploadCapWireless(cfg)
		},
		checks: []shapeCheck{
			{"every cap downloads", func(r *experiments.Result) bool { return allPositive(y(r, 0)) }},
			{"the highest cap buys under 10% over the best lower cap (no monotone gain on shared WLAN)", func(r *experiments.Result) bool {
				v := y(r, 0)
				if len(v) < 2 {
					return false
				}
				best := 0.0
				for _, x := range v[:len(v)-1] {
					best = max(best, x)
				}
				return last(v) <= best*1.10
			}},
		},
	},
	{
		id: "fig3c",
		run: func(sz size) *experiments.Result {
			cfg := experiments.Fig3cConfig{Scale: figScale}
			if small(sz) {
				cfg = experiments.Fig3cConfig{Scale: 0.04, Runs: 1}
			}
			return experiments.Fig3cIncentiveMobility(cfg)
		},
		checks: []shapeCheck{
			{"mobility costs the uploading client progress", func(r *experiments.Result) bool {
				return len(y(r, 2)) > 0 && last(y(r, 2)) < last(y(r, 0))
			}},
			{"uploading pays without mobility", func(r *experiments.Result) bool {
				return len(y(r, 1)) > 0 && last(y(r, 0)) > last(y(r, 1))
			}},
			{"cumulative download never decreases", func(r *experiments.Result) bool {
				v := y(r, 0)
				for i := 1; i < len(v); i++ {
					if v[i] < v[i-1] {
						return false
					}
				}
				return len(v) > 0
			}},
		},
	},
	{
		id: "fig4a",
		run: func(sz size) *experiments.Result {
			cfg := experiments.Fig4aConfig{Scale: figScale, Periods: []time.Duration{0, 2 * time.Minute, time.Minute, 30 * time.Second}}
			if small(sz) {
				cfg = experiments.Fig4aConfig{Scale: 0.05, Periods: []time.Duration{0, 30 * time.Second}}
			}
			return experiments.Fig4aServerMobility(cfg)
		},
		checks: []shapeCheck{
			{"static servers beat all-mobile fast handoffs", func(r *experiments.Result) bool {
				all := y(r, 1)
				return len(all) > 1 && last(all) < all[0]
			}},
			{"all-mobile is no better than one-mobile under churn", func(r *experiments.Result) bool {
				one, all := y(r, 0), y(r, 1)
				return len(one) > 1 && len(all) > 1 && last(all) <= last(one)*1.1
			}},
		},
	},
	{
		id: "fig4bc",
		run: func(sz size) *experiments.Result {
			cfg := experiments.FigPlayConfig{Scale: figScale}
			if small(sz) {
				cfg = experiments.FigPlayConfig{Scale: 0.05, Runs: 1, FileSizes: []int64{5 * 1024 * 1024}}
			}
			return experiments.Fig4bcRarestPlayability(cfg)
		},
		checks: []shapeCheck{
			{"rarest-first leaves little playable at 60% downloaded", func(r *experiments.Result) bool {
				v := y(r, 0)
				return len(v) == 10 && v[5] <= 20
			}},
			{"a complete file is fully playable", func(r *experiments.Result) bool {
				return len(y(r, 0)) == 10 && y(r, 0)[9] == 100
			}},
			{"playable never exceeds downloaded", func(r *experiments.Result) bool {
				for i, v := range y(r, 0) {
					if v > float64((i+1)*10)+1e-9 {
						return false
					}
				}
				return len(y(r, 0)) > 0
			}},
		},
	},
	{
		id: "fig8a",
		run: func(sz size) *experiments.Result {
			cfg := experiments.Fig8aConfig{Scale: figScale}
			if small(sz) {
				cfg = experiments.Fig8aConfig{Scale: 0.04, Runs: 1, BERs: []float64{1e-5}}
			}
			return experiments.Fig8aAgeBasedManipulation(cfg)
		},
		checks: []shapeCheck{
			{"both clients download at every BER", func(r *experiments.Result) bool {
				return len(r.Series) == 2 && allPositive(y(r, 0), y(r, 1))
			}},
			{"loss lowers the default client's throughput", func(r *experiments.Result) bool {
				v := y(r, 0)
				return len(v) > 1 && last(v) < v[0]
			}},
		},
	},
	{
		id: "fig8b",
		run: func(sz size) *experiments.Result {
			cfg := experiments.Fig8bConfig{Scale: figScale}
			if small(sz) {
				cfg = experiments.Fig8bConfig{Scale: 0.06, Runs: 1}
			}
			return experiments.Fig8bIdentityRetention(cfg)
		},
		checks: []shapeCheck{
			{"identity retention does not fall behind the default client", func(r *experiments.Result) bool {
				def, wp := y(r, 0), y(r, 1)
				return len(def) > 0 && len(wp) > 0 && last(wp) >= last(def)*0.85
			}},
		},
	},
	{
		id: "fig8c",
		run: func(sz size) *experiments.Result {
			cfg := experiments.Fig8cConfig{
				Scale: figScale, Runs: 3,
				Bandwidths: []netem.Rate{50 * netem.KBps, 200 * netem.KBps},
			}
			if small(sz) {
				cfg = experiments.Fig8cConfig{Scale: 0.04, Runs: 1, Bandwidths: []netem.Rate{50 * netem.KBps}}
			}
			return experiments.Fig8cLIHD(cfg)
		},
		checks: []shapeCheck{
			{"both clients download at every bandwidth", func(r *experiments.Result) bool {
				return len(r.Series) == 2 && allPositive(y(r, 0), y(r, 1))
			}},
			{"LIHD does not lose on the scarcest channel", func(r *experiments.Result) bool {
				def, wp := y(r, 0), y(r, 1)
				return len(def) > 0 && len(wp) > 0 && wp[0] >= def[0]
			}},
		},
	},
	{
		id: "fig9ab",
		run: func(sz size) *experiments.Result {
			cfg := experiments.FigPlayConfig{Scale: figScale}
			if small(sz) {
				cfg = experiments.FigPlayConfig{Scale: 0.05, Runs: 1, FileSizes: []int64{5 * 1024 * 1024}}
			}
			return experiments.Fig9abMobilityAwareFetch(cfg)
		},
		checks: []shapeCheck{
			{"MF beats rarest-first on playable share at 50% downloaded", func(r *experiments.Result) bool {
				def, mf := y(r, 0), y(r, 1)
				return len(def) == 10 && len(mf) == 10 && mf[4] > def[4] && mf[4] >= 20
			}},
		},
	},
	{
		id: "fig9c",
		run: func(sz size) *experiments.Result {
			cfg := experiments.Fig9cConfig{Scale: figScale, Runs: 2, Periods: []time.Duration{6 * time.Minute, 2 * time.Minute}}
			if small(sz) {
				cfg = experiments.Fig9cConfig{Scale: 0.05, Runs: 1, Periods: []time.Duration{2 * time.Minute}}
			}
			return experiments.Fig9cRoleReversal(cfg)
		},
		checks: []shapeCheck{
			{"role reversal serves at least as much as the default seed", func(r *experiments.Result) bool {
				def, wp := y(r, 0), y(r, 1)
				return len(def) > 0 && len(wp) > 0 && last(wp) >= last(def)
			}},
		},
	},
}

// warmFigures are the cheap figures the set-up runs once at full size, so
// first-use costs on the WLAN, loss-recovery and piece-picking paths are paid
// before the stopwatch.
var warmFigures = []string{"fig2bc", "fig2a", "fig4bc", "fig9ab"}

// figuresPrepare is the figures-mobile workload. The figure runners take no
// seed, so neither does the workload.
func figuresPrepare(_ int64, sz size, _ string, tr *tracer) (func() (outcome, error), error) {
	for _, f := range figures {
		for _, id := range warmFigures {
			if f.id == id {
				f.run(sz)
			}
		}
	}
	return func() (outcome, error) {
		var o outcome
		results := make([]*experiments.Result, 0, len(figures))
		for _, f := range figures {
			end := tr.begin(f.id)
			res := f.run(sz)
			end()
			results = append(results, res)
			o.stats = append(o.stats, res.Stats)
			if small(sz) {
				continue // the shapes are pinned at full size only
			}
			for _, c := range f.checks {
				o.ops++
				if !c.ok(res) {
					o.failed++
					o.notes = append(o.notes, fmt.Sprintf("%s: shape check failed: %s", f.id, c.name))
				}
			}
		}
		if small(sz) {
			o.ops = len(figures) // each figure running to completion is the operation
		}
		var err error
		o.digest, err = resultDigest(results...)
		return o, err
	}, nil
}
