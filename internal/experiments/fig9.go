package experiments

import (
	"time"

	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/mobility"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/stats"
	"github.com/wp2p/wp2p/internal/wp2p"
)

// Fig9abMobilityAwareFetch reproduces Figure 9(a,b): playable share versus
// downloaded share for the default rarest-first client and the wP2P client
// running Mobility-aware Fetching with p_r equal to the downloaded fraction
// (the paper's evaluation setting). MF buys an in-order prefix early —
// ≈30% playable at 50% downloaded for a 5 MB file versus ≈5% for
// rarest-first — while converging to rarest-first as the download matures.
func Fig9abMobilityAwareFetch(cfg FigPlayConfig) *Result {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:     "fig9ab",
		Title:  "Mobility-aware fetching playability (paper Fig. 9a,b)",
		XLabel: "downloaded (%)",
		YLabel: "playable (%)",
	}
	col := stats.NewCollector()
	for _, size := range cfg.FileSizes {
		defY := averagedCurves(cfg, size, func() bt.Picker { return bt.RarestFirst{} }, col)
		mfY := averagedCurves(cfg, size, func() bt.Picker { return wp2p.NewMobilityFetch(nil) }, col)
		res.AddSeries("default "+sizeLabel(size), downloadedPctAxis, defY)
		res.AddSeries("wP2P MF "+sizeLabel(size), downloadedPctAxis, mfY)
		res.Note("%s at 50%% downloaded: MF %.1f%% vs rarest %.1f%% playable (paper 5 MB: ≈30%% vs ≈5%%)",
			sizeLabel(size), mfY[4], defY[4])
	}
	res.Stats = col.Snapshot()
	return res
}

// Fig9cConfig parameterizes the role-reversal evaluation.
type Fig9cConfig struct {
	Scale   float64
	Periods []time.Duration // disruption periods (paper: 6, 4, 2 min)
	Leeches int             // fixed leeches wanting the seed's bandwidth (default 6)
	Runs    int             // averaged runs per point (paper: 10)
}

func (c Fig9cConfig) withDefaults() Fig9cConfig {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if len(c.Periods) == 0 {
		c.Periods = []time.Duration{6 * time.Minute, 4 * time.Minute, 2 * time.Minute}
	}
	if c.Leeches == 0 {
		c.Leeches = 6
	}
	if c.Runs == 0 {
		c.Runs = 3
	}
	return c
}

// Fig9cRoleReversal reproduces Figure 9(c): the upload throughput of a
// mobile seed whose address changes periodically. The default seed is
// oblivious: its connections die by timeout, and leeches only relearn its
// address at tracker-announce granularity. The wP2P seed detects the
// change (no live peers / new address) and reverses roles, immediately
// redialling its stored peers, so serving resumes at dial latency. The
// paper reports up to +50% at 2-minute disruptions.
func Fig9cRoleReversal(cfg Fig9cConfig) *Result {
	cfg = cfg.withDefaults()
	fileSize := Scaled(512*1024*1024, cfg.Scale, 48*1024*1024)
	horizon := ScaledDur(30*time.Minute, cfg.Scale, 8*time.Minute)
	res := &Result{
		ID:     "fig9c",
		Title:  "Role reversal for mobile seeds (paper Fig. 9c)",
		XLabel: "IP-change period (min)",
		YLabel: "upload throughput (KB/s)",
	}

	col := stats.NewCollector()
	run := func(period time.Duration, useRR bool, seed int64) float64 {
		w := NewWorld(seed, 2*time.Minute)
		defer w.Finish(col)
		tor := bt.NewMetaInfo("fig9c", fileSize, 256*1024)
		// One stable but slow wired seed keeps the swarm alive; the leeches'
		// own uplinks are scarce, so demand for the measured mobile seed's
		// bandwidth is sustained for the whole horizon.
		w.PopulateSwarm(tor, SwarmConfig{
			Seeds: 1, SeedCap: 20 * netem.KBps, Leeches: cfg.Leeches, Slots: 2,
		})
		mob := w.WirelessHost(netem.WirelessConfig{Rate: 400 * netem.KBps})
		var uploaded func() int64
		if useRR {
			c := wp2p.New(wp2p.Config{
				BT:             bt.Config{Transport: mob.Transport, Torrent: tor, Tracker: w.Tracker, Seed: true},
				RR:             &wp2p.RRConfig{},
				RetainIdentity: true,
			})
			mustStart(c.Start())
			uploaded = c.BT.Uploaded
		} else {
			c := bt.NewClient(bt.Config{
				Transport: mob.Transport, Torrent: tor, Tracker: w.Tracker, Seed: true,
			})
			mustStart(c.Start())
			uploaded = c.Uploaded
		}
		h := mobility.NewHandoff(w.Engine, w.Net, mob.Iface, mobility.NewIPAllocator(5000), period)
		// The default seed is oblivious, not mobility.DefaultReaction: RR
		// redials "instead of waiting to be rediscovered", so its baseline waits.
		h.Start()
		w.RunFor(horizon)
		return float64(uploaded()) / horizon.Seconds()
	}

	x := make([]float64, len(cfg.Periods))
	for i, p := range cfg.Periods {
		x[i] = p.Minutes()
	}
	defY, wpY := sweepPairs(cfg.Periods, cfg.Runs, func(_ int, p time.Duration, r int) (float64, float64) {
		seed := 1 + int64(r)*547
		return run(p, false, seed), run(p, true, seed)
	})
	inKBps(defY, wpY)
	res.AddSeries("Default P2P", x, defY)
	res.AddSeries("wP2P (RR)", x, wpY)
	if n := len(x) - 1; n >= 0 && defY[n] > 0 {
		res.Note("at %.0f-min disruptions: wP2P/default = %.2fx (paper: up to 1.5x at 2 min)", x[n], wpY[n]/defY[n])
	}
	res.Stats = col.Snapshot()
	return res
}
