package experiments

import (
	"fmt"
	"time"

	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/mobility"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/runner"
	"github.com/wp2p/wp2p/internal/stats"
)

// Fig3Config parameterizes the upload-cap sweeps of Figures 3(a) and 3(b).
type Fig3Config struct {
	// Scale shrinks file sizes and durations for quick runs (1.0 = full).
	Scale float64
	// CapFractions is the x-axis: upload limit as a fraction of the
	// physical upstream bandwidth (default 0…0.9, the paper's sweep).
	CapFractions []float64
	// LeechesPerSwarm is how many fixed leeches compete in each swarm.
	LeechesPerSwarm int
	// Runs averages several differently-seeded swarms per point.
	Runs int
}

func (c Fig3Config) withDefaults() Fig3Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if len(c.CapFractions) == 0 {
		c.CapFractions = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	}
	if c.LeechesPerSwarm == 0 {
		c.LeechesPerSwarm = 6
	}
	if c.Runs == 0 {
		c.Runs = 3
	}
	return c
}

// uploadCapAveraged averages uploadCapPoint over cfg.Runs seeds. Each run
// owns a private World, so the runs fan across the runner pool.
func uploadCapAveraged(cfg Fig3Config, wireless bool, capFrac float64, col *stats.Collector) float64 {
	return runner.Average(cfg.Runs, func(r int) float64 {
		return uploadCapPoint(cfg, 1+int64(r)*211, wireless, capFrac, col)
	})
}

// Contested-swarm parameters: seed capacity is scarce, so leech
// reciprocation (gated by tit-for-tat unchoke slots) is the main source of
// bandwidth, and the files are large enough that nothing completes within
// the horizon — the sweep measures steady-state rates.
const (
	fig3SeedCap  = 20 * netem.KBps
	fig3Slots    = 3
	fig3FileBase = 100 * 1024 * 1024
	fig3Tasks    = 5 // simultaneous downloads (paper: 5)
)

// uploadCapPoint measures the mobile host's aggregate download rate across
// fig3Tasks swarms with its upload capped at capFrac of the physical upstream.
func uploadCapPoint(cfg Fig3Config, seed int64, wireless bool, capFrac float64, col *stats.Collector) float64 {
	w := NewWorld(seed, time.Minute)
	defer w.Finish(col)
	var mob *Host
	var physUp netem.Rate
	if wireless {
		// Shared half-duplex WLAN: uploads and downloads contend.
		const wlRate = 200 * netem.KBps
		mob = w.WirelessHost(netem.WirelessConfig{Rate: wlRate})
		physUp = wlRate
	} else {
		// The paper's cable modem: 4 Mbps down / 384 Kbps up; directions
		// are independent.
		mob = w.WiredHost(netem.Kbps(384), netem.Mbps(4))
		physUp = netem.Kbps(384)
	}
	capRate := netem.Rate(capFrac * float64(physUp))
	if capRate <= 0 {
		capRate = 1 // "no uploading": starve rather than disable the cap
	}
	shared := bt.NewLimiter(w.Engine, capRate)

	fileSize := Scaled(fig3FileBase, cfg.Scale, 4*1024*1024)
	duration := ScaledDur(10*time.Minute, cfg.Scale, 2*time.Minute)

	var mine []*bt.Client
	for task := 0; task < fig3Tasks; task++ {
		tor := bt.NewMetaInfo(fmt.Sprintf("task-%d", task), fileSize, 256*1024)
		// Live-swarm stand-in: the near-free-rider half of its leeches are
		// the marginal peers a reciprocating mobile host can outbid for slots.
		w.PopulateSwarm(tor, SwarmConfig{Seeds: 1, SeedCap: fig3SeedCap, Leeches: cfg.LeechesPerSwarm, Slots: fig3Slots})
		me := bt.NewClient(bt.Config{
			Transport: mob.Transport, Torrent: tor, Tracker: w.Tracker,
			Port: uint16(6881 + task), UploadLimiter: shared, UnchokeSlots: fig3Slots,
		})
		mustStart(me.Start())
		mine = append(mine, me)
	}
	w.RunFor(duration)
	var total int64
	for _, c := range mine {
		total += c.Downloaded()
	}
	return float64(total) / duration.Seconds()
}

// Fig3aUploadCapWired reproduces Figure 3(a): on a wired access link the
// aggregate download rate of five simultaneous tasks increases with the
// upload-rate limit — tit-for-tat rewards generosity and the upstream
// never contends with the downstream.
func Fig3aUploadCapWired(cfg Fig3Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:     "fig3a",
		Title:  "Download rate vs upload cap, wired access (paper Fig. 3a)",
		XLabel: "upload cap (% of physical up-bw)",
		YLabel: "aggregate download throughput (KB/s)",
	}
	x := make([]float64, len(cfg.CapFractions))
	for i, f := range cfg.CapFractions {
		x[i] = f * 100
	}
	col := stats.NewCollector()
	y := runner.Sweep(cfg.CapFractions, func(_ int, f float64) float64 {
		return kbps(uploadCapAveraged(cfg, false, f, col))
	})
	res.AddSeries("wired", x, y)
	res.Note("expected shape: monotone-increasing (more upload buys more reciprocation)")
	res.Stats = col.Snapshot()
	return res
}

// Fig3bUploadCapWireless reproduces Figure 3(b): on a shared half-duplex
// WLAN the same sweep is unimodal — past a modest cap the mobile host's
// own uploads contend with its downloads and the aggregate rate falls.
// LIHD (Figure 8c) exists to sit at this curve's peak automatically.
func Fig3bUploadCapWireless(cfg Fig3Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:     "fig3b",
		Title:  "Download rate vs upload cap, shared WLAN (paper Fig. 3b)",
		XLabel: "upload cap (% of physical bw)",
		YLabel: "aggregate download throughput (KB/s)",
	}
	x := make([]float64, len(cfg.CapFractions))
	for i, f := range cfg.CapFractions {
		x[i] = f * 100
	}
	col := stats.NewCollector()
	y := runner.Sweep(cfg.CapFractions, func(_ int, f float64) float64 {
		return kbps(uploadCapAveraged(cfg, true, f, col))
	})
	res.AddSeries("wireless", x, y)
	peakAt, peak := 0.0, 0.0
	for i, v := range y {
		if v > peak {
			peak, peakAt = v, x[i]
		}
	}
	res.Note("peak %.0f KB/s at %.0f%% cap; expected shape: rise, peak well below 80%%, then fall", peak, peakAt)
	res.Stats = col.Snapshot()
	return res
}

// Fig3cConfig parameterizes the incentive × mobility matrix.
type Fig3cConfig struct {
	Scale float64
	Runs  int // averaged runs per configuration
}

func (c Fig3cConfig) withDefaults() Fig3cConfig {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Runs == 0 {
		c.Runs = 3
	}
	return c
}

// Fig3cIncentiveMobility reproduces Figure 3(c): downloaded size over time
// for {mobility, no mobility} × {uploading, no uploading}. Without
// mobility, uploading buys a clear tit-for-tat advantage; with mobility the
// peer-id regenerates on every task re-initiation, so accumulated credit is
// lost and the advantage of uploading all but disappears.
func Fig3cIncentiveMobility(cfg Fig3cConfig) *Result {
	cfg = cfg.withDefaults()
	const (
		handoffPeriod = 2 * time.Minute // IP change period under mobility (≈2 min)
		leeches       = 6               // fixed leeches competing for slots
	)
	horizon := ScaledDur(40*time.Minute, cfg.Scale, 6*time.Minute) // observation window (paper: 40 min)
	samplePeriod := horizon / 20                                   // progress sampling (2 min at full scale)
	fileSize := Scaled(400*1024*1024, cfg.Scale, 24*1024*1024)     // paper: 100 MB
	res := &Result{
		ID:     "fig3c",
		Title:  "Incentives under mobility (paper Fig. 3c)",
		XLabel: "time (min)",
		YLabel: "downloaded size (MB)",
	}

	col := stats.NewCollector()
	x := minuteAxis(samplePeriod, horizon)
	runOnce := func(mobile, uploading bool, rngSeed int64) (y []float64) {
		w := NewWorld(rngSeed, time.Minute)
		defer w.Finish(col)
		tor := bt.NewMetaInfo("fig3c", fileSize, 256*1024)
		// The contested swarm of Figures 3(a,b), so that tit-for-tat standing
		// actually gates the mobile's download.
		w.PopulateSwarm(tor, SwarmConfig{Seeds: 1, SeedCap: fig3SeedCap, Leeches: leeches, Slots: fig3Slots})
		mobHost := w.WirelessHost(netem.WirelessConfig{Rate: 300 * netem.KBps})
		mobCfg := bt.Config{
			Transport: mobHost.Transport, Torrent: tor, Tracker: w.Tracker, UnchokeSlots: fig3Slots,
		}
		if !uploading {
			mobCfg.UploadLimiter = bt.NewLimiter(w.Engine, 1)
		}
		me := bt.NewClient(mobCfg)
		mustStart(me.Start())

		if mobile {
			h := mobility.NewHandoff(w.Engine, w.Net, mobHost.Iface, mobility.NewIPAllocator(1000), handoffPeriod)
			mobility.DefaultReaction(w.Engine, h, me, 5*time.Second)
			h.Start()
		}
		for range x {
			w.RunFor(samplePeriod)
			y = append(y, mb(me.Downloaded()))
		}
		return y
	}

	// The four incentive × mobility cells are independent worlds too, so
	// they fan out along with their runs.
	type combo struct {
		label             string
		mobile, uploading bool
	}
	combos := []combo{
		{"no mobility, uploading", false, true},
		{"no mobility, no uploading", false, false},
		{"mobility, uploading", true, true},
		{"mobility, no uploading", true, false},
	}
	cells := runner.Sweep(combos, func(_ int, c combo) []float64 {
		return runner.AverageSeries(cfg.Runs, func(r int) []float64 {
			return runOnce(c.mobile, c.uploading, 1+int64(r)*811)
		})
	})
	for i, c := range combos {
		res.AddSeries(c.label, x, cells[i])
	}
	y, y2, y3, y4 := cells[0], cells[1], cells[2], cells[3]
	last := len(x) - 1
	if last >= 0 {
		res.Note("final MB: noMob/up=%.1f noMob/noUp=%.1f mob/up=%.1f mob/noUp=%.1f",
			y[last], y2[last], y3[last], y4[last])
		res.Note("expected: uploading helps without mobility; with mobility the gap collapses")
	}
	res.Stats = col.Snapshot()
	return res
}
