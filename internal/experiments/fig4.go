package experiments

import (
	"time"

	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/media"
	"github.com/wp2p/wp2p/internal/mobility"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/runner"
	"github.com/wp2p/wp2p/internal/stats"
)

// Fig4aConfig parameterizes the server-mobility experiment.
type Fig4aConfig struct {
	Scale   float64
	Periods []time.Duration // IP-change periods; 0 = no mobility
	Shards  int             // worker threads for the sharded engine; 0 = single-engine
	// Fidelity selects the transport model for hosts that never move:
	// FidelityPacket (default) or FidelityFlow. Seeds that will hand off
	// stay packet-level regardless — mobility requires packet fidelity.
	Fidelity string
}

func (c Fig4aConfig) withDefaults() Fig4aConfig {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if len(c.Periods) == 0 {
		c.Periods = []time.Duration{0, 2 * time.Minute, 90 * time.Second, time.Minute, 30 * time.Second}
	}
	return c
}

// Fig4aServerMobility reproduces Figure 4(a): the throughput a fixed peer
// gets when its serving peers are mobile hosts whose addresses change.
// The fixed peer keeps trying the stale addresses until TCP gives up and
// only learns new ones at tracker-announce granularity, so throughput falls
// with mobility rate, and collapses when every serving peer is mobile.
func Fig4aServerMobility(cfg Fig4aConfig) *Result {
	cfg = cfg.withDefaults()
	const seeds = 3 // mobile seeds serving the fixed peer (paper: 3)
	horizon := ScaledDur(20*time.Minute, cfg.Scale, 5*time.Minute)
	res := &Result{
		ID:     "fig4a",
		Title:  "Fixed-peer throughput vs server mobility (paper Fig. 4a)",
		XLabel: "IP-change period (min; 0 = static)",
		YLabel: "download throughput (KB/s)",
	}

	col := stats.NewCollector()
	run := func(period time.Duration, mobileSeeds int) float64 {
		w := NewWorldSharded(1, 2*time.Minute,
			netem.NetworkConfig{CloudDelay: 15 * time.Millisecond}, ShardWorkers(cfg.Shards))
		defer w.Finish(col)
		// Large enough that the fixed peer cannot finish inside the horizon;
		// the sweep measures sustained throughput.
		tor := bt.NewMetaInfo("fig4a", Scaled(1024*1024*1024, cfg.Scale, 64*1024*1024), 256*1024)
		for i := 0; i < seeds; i++ {
			mobile := i < mobileSeeds && period > 0
			var host *Host
			if cfg.Fidelity == FidelityFlow && !mobile {
				host = w.FluidHost(netem.AccessLinkConfig{UpRate: 300 * netem.KBps})
			} else {
				host = w.WiredHost(300*netem.KBps, 0)
			}
			mustStart(bt.NewClient(bt.Config{
				Transport: host.Transport, Torrent: tor, Tracker: w.Announcer(host), Seed: true,
			}).Start())
			if mobile {
				// Oblivious mobile seed: the client never notices the
				// address change; the swarm relearns it via announces.
				h := mobility.NewHandoff(host.Engine, host.Net, host.Iface,
					mobility.NewIPAllocator(netem.IP(1000+i*1000)), period)
				h.Start()
			}
		}
		var fixedHost *Host
		if cfg.Fidelity == FidelityFlow {
			fixedHost = w.FluidHost(netem.AccessLinkConfig{})
		} else {
			fixedHost = w.WiredHost(0, 0)
		}
		fixed := bt.NewClient(bt.Config{
			Transport: fixedHost.Transport, Torrent: tor, Tracker: w.Announcer(fixedHost),
		})
		mustStart(fixed.Start())
		w.RunFor(horizon)
		window := horizon
		if at := fixed.CompletedAt(); at > 0 && at < window {
			window = at
		}
		return float64(fixed.Downloaded()) / window.Seconds()
	}

	x := make([]float64, len(cfg.Periods))
	for i, p := range cfg.Periods {
		x[i] = p.Minutes()
	}
	pts := runner.Sweep(cfg.Periods, func(_ int, p time.Duration) [2]float64 {
		return [2]float64{kbps(run(p, 1)), kbps(run(p, seeds))}
	})
	one := make([]float64, len(pts))
	all := make([]float64, len(pts))
	for i, pt := range pts {
		one[i], all[i] = pt[0], pt[1]
	}
	res.AddSeries("one peer is mobile", x, one)
	res.AddSeries("all peers are mobile", x, all)
	res.Note("expected: throughput falls as the period shrinks; all-mobile falls hardest")
	res.Stats = col.Snapshot()
	return res
}

// FigPlayConfig parameterizes the playability experiments (Figures 4(b,c)
// and 9(a,b)).
type FigPlayConfig struct {
	Scale float64
	// FileSizes for the two sub-figures (paper: 5 MB and 100 MB).
	FileSizes []int64
	Runs      int // averaged runs (paper: 10 for Fig 4, 20 for Fig 9)
}

func (c FigPlayConfig) withDefaults() FigPlayConfig {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if len(c.FileSizes) == 0 {
		c.FileSizes = []int64{
			5 * 1024 * 1024,
			Scaled(100*1024*1024, c.Scale, 10*1024*1024),
		}
	}
	if c.Runs == 0 {
		c.Runs = 5
	}
	return c
}

// playabilityCurve downloads the file once with the given picker and
// returns the playable fraction observed at each 10% download level.
func playabilityCurve(seed int64, fileSize int64, picker bt.Picker, col *stats.Collector) []float64 {
	w := NewWorld(seed, time.Minute)
	defer w.Finish(col)
	tor := bt.NewMetaInfo("play", fileSize, 256*1024)
	// Two seeds so rarest-first has realistic availability spread.
	for i := 0; i < 2; i++ {
		mustStart(bt.NewClient(bt.Config{
			Transport: w.WiredHost(0, 0).Transport, Torrent: tor, Tracker: w.Tracker, Seed: true,
		}).Start())
	}
	leech := bt.NewClient(bt.Config{
		Transport: w.WirelessHost(netem.WirelessConfig{Rate: 400 * netem.KBps}).Transport,
		Torrent:   tor, Tracker: w.Tracker, Picker: picker,
	})
	curve := media.NewCurve(tor)
	leech.OnPieceComplete = func(int) { curve.Observe(leech.Have()) }
	mustStart(leech.Start())
	// Generously long: stop as soon as complete.
	deadline := w.Engine.Now() + 4*time.Hour
	for !leech.Complete() && w.Engine.Now() < deadline {
		w.RunFor(30 * time.Second)
	}
	out := make([]float64, 0, 10)
	for d := 10; d <= 100; d += 10 {
		out = append(out, 100*curve.PlayableAt(float64(d)/100))
	}
	return out
}

func averagedCurves(cfg FigPlayConfig, fileSize int64, picker func() bt.Picker, col *stats.Collector) []float64 {
	// picker() is invoked inside each run so every world owns its picker.
	return runner.AverageSeries(cfg.Runs, func(r int) []float64 {
		return playabilityCurve(1+int64(r)*101, fileSize, picker(), col)
	})
}

var downloadedPctAxis = []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}

// Fig4bcRarestPlayability reproduces Figure 4(b,c): under rarest-first
// fetching, almost nothing from the head of the file is in sequence until
// the download nears completion, so a disconnection strands the mobile user
// with unplayable content.
func Fig4bcRarestPlayability(cfg FigPlayConfig) *Result {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:     "fig4bc",
		Title:  "Playable share under rarest-first fetching (paper Fig. 4b,c)",
		XLabel: "downloaded (%)",
		YLabel: "playable (%)",
	}
	col := stats.NewCollector()
	for _, size := range cfg.FileSizes {
		y := averagedCurves(cfg, size, func() bt.Picker { return bt.RarestFirst{} }, col)
		res.AddSeries(sizeLabel(size), downloadedPctAxis, y)
		res.Note("%s: playable at 60%% downloaded = %.1f%% (paper: <10%% for 5 MB)", sizeLabel(size), y[5])
	}
	res.Stats = col.Snapshot()
	return res
}

func sizeLabel(size int64) string {
	return formatNum(float64(size)/(1024*1024)) + "MB"
}
