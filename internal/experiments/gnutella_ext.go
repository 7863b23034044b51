package experiments

import (
	"time"

	"github.com/wp2p/wp2p/internal/gnutella"
	"github.com/wp2p/wp2p/internal/mobility"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/runner"
	"github.com/wp2p/wp2p/internal/stats"
)

// ExtGnutellaServerMobility tests §3.7's claim for second-generation
// networks: of the paper's issues, server mobility applies (a single-source
// sequential download dies with its responder and must stall → re-flood →
// fail over), while the incentive and rarest-first pathologies do not exist
// — indeed the sequential fetch means a disconnected user always keeps a
// playable prefix. The sweep measures a fixed searcher's throughput as its
// mobile responders' IP-change period shrinks, the Gnutella analogue of
// Figure 4(a). scale is Registry's (1 = full).
func ExtGnutellaServerMobility(scale float64) *Result {
	const runs = 3
	periods := []time.Duration{0, 2 * time.Minute, time.Minute, 30 * time.Second} // responder IP-change periods; 0 = static
	fileSize := Scaled(64*1024*1024, scale, 8*1024*1024)
	horizon := ScaledDur(20*time.Minute, scale, 8*time.Minute)
	res := &Result{
		ID:     "ext-gnutella",
		Title:  "Gnutella: responder mobility (paper §3.7, Fig. 4a analogue)",
		XLabel: "IP-change period (min; 0 = static)",
		YLabel: "download throughput (KB/s)",
	}

	col := stats.NewCollector()
	run := func(period time.Duration, seed int64) float64 {
		w := NewWorld(seed, 0)
		defer w.Finish(col)
		mkNode := func(up netem.Rate, cfg gnutella.Config) (*gnutella.Node, *Host) {
			var h *Host
			if up == 0 {
				h = w.WiredHost(0, 0)
			} else {
				h = w.WiredHost(up, 0)
			}
			cfg.Transport = h.Transport
			n := gnutella.NewNode(cfg)
			mustStart(n.Start())
			return n, h
		}
		searcher, _ := mkNode(0, gnutella.Config{StallTimeout: 15 * time.Second})
		// Two mobile responders share the file behind modest uplinks.
		var handoffs []*mobility.Handoff
		var responders []*gnutella.Node
		for i := 0; i < 2; i++ {
			src, host := mkNode(100*netem.KBps, gnutella.Config{})
			src.Share(gnutella.Shared{Key: "video", Size: fileSize})
			responders = append(responders, src)
			if period > 0 {
				h := mobility.NewHandoff(w.Engine, w.Net, host.Iface,
					mobility.NewIPAllocator(netem.IP(8000+i*500)), period)
				handoffs = append(handoffs, h)
			}
			w.RunFor(100 * time.Millisecond)
			src.ConnectNeighbor(searcher.Addr())
		}
		w.RunFor(2 * time.Second)
		searcher.Search("video")
		for _, h := range handoffs {
			h.Start()
		}
		// Oblivious responders re-link to the overlay when their links die
		// (real Gnutella nodes re-bootstrap); the searcher still has to
		// rediscover them by re-flooding.
		elapsed := time.Duration(0)
		step := 10 * time.Second
		for elapsed < horizon && !searcher.Complete("video") {
			w.RunFor(step)
			elapsed += step
			for _, src := range responders {
				if src.Neighbors() == 0 {
					src.ConnectNeighbor(searcher.Addr())
				}
			}
		}
		window := elapsed
		if window == 0 {
			window = step
		}
		return float64(searcher.Downloaded()) / window.Seconds()
	}

	x := make([]float64, len(periods))
	for i, p := range periods {
		x[i] = p.Minutes()
	}
	y := runner.Sweep(periods, func(_ int, p time.Duration) float64 {
		return kbps(runner.Average(runs, func(r int) float64 {
			return run(p, 1+int64(r)*911)
		}))
	})
	res.AddSeries("fixed searcher", x, y)
	if len(y) > 1 && y[0] > 0 {
		res.Note("fastest churn delivers %.0f%% of the static rate — server mobility bites 2nd-gen networks too, with no identity to lose (§3.7)",
			100*y[len(y)-1]/y[0])
	}
	res.Stats = col.Snapshot()
	return res
}
