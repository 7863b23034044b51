package experiments

import (
	"time"

	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/runner"
	"github.com/wp2p/wp2p/internal/stats"
	"github.com/wp2p/wp2p/internal/tcp"
)

// Fig2aConfig parameterizes the bi- vs uni-directional TCP comparison.
type Fig2aConfig struct {
	// Scale shrinks the default measurement window for quick runs
	// (1.0 = full). An explicit Duration wins over Scale.
	Scale    float64
	BERs     []float64     // x-axis (default: 0 … 2e-5, the paper's range)
	Duration time.Duration // measurement window per point (default 2 min)
	Runs     int           // averaged runs per point (paper: 5)
	Seed     int64
}

func (c Fig2aConfig) withDefaults() Fig2aConfig {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if len(c.BERs) == 0 {
		c.BERs = []float64{0, 5e-6, 1e-5, 1.5e-5, 2e-5}
	}
	if c.Duration == 0 {
		c.Duration = ScaledDur(2*time.Minute, c.Scale, 20*time.Second)
	}
	if c.Runs == 0 {
		c.Runs = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// fig2Rate is the wireless channel bandwidth of both Figure 2 experiments.
const fig2Rate = 100 * netem.KBps

// Fig2aBiVsUniTCP reproduces Figure 2(a): the download throughput of a
// mobile peer over a lossy wireless leg, with data flowing one way
// (uni-TCP) versus both ways on one connection (bi-TCP, the P2P mode).
// Bi-directional transfer suffers twice: uploads contend with downloads on
// the half-duplex channel, and ACKs piggybacked on large data packets are
// corrupted far more often than pure 40-byte ACKs.
func Fig2aBiVsUniTCP(cfg Fig2aConfig) *Result {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:     "fig2a",
		Title:  "Impact of bi-directional TCP under wireless losses (paper Fig. 2a)",
		XLabel: "BER",
		YLabel: "download throughput (KB/s)",
	}
	col := stats.NewCollector()
	measure := func(bidirectional bool, ber float64, run int) float64 {
		w := NewWorld(cfg.Seed+int64(run)*100+1, 0)
		defer w.Finish(col)
		fixed := w.WiredHost(0, 0)
		mobile := w.WirelessHost(netem.WirelessConfig{Rate: fig2Rate, BER: ber})
		var server *tcp.Conn
		fixed.Stack.MustListen(80, func(c *tcp.Conn) { server = c })
		client := mobile.Stack.MustDial(netem.Addr{IP: fixed.Iface.IP(), Port: 80})
		w.RunFor(3 * time.Second)
		if server == nil {
			return 0
		}
		var rcvd int64
		client.SetOnDeliver(func(n int) { rcvd += int64(n) })
		const plenty = 1 << 30
		server.Write(plenty) // fixed peer streams to the mobile
		if bidirectional {
			client.Write(plenty) // mobile streams back on the same connection
		}
		start := w.Engine.Now()
		w.RunFor(cfg.Duration)
		return float64(rcvd) / (w.Engine.Now() - start).Seconds()
	}

	biY, uniY := sweepPairs(cfg.BERs, cfg.Runs, func(_ int, ber float64, r int) (float64, float64) {
		return measure(true, ber, r), measure(false, ber, r)
	})
	inKBps(biY, uniY)
	res.AddSeries("Bi-TCP", cfg.BERs, biY)
	res.AddSeries("Uni-TCP", cfg.BERs, uniY)
	if n := len(cfg.BERs) - 1; n > 0 && biY[n] > 0 {
		res.Note("at BER %.1e uni-TCP delivers %.1fx the bi-TCP throughput", cfg.BERs[n], uniY[n]/biY[n])
	}
	res.Stats = col.Snapshot()
	return res
}

// Fig2bcConfig parameterizes the packets-on-the-wireless-leg trace.
type Fig2bcConfig struct {
	// Scale shrinks the trace length for quick runs (1.0 = full).
	Scale float64
}

// Fig2bcPacketsAfterDrop reproduces Figure 2(b,c): the number of packets in
// transit on the wireless leg around congestion (buffer-drop) events. For a
// uni-directional connection the count falls after a drop, as congestion
// control intends; for a bi-directional connection the pure DUPACKs
// injected on the reverse path offset the data-packet decrease, so the leg
// stays as loaded as before — the misbehaviour wP2P's DUPACK thinning
// corrects.
func Fig2bcPacketsAfterDrop(cfg Fig2bcConfig) *Result {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	const (
		sample   = 100 * time.Millisecond // sampling period
		queueCap = 10                     // small buffer to force congestion
	)
	duration := ScaledDur(5*time.Second, cfg.Scale, 2*time.Second) // 5 s, as in the figure
	res := &Result{
		ID:     "fig2bc",
		Title:  "Packets on the wireless leg around buffer drops (paper Fig. 2b,c)",
		XLabel: "time (s)",
		YLabel: "packets in transit / drops per interval",
	}
	col := stats.NewCollector()
	trace := func(bidirectional bool) (times, pkts, drops []float64, postDropAvg float64) {
		w := NewWorld(1, 0)
		defer w.Finish(col)
		fixed := w.WiredHost(0, 0)
		mobile := w.WirelessHost(netem.WirelessConfig{Rate: fig2Rate, QueueCap: queueCap})
		dropsNow := 0
		totalAfter, samplesAfter := 0.0, 0
		sawDrop := false
		mobile.WLAN.OnDrop(func(*netem.Packet, netem.DropReason) { dropsNow++ })

		var server *tcp.Conn
		fixed.Stack.MustListen(80, func(c *tcp.Conn) { server = c })
		client := mobile.Stack.MustDial(netem.Addr{IP: fixed.Iface.IP(), Port: 80})
		w.RunFor(2 * time.Second)
		if server == nil {
			return nil, nil, nil, 0
		}
		const plenty = 1 << 30
		server.Write(plenty)
		if bidirectional {
			client.Write(plenty)
		}
		start := w.Engine.Now()
		for w.Engine.Now()-start < duration {
			w.RunFor(sample)
			t := (w.Engine.Now() - start).Seconds()
			inFlight := float64(mobile.WLAN.InFlight())
			times = append(times, t)
			pkts = append(pkts, inFlight)
			drops = append(drops, float64(dropsNow))
			if dropsNow > 0 {
				sawDrop = true
			}
			if sawDrop {
				totalAfter += inFlight
				samplesAfter++
			}
			dropsNow = 0
		}
		if samplesAfter > 0 {
			postDropAvg = totalAfter / float64(samplesAfter)
		}
		return times, pkts, drops, postDropAvg
	}

	// The two traces are independent worlds; fan them across the pool.
	type traceOut struct {
		times, pkts, drops []float64
		postDropAvg        float64
	}
	outs := runner.Map(2, func(i int) traceOut {
		t, p, d, avg := trace(i == 1)
		return traceOut{t, p, d, avg}
	})
	tu, pu, du, uniAvg := outs[0].times, outs[0].pkts, outs[0].drops, outs[0].postDropAvg
	pb, db, biAvg := outs[1].pkts, outs[1].drops, outs[1].postDropAvg
	res.AddSeries("uni packets", tu, pu)
	res.AddSeries("uni drops", tu, du)
	res.AddSeries("bi packets", tu, pb)
	res.AddSeries("bi drops", tu, db)
	res.Note("mean packets on leg after first drop: uni=%.1f bi=%.1f (bi stays loaded)", uniAvg, biAvg)
	res.Stats = col.Snapshot()
	return res
}
