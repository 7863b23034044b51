package experiments

import (
	"time"

	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/mobility"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/runner"
	"github.com/wp2p/wp2p/internal/stats"
	"github.com/wp2p/wp2p/internal/tcp"
	"github.com/wp2p/wp2p/internal/wp2p"
)

// AblationWP2P is not a paper figure but the study its design section
// invites (the paper only evaluates components in isolation): one mobile
// leech on a lossy WLAN with periodic handoffs, measured with each wP2P
// component enabled alone and all together. Reported per variant: MB
// downloaded within the horizon and the playable share of what was fetched
// — the two quantities the user actually experiences. scale sizes the file
// and the horizon (1 = full), as Registry passes it.
func AblationWP2P(scale float64) *Result {
	const (
		handoffPeriod = 2 * time.Minute
		ber           = 5e-6
		leeches       = 10
		runs          = 3 // averaged runs per variant
	)
	fileSize := Scaled(256*1024*1024, scale, 16*1024*1024)
	horizon := ScaledDur(30*time.Minute, scale, 6*time.Minute)
	res := &Result{
		ID:     "ablation",
		Title:  "wP2P component ablation under loss + handoffs (extension)",
		XLabel: "variant (0=default 1=+AM 2=+identity 3=+MF 4=+RR 5=full)",
		YLabel: "MB downloaded / playable %",
	}

	type variant struct {
		name string
		cfg  func(base bt.Config) wp2p.Config
	}
	variants := []variant{
		{"default", func(b bt.Config) wp2p.Config { return wp2p.Config{BT: b} }},
		{"+AM", func(b bt.Config) wp2p.Config { return wp2p.Config{BT: b, AM: &wp2p.AMConfig{}} }},
		{"+identity", func(b bt.Config) wp2p.Config { return wp2p.Config{BT: b, RetainIdentity: true} }},
		{"+MF", func(b bt.Config) wp2p.Config { return wp2p.Config{BT: b, MF: &wp2p.MFConfig{}} }},
		{"+RR", func(b bt.Config) wp2p.Config { return wp2p.Config{BT: b, RR: &wp2p.RRConfig{}} }},
		{"full wP2P", func(b bt.Config) wp2p.Config {
			return wp2p.Config{
				BT: b, AM: &wp2p.AMConfig{}, MF: &wp2p.MFConfig{},
				RR: &wp2p.RRConfig{}, RetainIdentity: true,
			}
		}},
	}

	col := stats.NewCollector()
	runVariant := func(i int, v variant, r int) (dlMB, playable float64) {
		w := NewWorld(1+int64(r)*431, 90*time.Second)
		defer w.Finish(col)
		tor := bt.NewMetaInfo("ablation", fileSize, 256*1024)
		w.PopulateSwarm(tor, SwarmConfig{Seeds: 3, SeedCap: 50 * netem.KBps, Leeches: leeches, Slots: 2})

		mob := w.WirelessHost(netem.WirelessConfig{Rate: 400 * netem.KBps, BER: ber})
		base := bt.Config{Transport: mob.Transport, Torrent: tor, Tracker: w.Tracker, UnchokeSlots: 2}
		client := wp2p.New(v.cfg(base))
		mustStart(client.Start())

		h := mobility.NewHandoff(w.Engine, w.Net, mob.Iface,
			mobility.NewIPAllocator(netem.IP(5000+i*1000)), handoffPeriod)
		if client.RR() == nil {
			// Without RR someone must re-initiate the dead task, as the
			// default client's user/OS eventually does.
			mobility.DefaultReaction(w.Engine, h, &wp2pRestarter{c: client}, 15*time.Second)
		}
		h.Start()

		w.RunFor(horizon)
		have := client.BT.Have()
		if have.Count() > 0 {
			playable = 100 * playableShareOfFetched(have, tor)
		}
		return mb(client.BT.Downloaded()), playable
	}

	mbs, plays := sweepPairs(variants, runs, runVariant)
	var xs []float64
	for i, v := range variants {
		xs = append(xs, float64(i))
		res.Note("%d=%s: %.1f MB, playable %.0f%% of fetched (mean of %d runs)", i, v.name, mbs[i], plays[i], runs)
	}
	res.AddSeries("MB downloaded", xs, mbs)
	res.AddSeries("playable % of fetched", xs, plays)
	res.Stats = col.Snapshot()
	return res
}

// wp2pRestarter adapts a wp2p.Client to the mobility.Restarter interface,
// routing through OnAddressChange so identity policy is honoured.
type wp2pRestarter struct{ c *wp2p.Client }

func (r *wp2pRestarter) Restart(bool) { r.c.OnAddressChange() }

// ExtSeedLIHD implements the extension the paper names as future work in
// §4.2: when the mobile peer stays on as a seed, LIHD can throttle its
// uploads to protect the downloads of the host's *other* applications. A
// mobile host seeds a popular file while the user runs a foreground bulk
// download (a plain TCP transfer) over the same half-duplex WLAN. Three
// variants: seeding uncapped, not seeding at all, and seeding under LIHD
// driven by the foreground transfer's rate. scale is Registry's (1 = full).
func ExtSeedLIHD(scale float64) *Result {
	const rate = 150 * netem.KBps // shared channel bandwidth
	horizon := ScaledDur(15*time.Minute, scale, 5*time.Minute)
	res := &Result{
		ID:     "ext-seedlihd",
		Title:  "LIHD protecting foreground traffic while seeding (paper §4.2 future work)",
		XLabel: "variant (0=uncapped seed, 1=no seeding, 2=LIHD seed)",
		YLabel: "foreground download KB/s / P2P upload KB/s",
	}

	col := stats.NewCollector()
	run := func(seeding bool, lihd bool) (fgRate, upRate float64) {
		w := NewWorld(1, time.Minute)
		defer w.Finish(col)
		tor := bt.NewMetaInfo("shared.iso", Scaled(256*1024*1024, scale, 16*1024*1024), 256*1024)
		// Hungry leeches make upload demand on the mobile seed unbounded.
		w.PopulateSwarm(tor, SwarmConfig{Seeds: 1, SeedCap: 10 * netem.KBps, Leeches: 8, Slots: 3})

		mob := w.WirelessHost(netem.WirelessConfig{Rate: rate})

		// Foreground application: a bulk TCP download from a wired server.
		server := w.WiredHost(0, 0)
		var fgConn *tcp.Conn
		server.Stack.MustListen(8080, func(c *tcp.Conn) { fgConn = c })
		fgRx := bt.NewRateEstimator(0)
		var fgTotal int64
		dl := mob.Stack.MustDial(netem.Addr{IP: server.Iface.IP(), Port: 8080})
		dl.SetOnDeliver(func(n int) {
			fgTotal += int64(n)
			fgRx.Add(w.Engine.Now(), int64(n))
		})
		w.RunFor(2 * time.Second)
		if fgConn != nil {
			fgConn.Write(1 << 30)
		}

		var seedUp func() int64 = func() int64 { return 0 }
		if seeding {
			base := bt.Config{Transport: mob.Transport, Torrent: tor, Tracker: w.Tracker, Seed: true, UnchokeSlots: 3}
			if lihd {
				lim := bt.NewLimiter(w.Engine, rate/2)
				base.UploadLimiter = lim
				c := bt.NewClient(base)
				ctl := wp2p.NewLIHD(w.Engine, lim, wp2p.RateSourceFunc(func() float64 {
					return fgRx.Rate(w.Engine.Now())
				}), wp2p.LIHDConfig{Umax: rate, Period: 20 * time.Second})
				mustStart(c.Start())
				ctl.Start()
				seedUp = c.Uploaded
			} else {
				c := bt.NewClient(base)
				mustStart(c.Start())
				seedUp = c.Uploaded
			}
		}
		w.RunFor(horizon)
		secs := horizon.Seconds()
		return float64(fgTotal) / secs, float64(seedUp()) / secs
	}

	// The three variants are independent worlds; fan them across the pool.
	variants := [][2]bool{{true, false}, {false, false}, {true, true}}
	outs := runner.Sweep(variants, func(_ int, v [2]bool) [2]float64 {
		fg, up := run(v[0], v[1])
		return [2]float64{fg, up}
	})
	fg0, up0 := outs[0][0], outs[0][1]
	fg1 := outs[1][0]
	fg2, up2 := outs[2][0], outs[2][1]
	res.AddSeries("foreground KB/s", []float64{0, 1, 2}, []float64{kbps(fg0), kbps(fg1), kbps(fg2)})
	res.AddSeries("P2P upload KB/s", []float64{0, 1, 2}, []float64{kbps(up0), 0, kbps(up2)})
	res.Note("uncapped seeding costs the foreground %.0f%% of its no-seeding rate; LIHD recovers it to %.0f%% while still uploading %.0f KB/s",
		100*(1-fg0/fg1), 100*fg2/fg1, kbps(up2))
	res.Stats = col.Snapshot()
	return res
}
