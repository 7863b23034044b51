package experiments

import (
	"time"

	"github.com/wp2p/wp2p/internal/ed2k"
	"github.com/wp2p/wp2p/internal/mobility"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/runner"
	"github.com/wp2p/wp2p/internal/stats"
)

// ExtEd2kIdentity tests the paper's §3.7 claim that the mobility/identity
// findings transfer to eDonkey, "the other third-generation P2P network".
// eDonkey's incentives are *more* identity-bound than BitTorrent's: service
// order is waiting-time × credit, both keyed by the persistent client hash,
// and a reconnecting hash resumes its queue seniority. A mobile host that
// regenerates its hash on every handoff therefore restarts from the back of
// every queue with no credit — the double penalty this experiment measures
// against a hash-retaining client. scale is Registry's (1 = full).
func ExtEd2kIdentity(scale float64) *Result {
	const (
		handoffPeriod = 2 * time.Minute
		competitors   = 6 // fixed leeches contending for queue slots
		runs          = 3
		// wpNotice is how soon the hash-retaining client notices a move:
		// one check of wP2P's RR watchdog (RRConfig.CheckInterval).
		wpNotice = 2 * time.Second
	)
	fileSize := Scaled(256*1024*1024, scale, 16*1024*1024)
	horizon := ScaledDur(40*time.Minute, scale, 10*time.Minute)
	res := &Result{
		ID:     "ext-ed2k",
		Title:  "eDonkey: identity loss under mobility (paper §3.7)",
		XLabel: "time (min)",
		YLabel: "downloaded size (MB)",
	}

	col := stats.NewCollector()
	sample := horizon / 20
	x := minuteAxis(sample, horizon)
	run := func(retainHash bool, seed int64) (y []float64) {
		w := NewWorld(seed, 0)
		defer w.Finish(col)
		file := &ed2k.File{ID: "fedora.iso", Size: fileSize, ChunkLen: 256 * 1024}
		server := ed2k.NewServer(w.Engine)

		mk := func(c ed2k.Config) *ed2k.Client {
			if c.Transport == nil {
				// Scarce uplinks (cable-modem class) make upload queues the
				// binding resource, as in real eDonkey swarms.
				c.Transport = w.WiredHost(netem.Kbps(384), 0).Transport
			}
			c.Server = server
			c.File = file
			c.QueryInterval = time.Minute
			return ed2k.NewClient(c)
		}
		// Scarce sources, long queues: two seeds with one upload slot each
		// plus partially-complete competitors keep every queue contested.
		for i := 0; i < 2; i++ {
			mustStart(mk(ed2k.Config{Seed: true, UploadSlots: 1}).Start())
		}
		for i := 0; i < competitors; i++ {
			chunks := make([]bool, file.NumChunks())
			for j := range chunks {
				if w.Engine.Rand().Float64() < 0.5 {
					chunks[j] = true
				}
			}
			mustStart(mk(ed2k.Config{InitialChunks: chunks, UploadSlots: 1}).Start())
		}

		mobHost := w.WirelessHost(netem.WirelessConfig{Rate: 400 * netem.KBps})
		mobile := mk(ed2k.Config{Transport: mobHost.Transport})
		mustStart(mobile.Start())

		h := mobility.NewHandoff(w.Engine, w.Net, mobHost.Iface, mobility.NewIPAllocator(7000), handoffPeriod)
		delay, fresh := mobility.DetectionDelay, true
		if retainHash {
			// wP2P-style reaction: detect fast, keep the identity.
			delay, fresh = wpNotice, false
		}
		mobility.DefaultReaction(w.Engine, h, delay, func() { mobile.Restart(fresh) })
		h.Start()

		for range x {
			w.RunFor(sample)
			y = append(y, mb(mobile.Downloaded()))
		}
		return y
	}

	// Retain-vs-regenerate are independent too; fan them along with runs.
	both := runner.Sweep([]bool{false, true}, func(_ int, retain bool) []float64 {
		return runner.AverageSeries(runs, func(r int) []float64 { return run(retain, 1+int64(r)*601) })
	})
	defY, keepY := both[0], both[1]
	res.AddSeries("new hash each handoff (default)", x, defY)
	res.AddSeries("hash retained (wP2P principle)", x, keepY)
	if n := len(x) - 1; n >= 0 && defY[n] > 0 {
		res.Note("after %.0f min (mean of %d runs): retained %.1f MB vs default %.1f MB (%.2fx) — identity matters at least as much as in BitTorrent, as §3.7 argues",
			x[n], runs, keepY[n], defY[n], keepY[n]/defY[n])
	}
	res.Stats = col.Snapshot()
	return res
}
