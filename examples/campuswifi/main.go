// Campus Wi-Fi: a laptop leeching on a shared half-duplex WLAN. Its own
// uploads contend with its downloads for airtime, so the best upload rate
// is neither zero (tit-for-tat punishes that) nor maximal (self-contention
// punishes that). Watch wP2P's LIHD controller hunt for the peak of the
// paper's Figure 3(b) curve, and compare the outcome against fixed caps.
//
//	go run ./examples/campuswifi
package main

import (
	"fmt"
	"time"

	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/tcp"
	"github.com/wp2p/wp2p/internal/transport"
	"github.com/wp2p/wp2p/internal/wp2p"
)

const channelRate = 150 * netem.KBps

// buildSwarm populates a contested swarm and returns the laptop's stack.
func buildSwarm(engine *sim.Engine) (*tcp.Stack, *bt.MetaInfo, *bt.Tracker) {
	network := netem.NewNetwork(engine, netem.NetworkConfig{})
	tracker := bt.NewTracker(engine, bt.TrackerConfig{Interval: 30 * time.Second})
	tor := bt.NewMetaInfo("dataset.tar", 64*1024*1024, 256*1024)
	nextIP := netem.IP(1)
	host := func() *tcp.Stack {
		link := netem.NewAccessLink(engine, netem.AccessLinkConfig{
			UpRate: 300 * netem.KBps, DownRate: 1 * netem.MBps,
		})
		s := tcp.NewStack(engine, network.Attach(nextIP, link, nil))
		nextIP++
		return s
	}
	for i := 0; i < 2; i++ {
		bt.NewClient(bt.Config{
			Transport: transport.NewSim(host()), Torrent: tor, Tracker: tracker, Seed: true,
			UploadLimiter: bt.NewLimiter(engine, 60*netem.KBps), UnchokeSlots: 2,
		}).Start()
	}
	for i := 0; i < 8; i++ {
		have := bt.NewBitfield(tor.NumPieces())
		for p := 0; p < have.Len(); p++ {
			if engine.Rand().Float64() < 0.5 {
				have.Set(p)
			}
		}
		bt.NewClient(bt.Config{
			Transport: transport.NewSim(host()), Torrent: tor, Tracker: tracker,
			UploadLimiter: bt.NewLimiter(engine, netem.Rate(5+engine.Rand().Int63n(30))*netem.KBps),
			UnchokeSlots:  2, InitialHave: have,
		}).Start()
	}
	wlan := netem.NewWirelessChannel(engine, netem.WirelessConfig{
		Rate: channelRate, Overhead: 2 * time.Millisecond,
	})
	laptop := tcp.NewStack(engine, network.Attach(100, wlan, nil))
	return laptop, tor, tracker
}

func fixedCap(cap netem.Rate) float64 {
	engine := sim.NewEngine(sim.WithSeed(11))
	laptop, tor, tracker := buildSwarm(engine)
	c := bt.NewClient(bt.Config{
		Transport: transport.NewSim(laptop), Torrent: tor, Tracker: tracker,
		UploadLimiter: bt.NewLimiter(engine, cap), UnchokeSlots: 2,
	})
	c.Start()
	engine.RunFor(8 * time.Minute)
	return c.DownloadRate()
}

func lihd() float64 {
	engine := sim.NewEngine(sim.WithSeed(11))
	laptop, tor, tracker := buildSwarm(engine)
	c := wp2p.New(wp2p.Config{
		BT: bt.Config{Transport: transport.NewSim(laptop), Torrent: tor, Tracker: tracker, UnchokeSlots: 2},
		LIHD: &wp2p.LIHDConfig{
			Umax: channelRate, Alpha: 10 * netem.KBps, Beta: 10 * netem.KBps,
			Period: 30 * time.Second,
		},
	})
	c.Start()
	for m := 1; m <= 8; m++ {
		engine.RunFor(time.Minute)
		fmt.Printf("  t=%dm  upload cap %-9v  download %6.1f KB/s\n",
			m, c.LIHD().UploadCap(), c.BT.DownloadRate()/1000)
	}
	return c.BT.DownloadRate()
}

func main() {
	fmt.Printf("Shared %v WLAN. Fixed upload caps vs LIHD after 8 minutes:\n\n", channelRate)
	for _, frac := range []float64{0.05, 0.25, 0.50, 0.90} {
		cap := netem.Rate(frac * float64(channelRate))
		fmt.Printf("fixed cap %3.0f%% of channel: download %6.1f KB/s\n",
			frac*100, fixedCap(cap)/1000)
	}
	fmt.Println("\nLIHD adapting (α=β=10 KBps):")
	final := lihd()
	fmt.Printf("\nLIHD final download rate: %.1f KB/s\n", final/1000)
}
