// Mobile video: a laptop downloads a video over WLAN and gets disconnected
// midway. With the classic rarest-first picker almost nothing is playable;
// with wP2P's mobility-aware fetching the user keeps a watchable prefix —
// the scenario of the paper's §3.6 and Figure 9(a,b).
//
//	go run ./examples/mobilevideo
package main

import (
	"fmt"
	"time"

	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/media"
	"github.com/wp2p/wp2p/internal/mobility"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/tcp"
	"github.com/wp2p/wp2p/internal/transport"
	"github.com/wp2p/wp2p/internal/wp2p"
)

func run(useMF bool) {
	engine := sim.NewEngine(sim.WithSeed(7))
	network := netem.NewNetwork(engine, netem.NetworkConfig{})
	tracker := bt.NewTracker(engine, bt.TrackerConfig{Interval: 30 * time.Second})
	video := bt.NewMetaInfo("lecture.mpeg", 20*1024*1024, 256*1024)

	// Two wired seeds hold the video.
	for ip := netem.IP(1); ip <= 2; ip++ {
		link := netem.NewAccessLink(engine, netem.AccessLinkConfig{
			UpRate: 500 * netem.KBps, DownRate: 500 * netem.KBps,
		})
		bt.NewClient(bt.Config{
			Transport: transport.NewSim(tcp.NewStack(engine, network.Attach(ip, link, nil))),
			Torrent:   video, Tracker: tracker, Seed: true,
		}).Start()
	}

	// The laptop on a WLAN.
	wlan := netem.NewWirelessChannel(engine, netem.WirelessConfig{
		Rate: 300 * netem.KBps, Overhead: 2 * time.Millisecond,
	})
	iface := network.Attach(10, wlan, nil)
	stack := tcp.NewStack(engine, iface)

	cfg := wp2p.Config{BT: bt.Config{Transport: transport.NewSim(stack), Torrent: video, Tracker: tracker}}
	label := "default (rarest-first)"
	if useMF {
		cfg.MF = &wp2p.MFConfig{} // p_r = downloaded fraction
		label = "wP2P (mobility-aware fetch)"
	}
	client := wp2p.New(cfg)
	client.Start()

	// The user walks out of coverage after 90 seconds.
	disc := mobility.NewDisconnection(engine, network, iface)
	engine.Schedule(90*time.Second, func() { disc.DisconnectFor(time.Hour) })
	engine.RunFor(5 * time.Minute)

	have := client.BT.Have()
	fmt.Printf("%-30s downloaded %4.0f%%  playable %4.0f%%  (%d of %d pieces, in-order prefix %d)\n",
		label,
		media.DownloadedFraction(have, video)*100,
		media.PlayableFraction(have, video)*100,
		have.Count(), have.Len(), have.PrefixLen())
}

func main() {
	fmt.Println("A 20 MB video download is cut off by a disconnection after 90s.")
	fmt.Println("How much of the file can the user actually watch?")
	fmt.Println()
	run(false)
	run(true)
}
