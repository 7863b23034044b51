// Handoff: a mobile host seeding a file while its IP address changes every
// two minutes. The default client is oblivious — its connections die by
// timeout and the swarm only relearns its address from tracker announces.
// The wP2P client's role reversal notices the change and immediately
// redials its stored peers, so serving resumes at dial latency (paper §4.3
// and Figure 9(c)).
//
//	go run ./examples/handoff
package main

import (
	"fmt"
	"time"

	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/mobility"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/tcp"
	"github.com/wp2p/wp2p/internal/transport"
	"github.com/wp2p/wp2p/internal/wp2p"
)

func run(useRR bool) {
	engine := sim.NewEngine(sim.WithSeed(3))
	network := netem.NewNetwork(engine, netem.NetworkConfig{})
	tracker := bt.NewTracker(engine, bt.TrackerConfig{Interval: 2 * time.Minute})
	tor := bt.NewMetaInfo("release.iso", 48*1024*1024, 256*1024)

	nextIP := netem.IP(1)
	host := func() *tcp.Stack {
		link := netem.NewAccessLink(engine, netem.AccessLinkConfig{
			UpRate: 200 * netem.KBps, DownRate: 1 * netem.MBps,
		})
		s := tcp.NewStack(engine, network.Attach(nextIP, link, nil))
		nextIP++
		return s
	}

	// A slow wired seed keeps the swarm viable; five leeches want the file.
	bt.NewClient(bt.Config{
		Transport: transport.NewSim(host()), Torrent: tor, Tracker: tracker, Seed: true,
		UploadLimiter: bt.NewLimiter(engine, 20*netem.KBps),
	}).Start()
	for i := 0; i < 5; i++ {
		bt.NewClient(bt.Config{Transport: transport.NewSim(host()), Torrent: tor, Tracker: tracker}).Start()
	}

	// The mobile seed on a WLAN, handing off every 2 minutes.
	wlan := netem.NewWirelessChannel(engine, netem.WirelessConfig{
		Rate: 400 * netem.KBps, Overhead: 2 * time.Millisecond,
	})
	iface := network.Attach(100, wlan, nil)
	stack := tcp.NewStack(engine, iface)

	cfg := wp2p.Config{
		BT: bt.Config{Transport: transport.NewSim(stack), Torrent: tor, Tracker: tracker, Seed: true},
	}
	label := "default (oblivious)"
	if useRR {
		cfg.RR = &wp2p.RRConfig{}
		cfg.RetainIdentity = true
		label = "wP2P (role reversal)"
	}
	client := wp2p.New(cfg)
	client.Start()

	handoff := mobility.NewHandoff(engine, network, iface,
		mobility.NewIPAllocator(1000), 2*time.Minute)
	handoff.Start()

	engine.RunFor(20 * time.Minute)
	rate := float64(client.BT.Uploaded()) / engine.Now().Seconds() / 1000
	extra := ""
	if useRR {
		extra = fmt.Sprintf("  (reversals: %d)", client.RR().Reversals())
	}
	fmt.Printf("%-24s served %5.1f MB, %5.1f KB/s over %d handoffs%s\n",
		label, float64(client.BT.Uploaded())/1e6, rate, handoff.Changes(), extra)
}

func main() {
	fmt.Println("A mobile seed hands off every 2 minutes for 20 minutes.")
	fmt.Println("How much can it contribute to the swarm?")
	fmt.Println()
	run(false)
	run(true)
}
