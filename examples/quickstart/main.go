// Quickstart: build a tiny BitTorrent swarm inside the simulator — one
// seed, two leeches — run it to completion, and print what happened.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/tcp"
	"github.com/wp2p/wp2p/internal/transport"
)

func main() {
	// Everything runs on one deterministic discrete-event engine: a minute
	// of swarm time takes milliseconds of wall time.
	engine := sim.NewEngine(sim.WithSeed(42))
	network := netem.NewNetwork(engine, netem.NetworkConfig{})
	tracker := bt.NewTracker(engine, bt.TrackerConfig{Interval: 30 * time.Second})

	// The shared file: 4 MB in 64 KB pieces.
	torrent := bt.NewMetaInfo("intro.mkv", 4*1024*1024, 64*1024)

	// Helper: a host behind a 1 MB/s access link with its own TCP stack.
	newHost := func(ip netem.IP) *tcp.Stack {
		link := netem.NewAccessLink(engine, netem.AccessLinkConfig{
			UpRate: 1 * netem.MBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
		})
		return tcp.NewStack(engine, network.Attach(ip, link, nil))
	}

	// Cap the seed so the leeches have to exchange pieces with each other,
	// which is the point of the protocol.
	seed := bt.NewClient(bt.Config{
		Transport: transport.NewSim(newHost(1)), Torrent: torrent, Tracker: tracker, Seed: true,
		UploadLimiter: bt.NewLimiter(engine, 80*netem.KBps),
	})
	leechA := bt.NewClient(bt.Config{Transport: transport.NewSim(newHost(2)), Torrent: torrent, Tracker: tracker})
	leechB := bt.NewClient(bt.Config{Transport: transport.NewSim(newHost(3)), Torrent: torrent, Tracker: tracker})

	leechA.OnComplete = func() {
		fmt.Printf("leech A complete at t=%v\n", engine.Now().Round(time.Millisecond))
	}
	leechB.OnComplete = func() {
		fmt.Printf("leech B complete at t=%v\n", engine.Now().Round(time.Millisecond))
	}

	seed.Start()
	leechA.Start()
	leechB.Start()

	// Watch progress once a second of simulated time.
	for t := 0; t < 120 && !(leechA.Complete() && leechB.Complete()); t++ {
		engine.RunFor(time.Second)
		if t%5 == 0 {
			fmt.Printf("t=%3ds  A: %5.1f%%  B: %5.1f%%  (A dl %6.1f KB/s, seed peers %d)\n",
				t, leechA.Progress()*100, leechB.Progress()*100,
				leechA.DownloadRate()/1000, seed.NumPeers())
		}
	}

	fmt.Printf("\nseed uploaded    %7d bytes\n", seed.Uploaded())
	fmt.Printf("leech A exchange %7d up / %7d down\n", leechA.Uploaded(), leechA.Downloaded())
	fmt.Printf("leech B exchange %7d up / %7d down\n", leechB.Uploaded(), leechB.Downloaded())
	fmt.Printf("swarm size at tracker: %d (seeds: %d)\n",
		tracker.SwarmSize(torrent.InfoHash()), tracker.Seeds(torrent.InfoHash()))
}
