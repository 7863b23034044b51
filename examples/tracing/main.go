// Tracing: debug a scenario by recording what actually crosses the wire.
// A mobile host downloads over a lossy WLAN while the trace recorder
// watches its interface, the channel's drops, and the routing blackhole
// after a handoff — then prints the last moments of the story.
//
//	go run ./examples/tracing
package main

import (
	"fmt"
	"os"
	"time"

	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/mobility"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/tcp"
	"github.com/wp2p/wp2p/internal/trace"
	"github.com/wp2p/wp2p/internal/transport"
)

func main() {
	engine := sim.NewEngine(sim.WithSeed(5))
	network := netem.NewNetwork(engine, netem.NetworkConfig{})
	tracker := bt.NewTracker(engine, bt.TrackerConfig{Interval: time.Minute})
	tor := bt.NewMetaInfo("trace-me.bin", 2*1024*1024, 128*1024)

	// A wired seed.
	link := netem.NewAccessLink(engine, netem.AccessLinkConfig{
		UpRate: 500 * netem.KBps, DownRate: 500 * netem.KBps,
	})
	bt.NewClient(bt.Config{
		Transport: transport.NewSim(tcp.NewStack(engine, network.Attach(1, link, nil))),
		Torrent:   tor, Tracker: tracker, Seed: true,
	}).Start()

	// The mobile host on a lossy WLAN.
	wlan := netem.NewWirelessChannel(engine, netem.WirelessConfig{
		Rate: 200 * netem.KBps, BER: 1e-5, Overhead: 2 * time.Millisecond,
	})
	iface := network.Attach(10, wlan, nil)
	leech := bt.NewClient(bt.Config{
		Transport: transport.NewSim(tcp.NewStack(engine, iface)),
		Torrent:   tor, Tracker: tracker,
	})
	leech.Start()

	// Watch everything interesting. The ring keeps only the last 40 events,
	// so long runs stay cheap.
	rec := trace.NewRecorder(engine, 40)
	trace.WatchIface(rec, "mobile", iface)
	trace.WatchWireless(rec, "wlan", wlan)
	trace.WatchNetwork(rec, "cloud", network)

	// Mid-download handoff so the trace shows blackholed packets.
	engine.Schedule(20*time.Second, func() {
		mobility.NewHandoff(engine, network, iface, mobility.NewIPAllocator(99), time.Hour).Trigger()
		rec.Emit("story", "note", "=== handoff: mobile moved to a new address ===")
	})
	engine.RunFor(25 * time.Second)

	fmt.Printf("downloaded %.0f%% before the dust settled; %d events recorded, last %d shown:\n\n",
		leech.Progress()*100, rec.Total(), len(rec.Events()))
	rec.Dump(os.Stdout)
}
