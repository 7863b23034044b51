package main

import (
	"fmt"
	"io"
	"time"

	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/transport"
)

// cmdLive runs a small BitTorrent swarm on the real-socket transport backend:
// each peer a virtual host on a transport.Group, each connection a loopback
// TCP socket. The simulated subcommands' protocol code, deployed not modelled.
func cmdLive(args []string, stdout, stderr io.Writer) int {
	s := newSession("live", false, 1.0, stdout, stderr)
	leeches := s.fs.Int("leeches", 3, "leech count of the swarm (plus one seed)")
	if !s.parse(args) {
		return s.exit
	}
	if *leeches < 1 || s.fs.NArg() > 0 {
		return s.fail(2, "want -leeches ≥ 1 and no arguments")
	}
	if !s.start() {
		return s.exit
	}
	if err := liveSwarm(stdout, s.scale, *leeches); err != nil {
		s.fail(1, "%v", err)
	}
	return s.finish()
}

func liveSwarm(stdout io.Writer, scale float64, leeches int) error {
	fileSize := max(int64(float64(4<<20)*scale), 256<<10)
	group := transport.NewGroup(1)
	defer group.Close()
	fmt.Fprintf(stdout, "live swarm over loopback sockets: 1 seed + %d leeches, %d KB file\n", leeches, fileSize/1024)
	var clients []*bt.Client
	var startErr error
	group.Do(func() {
		tor := bt.NewMetaInfo("net-demo", fileSize, 64*1024)
		tracker := bt.NewTracker(group.Engine(), bt.TrackerConfig{Interval: 5 * time.Second})
		for i := 0; i <= leeches && startErr == nil; i++ {
			c := bt.NewClient(bt.Config{
				Transport: group.Host(netem.IP(10 + i)),
				Torrent:   tor,
				Tracker:   tracker,
				Seed:      i == 0,
				// Snappy cadence: the swarm runs on the wall clock, so the
				// default 10 s choke interval would dominate its runtime.
				ChokeInterval:      time.Second,
				OptimisticInterval: 2 * time.Second,
			})
			startErr = c.Start()
			clients = append(clients, c)
		}
	})
	if startErr != nil {
		return fmt.Errorf("starting the swarm: %w", startErr)
	}

	for start := time.Now(); time.Since(start) < 2*time.Minute; time.Sleep(250 * time.Millisecond) {
		done, have := 0, int64(0)
		group.Do(func() {
			for _, c := range clients[1:] {
				if c.Complete() {
					done++
				}
				have += c.Downloaded()
			}
		})
		fmt.Fprintf(stdout, "  %5.1fs  %d/%d leeches complete, %d KB transferred\n", time.Since(start).Seconds(), done, leeches, have/1024)
		if done == leeches {
			fmt.Fprintf(stdout, "all leeches complete in %v over real sockets\n", time.Since(start).Round(10*time.Millisecond))
			return nil
		}
	}
	return fmt.Errorf("timed out before every leech completed")
}
