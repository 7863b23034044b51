package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/stats"
	"github.com/wp2p/wp2p/internal/transport"
)

const (
	liveLeeches   = 2
	liveFileBytes = 1 << 30
	livePingPongs = 20000
	livePingBytes = 256
	liveDeadline  = 90 * time.Second
	livePoll      = 5 * time.Millisecond
	liveChoke     = time.Second // choke round of the measured swarm
)

// livePrepare is the live-loopback workload: bt over real loopback sockets.
// Set-up starts the group, runs a small warm-up swarm on a scratch group and
// then the closed-loop ping-pong on one connection of the real group, so the
// swarm that follows is the only thing inside the measured rep.
func livePrepare(seed int64, sz size, _ string, tr *tracer) (func() (outcome, error), error) {
	fileBytes, pings := int64(liveFileBytes), livePingPongs
	switch sz {
	case sizeTenth:
		fileBytes, pings = fileBytes/10, pings/10
	case sizeTiny:
		fileBytes, pings = 4<<20, 200
	}
	if sz != sizeTiny {
		warm := transport.NewGroup(seed)
		// No leech is unchoked before the first choke round, so the warm-up
		// swarm takes short rounds: set-up does not sit idle for a second.
		_, err := runSwarm(warm, 4<<20, liveChoke/10, nil)
		warm.Close()
		if err != nil {
			return nil, fmt.Errorf("warm-up swarm: %w", err)
		}
	}
	group := transport.NewGroup(seed)
	end := tr.begin("pingpong")
	rtts, pingErr := pingPong(group, pings)
	end()

	return func() (outcome, error) {
		o, err := runSwarm(group, fileBytes, liveChoke, tr)
		end := tr.begin("close")
		group.Close()
		end()
		if err != nil {
			return o, err
		}
		o.ops += pings
		o.failed += pings - len(rtts)
		if pingErr != nil {
			o.notes = append(o.notes, pingErr.Error())
		}
		if len(rtts) > 0 {
			sort.Float64s(rtts)
			o.endToEnd["msg_rtt_us_p50"] = rtts[len(rtts)/2]
		}
		return o, nil
	}, nil
}

// pingPong runs n closed-loop request/response exchanges of livePingBytes
// framed messages over one connection between two hosts of the group and
// returns each round trip in microseconds. The connection and its listener
// are closed before it returns.
func pingPong(g *transport.Group, n int) ([]float64, error) {
	const port = 7
	server, client := g.Host(netem.IP(1)), g.Host(netem.IP(2))
	rtts := make([]float64, 0, n)
	done := make(chan error, 2) // the finishing message and the close callback may both report
	var ln transport.Listener
	g.Do(func() {
		var err error
		ln, err = server.Listen(port, func(c transport.Conn) {
			c.SetOnMessage(func(v any) { c.SendMessage(v, livePingBytes) })
		})
		if err != nil {
			done <- err
			return
		}
		c, err := client.Dial(server.Addr(port))
		if err != nil {
			done <- err
			return
		}
		var sent time.Time
		ping := func() {
			sent = time.Now()
			c.SendMessage(len(rtts), livePingBytes)
		}
		c.SetOnEstablished(ping)
		c.SetOnMessage(func(any) {
			rtts = append(rtts, float64(time.Since(sent).Nanoseconds())/1e3)
			if len(rtts) == n {
				c.Close()
				done <- nil
				return
			}
			ping()
		})
		c.SetOnClose(func(err error) {
			if len(rtts) < n {
				done <- fmt.Errorf("ping-pong connection closed after %d of %d exchanges: %v", len(rtts), n, err)
			}
		})
	})
	var err error
	select {
	case err = <-done:
	case <-time.After(liveDeadline):
		err = fmt.Errorf("ping-pong timed out")
	}
	var got []float64
	g.Do(func() {
		if ln != nil {
			ln.Close()
		}
		got = append(got, rtts...) // copy on the loop goroutine, which owns rtts
	})
	return got, err
}

// runSwarm distributes one file from a seed to liveLeeches leeches on the
// group and waits for every leech to complete. Wall time runs on the
// group's engine clock (which tracks the wall clock) from the first Start
// to the last completion, so it is not quantised by the poll.
func runSwarm(g *transport.Group, fileBytes int64, chokeEvery time.Duration, tr *tracer) (outcome, error) {
	var (
		clients  []*bt.Client
		startErr error
		startAt  time.Duration
	)
	tor := bt.NewMetaInfo("live-loopback", fileBytes, 256<<10)

	end := tr.begin("listen")
	g.Do(func() {
		tracker := bt.NewTracker(g.Engine(), bt.TrackerConfig{Interval: 5 * time.Second})
		for i := 0; i <= liveLeeches; i++ {
			clients = append(clients, bt.NewClient(bt.Config{
				Transport: g.Host(netem.IP(10 + i)),
				Torrent:   tor,
				Tracker:   tracker,
				Seed:      i == 0,
				// The swarm runs on the wall clock: the default 10 s choke
				// round would be most of the run.
				ChokeInterval:      chokeEvery,
				OptimisticInterval: 2 * chokeEvery,
			}))
		}
		startAt = g.Engine().Now()
		startErr = clients[0].Start() // the seed binds its listener and announces
	})
	end()
	if startErr != nil {
		return outcome{}, startErr
	}
	end = tr.begin("start")
	g.Do(func() {
		for _, c := range clients[1:] {
			startErr = errors.Join(startErr, c.Start())
		}
	})
	end()
	if startErr != nil {
		return outcome{}, startErr
	}

	endPhase := tr.begin("first_piece")
	gotPiece := false
	deadline := time.Now().Add(liveDeadline)
	for {
		done, pieces := 0, 0
		g.Do(func() {
			for _, c := range clients[1:] {
				if c.Complete() {
					done++
				}
				pieces += c.Have().Count()
			}
		})
		if !gotPiece && pieces > 0 {
			gotPiece = true
			endPhase()
			endPhase = tr.begin("transfer")
		}
		if done == liveLeeches {
			break
		}
		if time.Now().After(deadline) {
			endPhase()
			return outcome{}, fmt.Errorf("live swarm timed out with %d of %d leeches complete", done, liveLeeches)
		}
		time.Sleep(livePoll)
	}
	endPhase()

	o := outcome{ops: liveLeeches, endToEnd: map[string]float64{}}
	h := sha256.New()
	fmt.Fprintf(h, "pieces=%d", tor.NumPieces())
	g.Do(func() {
		var lastDone time.Duration
		for i, c := range clients[1:] {
			if !c.Have().Complete() || c.BytesHave() != fileBytes || c.HashFails() != 0 {
				o.failed++
				o.notes = append(o.notes, fmt.Sprintf("leech %d: have %d of %d bytes, %d hash fails", i, c.BytesHave(), fileBytes, c.HashFails()))
			}
			fmt.Fprintf(h, " leech%d=%d", i, c.BytesHave())
			if at := c.CompletedAt(); at > lastDone {
				lastDone = at
			}
		}
		o.endToEnd["wall_s"] = (lastDone - startAt).Seconds()
		o.stats = []*stats.Snapshot{g.Engine().Stats().Snapshot()}
	})
	o.digest = hex.EncodeToString(h.Sum(nil))
	o.endToEnd["goodput_mb_s"] = ratio(float64(liveLeeches)*float64(fileBytes)/1e6, o.endToEnd["wall_s"])
	return o, nil
}
