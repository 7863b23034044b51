package bt

import (
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
)

func TestEndgameRacesLastBlocks(t *testing.T) {
	// Two seeds: one fast, one so slow that blocks assigned to it would
	// stall the tail of the download for minutes. Endgame must race those
	// blocks via the fast seed instead of waiting out the request timeout.
	env := newSwarmEnv(50, 1024*1024, 128*1024)
	fast := env.client(Config{Seed: true})
	slowLim := NewLimiter(env.engine, 300) // 300 B/s: effectively stuck
	slow := env.client(Config{Seed: true, UploadLimiter: slowLim})
	leech := env.client(Config{RequestTimeout: 10 * time.Minute}) // timeouts can't save us
	fast.Start()
	slow.Start()
	leech.Start()
	env.engine.RunFor(3 * time.Minute)
	if !leech.Complete() {
		t.Fatalf("endgame failed to rescue the tail: %.0f%% after 3min", leech.Progress()*100)
	}
	// The rescue implies duplicate requests were cancelled, not all served:
	// total downloaded should not wildly exceed the file size.
	if leech.Downloaded() > env.torrent.Length+int64(8*BlockSize) {
		t.Errorf("downloaded %d for a %d-byte file; endgame cancelling broken",
			leech.Downloaded(), env.torrent.Length)
	}
}

func TestEndgameDuplicateCap(t *testing.T) {
	// No block should ever have more than endgameMaxDup requesters.
	env := newSwarmEnv(51, 512*1024, 64*1024)
	seeds := make([]*Client, 4)
	for i := range seeds {
		seeds[i] = env.client(Config{Seed: true, UploadLimiter: NewLimiter(env.engine, 5*netem.KBps)})
		seeds[i].Start()
	}
	leech := env.client(Config{})
	leech.Start()
	violated := false
	for i := 0; i < 120 && !leech.Complete(); i++ {
		env.engine.RunFor(2 * time.Second)
		leech.requested.each(func(_ blockRef, owners []*peerConn) {
			if len(owners) > endgameMaxDup {
				violated = true
			}
		})
	}
	if violated {
		t.Error("a block had more than endgameMaxDup requesters")
	}
}
