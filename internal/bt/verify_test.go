package bt

import (
	"testing"
	"time"
)

func TestCorruptSeedGetsBannedAndDownloadCompletes(t *testing.T) {
	// One honest seed and one corrupt seed. The leech must detect failed
	// hash checks, ban the corrupter, and still finish from the honest
	// source.
	env := newSwarmEnv(70, 1024*1024, 64*1024)
	honest := env.client(Config{Seed: true})
	corrupt := env.client(Config{Seed: true, Corrupt: true})
	leech := env.client(Config{})
	honest.Start()
	corrupt.Start()
	leech.Start()
	env.engine.RunFor(10 * time.Minute)
	if !leech.Complete() {
		t.Fatalf("leech incomplete: %.0f%% (hash fails: %d)", leech.Progress()*100, leech.HashFails())
	}
	if leech.HashFails() == 0 {
		t.Error("no hash failures recorded despite a corrupt seed")
	}
	if !leech.banned[corrupt.PeerID()] {
		t.Error("corrupt seed never banned")
	}
	if leech.banned[honest.PeerID()] {
		t.Error("honest seed banned")
	}
	// Banned peers stay disconnected.
	for _, p := range leech.peers {
		if p.id == corrupt.PeerID() {
			t.Error("still connected to the banned peer")
		}
	}
}

func TestAllCorruptSwarmNeverCompletes(t *testing.T) {
	env := newSwarmEnv(71, 512*1024, 64*1024)
	corrupt := env.client(Config{Seed: true, Corrupt: true})
	leech := env.client(Config{})
	corrupt.Start()
	leech.Start()
	env.engine.RunFor(5 * time.Minute)
	if leech.Complete() {
		t.Fatal("completed from a fully corrupt source")
	}
	if leech.BytesHave() != 0 {
		t.Errorf("verified %d bytes of corrupt data", leech.BytesHave())
	}
	if leech.HashFails() == 0 {
		t.Error("no hash failures recorded")
	}
}

func TestHonestContributorSurvivesSharedFailure(t *testing.T) {
	// An honest peer that co-contributed to one failed piece must not be
	// banned (suspicion threshold is 2).
	env := newSwarmEnv(72, 2*1024*1024, 256*1024)
	honest := env.client(Config{Seed: true})
	corrupt := env.client(Config{Seed: true, Corrupt: true})
	leech := env.client(Config{})
	honest.Start()
	corrupt.Start()
	leech.Start()
	env.engine.RunFor(10 * time.Minute)
	if !leech.Complete() {
		t.Fatalf("incomplete: %.0f%%", leech.Progress()*100)
	}
	if leech.banned[honest.PeerID()] {
		t.Error("honest co-contributor was banned")
	}
}
