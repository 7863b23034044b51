package scenario

import (
	"strings"
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/mobility"
)

// handoffOnce loads m with its leech group made mobile (mobility fields
// from mob) and handed off once, at 30 s. It returns the leech's bt client,
// its peer-id before the handoff, and the instants of its restarts in the
// two minutes that follow.
func handoffOnce(t *testing.T, m map[string]any, mob map[string]any) (b *bt.Client, before bt.PeerID, at []time.Duration) {
	t.Helper()
	m["workload"].(map[string]any)["torrent"] = map[string]any{"size_bytes": 64 << 20}
	mob["period"], mob["ip_base"] = "0s", 1000
	m["peers"].([]any)[1].(map[string]any)["mobility"] = mob
	m["events"] = []any{map[string]any{"at": "30s", "action": "handoff", "peers": "leech"}}
	s, err := Load(mustJSON(t, m))
	if err != nil {
		t.Fatal(err)
	}
	c := compile(s, 1, 1, Options{})
	leech := c.groups["leech"][0]
	b, _ = leech.client.(*bt.Client)
	if leech.wp != nil {
		b = leech.wp.BT
	}
	before = b.PeerID()
	eng := c.w.Engine
	for eng.Step() && eng.Now() <= 150*time.Second {
		if b.Restarts() > len(at) {
			at = append(at, eng.Now())
		}
	}
	if n := leech.handoff.Changes(); n != 1 {
		t.Fatalf("%d handoffs, want 1", n)
	}
	return b, before, at
}

// TestOmittedReactionRestarts: a mobile bt leech that names no reaction is
// the paper's default client. One handoff, and mobility.DetectionDelay
// later one restart under a fresh peer-id. The parent defaulted to
// oblivious and never restarted.
func TestOmittedReactionRestarts(t *testing.T) {
	b, before, at := handoffOnce(t, minimal(), map[string]any{})
	if want := 30*time.Second + mobility.DetectionDelay; len(at) != 1 || at[0] != want {
		t.Fatalf("restarts at %v, want one at %v", at, want)
	}
	if b.PeerID() == before {
		t.Error("the default client restarted under its old peer-id")
	}
}

// TestZeroDetectionDelayRestartsAtOnce: an explicit "0s" detection delay is
// a reaction at the handoff itself, not the omitted field's
// mobility.DetectionDelay. The parent could not tell the two apart and
// restarted 15 s late.
func TestZeroDetectionDelayRestartsAtOnce(t *testing.T) {
	_, _, at := handoffOnce(t, minimal(), map[string]any{"detection_delay": "0s"})
	if want := 30 * time.Second; len(at) != 1 || at[0] != want {
		t.Fatalf("restarts at %v, want one at %v", at, want)
	}
}

// TestRestartWithRetainedIdentity: a wP2P leech that retains its identity
// and names "restart" is ablation's +identity variant. It re-initiates
// through its one reaction, once, mobility.DetectionDelay after the handoff,
// and keeps its peer-id. The parent's loader rejected the spec.
func TestRestartWithRetainedIdentity(t *testing.T) {
	m := minimal()
	m["peers"].([]any)[1].(map[string]any)["wp2p"] = map[string]any{"retain_identity": true}
	b, before, at := handoffOnce(t, m, map[string]any{"reaction": ReactRestart})
	if want := 30*time.Second + mobility.DetectionDelay; len(at) != 1 || at[0] != want {
		t.Fatalf("restarts at %v, want one at %v", at, want)
	}
	if b.PeerID() != before {
		t.Errorf("peer-id %q after the restart, want the retained %q", b.PeerID(), before)
	}
}

// TestRRNoticesTheMove: the wP2P series of mobile-seed.json and
// handoff-storm.json leave the move to the client, as every Go figure with
// an RR client does: the group is oblivious, and RR's watchdog notices each
// handoff and reverses roles. The parent's "reaction": "wp2p" re-initiated
// the client at the handoff itself, so RR never reversed.
func TestRRNoticesTheMove(t *testing.T) {
	for _, name := range []string{"mobile-seed.json", "handoff-storm.json"} {
		s := loadExample(t, name)
		var wp *Spec
		for _, sv := range s.Series {
			for p := range sv.Set {
				if strings.HasSuffix(p, ".wp2p") {
					v, err := s.Variant(seriesOverrides(sv.Set))
					if err != nil {
						t.Fatal(err)
					}
					wp = v
				}
			}
		}
		if wp == nil {
			t.Fatalf("%s: no series enables wp2p", name)
		}
		wp.Series = nil
		res, err := RunOpts(wp, testScale, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var reversals int64
		for _, c := range res.Stats.Counters {
			if c.Name == "wp2p.rr.reversals" {
				reversals = c.Value
			}
		}
		if reversals == 0 {
			t.Errorf("%s: wP2P series made no RR reversal", name)
		}
		t.Logf("%s: %d reversals", name, reversals)
	}
}
