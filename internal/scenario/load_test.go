package scenario

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// minimal returns a valid single-group document to mutate in error tests.
func minimal() map[string]any {
	return map[string]any{
		"schema":   SchemaVersion,
		"name":     "t",
		"duration": "5m",
		"workload": map[string]any{
			"protocol": "bt",
			"torrent":  map[string]any{"size_bytes": 1 << 20},
		},
		"peers": []any{
			map[string]any{"name": "seed", "role": "seed", "link": map[string]any{"kind": "wired"}},
			map[string]any{"name": "leech", "link": map[string]any{"kind": "wired"}},
		},
		"measure": map[string]any{"peers": "leech", "metric": "download_kbps"},
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestLoadMinimal(t *testing.T) {
	s, err := Load(mustJSON(t, minimal()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if s.Duration.D() != 5*time.Minute {
		t.Errorf("duration = %v", s.Duration.D())
	}
	if len(s.Peers) != 2 || s.Peers[0].Role != RoleSeed {
		t.Errorf("peers decoded wrong: %+v", s.Peers)
	}
}

// TestLoadErrorsNamePath checks that every validation failure points at the
// offending field by JSON path — the loader's main usability promise.
func TestLoadErrorsNamePath(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(m map[string]any)
		wantPath string
	}{
		{"bad schema", func(m map[string]any) { m["schema"] = "wp2p.scenario.v0" }, "schema:"},
		{"bad name", func(m map[string]any) { m["name"] = "no spaces allowed" }, "name:"},
		{"zero duration", func(m map[string]any) { m["duration"] = "0s" }, "duration:"},
		{"floor above duration", func(m map[string]any) { m["duration_floor"] = "10m" }, "duration_floor:"},
		{"unknown protocol", func(m map[string]any) {
			m["workload"].(map[string]any)["protocol"] = "ftp"
		}, "workload.protocol:"},
		{"zero size", func(m map[string]any) {
			m["workload"].(map[string]any)["torrent"].(map[string]any)["size_bytes"] = 0
		}, "workload.torrent.size_bytes:"},
		{"no peers", func(m map[string]any) { m["peers"] = []any{} }, "peers:"},
		{"duplicate group", func(m map[string]any) {
			m["peers"].([]any)[1].(map[string]any)["name"] = "seed"
		}, "peers[1].name:"},
		{"bad link kind", func(m map[string]any) {
			m["peers"].([]any)[0].(map[string]any)["link"].(map[string]any)["kind"] = "carrier-pigeon"
		}, "peers[0].link.kind:"},
		{"rate on wired link", func(m map[string]any) {
			m["peers"].([]any)[0].(map[string]any)["link"].(map[string]any)["rate"] = "1MBps"
		}, "peers[0].link.rate:"},
		{"up on wireless link", func(m map[string]any) {
			l := m["peers"].([]any)[0].(map[string]any)["link"].(map[string]any)
			l["kind"] = "wireless"
			l["up"] = "1MBps"
		}, "peers[0].link.up:"},
		{"unknown fidelity", func(m map[string]any) {
			m["peers"].([]any)[1].(map[string]any)["fidelity"] = "quantum"
		}, "peers[1].fidelity:"},
		{"flow fidelity on wireless link", func(m map[string]any) {
			p := m["peers"].([]any)[1].(map[string]any)
			p["link"] = map[string]any{"kind": "wireless"}
			p["fidelity"] = "flow"
		}, "peers[1].fidelity:"},
		{"flow fidelity on mobile group", func(m map[string]any) {
			p := m["peers"].([]any)[1].(map[string]any)
			p["fidelity"] = "flow"
			p["mobility"] = map[string]any{"period": "1m", "ip_base": 1000}
		}, "peers[1].fidelity:"},
		{"mobility without ip_base", func(m map[string]any) {
			m["peers"].([]any)[1].(map[string]any)["mobility"] = map[string]any{"period": "1m"}
		}, "peers[1].mobility.ip_base:"},
		{"jitter >= period", func(m map[string]any) {
			m["peers"].([]any)[1].(map[string]any)["mobility"] = map[string]any{
				"period": "1m", "jitter": "2m", "ip_base": 1000,
			}
		}, "peers[1].mobility.jitter:"},
		// A wP2P group notices a move through RR or re-initiates after a
		// detection delay; there is no instant "wp2p" reaction.
		{"wp2p reaction on a wp2p group", func(m map[string]any) {
			p := m["peers"].([]any)[1].(map[string]any)
			p["wp2p"] = map[string]any{"rr": true}
			p["mobility"] = map[string]any{"period": "1m", "ip_base": 1000, "reaction": "wp2p"}
		}, `peers[1].mobility.reaction: unknown reaction "wp2p"`},
		{"restart on a gnutella node", func(m map[string]any) {
			m["workload"].(map[string]any)["protocol"] = "gnutella"
			m["peers"].([]any)[1].(map[string]any)["mobility"] = map[string]any{
				"period": "1m", "ip_base": 1000, "reaction": "restart",
			}
		}, "peers[1].mobility.reaction:"},
		{"omitted reaction on a gnutella node", func(m map[string]any) {
			m["workload"].(map[string]any)["protocol"] = "gnutella"
			m["peers"].([]any)[1].(map[string]any)["mobility"] = map[string]any{"period": "1m", "ip_base": 1000}
		}, `peers[1].mobility.reaction: a gnutella node has no restart entry point for "restart", the default; write "reaction": "oblivious"`},
		// mobile-seed.json's one-instance group omits count: 3 is beyond it,
		// as it is once "count": 1 is spelled out.
		{"first beyond an omitted count", func(m map[string]any) {
			m["peers"].([]any)[1].(map[string]any)["mobility"] = map[string]any{
				"period": "1m", "ip_base": 1000, "first": 3,
			}
		}, "peers[1].mobility.first: must be within [0, count], got 3"},
		{"negative detection delay", func(m map[string]any) {
			m["peers"].([]any)[1].(map[string]any)["mobility"] = map[string]any{
				"period": "1m", "ip_base": 1000, "detection_delay": "-5s",
			}
		}, "peers[1].mobility.detection_delay:"},
		{"wp2p on non-bt", func(m map[string]any) {
			m["workload"].(map[string]any)["protocol"] = "ed2k"
			m["peers"].([]any)[1].(map[string]any)["wp2p"] = map[string]any{"rr": true}
		}, "peers[1].wp2p:"},
		{"event on unknown group", func(m map[string]any) {
			m["events"] = []any{map[string]any{"at": "1m", "action": "handoff", "peers": "ghost"}}
		}, "events[0].peers:"},
		{"unknown action", func(m map[string]any) {
			m["events"] = []any{map[string]any{"at": "1m", "action": "explode", "peers": "leech"}}
		}, "events[0].action:"},
		{"set_ber on wired group", func(m map[string]any) {
			ber := 0.001
			m["events"] = []any{map[string]any{"at": "1m", "action": "set_ber", "peers": "leech", "ber": ber}}
		}, "events[0].peers:"},
		// A partition's own "for" ends it; there is no separate heal.
		{"heal", func(m map[string]any) {
			m["events"] = []any{map[string]any{"at": "1m", "action": "heal", "a": "seed", "b": "leech"}}
		}, `events[0].action: unknown action "heal"`},
		{"partition with same endpoints", func(m map[string]any) {
			m["events"] = []any{map[string]any{"at": "1m", "action": "partition", "a": "leech", "b": "leech"}}
		}, "events[0].b:"},
		{"unknown measure group", func(m map[string]any) {
			m["measure"].(map[string]any)["peers"] = "nobody"
		}, "measure.peers:"},
		{"unknown metric", func(m map[string]any) {
			m["measure"].(map[string]any)["metric"] = "vibes"
		}, "measure.metric:"},
		// Every export carries the mobility.handoffs counter instead.
		{"handoffs metric", func(m map[string]any) {
			m["measure"].(map[string]any)["metric"] = "handoffs"
		}, `measure.metric: unknown metric "handoffs"`},
		{"sample with sweep", func(m map[string]any) {
			m["measure"].(map[string]any)["sample"] = "30s"
			m["sweep"] = map[string]any{"param": "duration", "values": []any{"5m"}}
		}, "measure.sample:"},
		{"sweep x length mismatch", func(m map[string]any) {
			m["sweep"] = map[string]any{"param": "duration", "values": []any{"5m", "6m"}, "x": []any{1.0}}
		}, "sweep.x:"},
		{"bad sweep param", func(m map[string]any) {
			m["sweep"] = map[string]any{"param": "peers[x].count", "values": []any{1}}
		}, "sweep.param:"},
		{"duplicate series label", func(m map[string]any) {
			m["series"] = []any{
				map[string]any{"label": "a"},
				map[string]any{"label": "a"},
			}
		}, "series[1].label:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := minimal()
			tc.mutate(m)
			_, err := Load(mustJSON(t, m))
			if err == nil {
				t.Fatal("Load accepted an invalid document")
			}
			if !strings.Contains(err.Error(), tc.wantPath) {
				t.Errorf("error %q does not name the path %q", err, tc.wantPath)
			}
		})
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	m := minimal()
	m["duraton"] = "5m" // typo'd key must not be silently ignored
	if _, err := Load(mustJSON(t, m)); err == nil {
		t.Fatal("Load accepted a document with an unknown top-level field")
	}
	// Keys whose one value in use is now the model's constant: the logical
	// shard count, the torrent's piece length, the WLAN's MAC overhead and
	// LIHD's steps.
	for _, tc := range []struct {
		key    string
		mutate func(m map[string]any)
	}{
		{"shards", func(m map[string]any) { m["shards"] = 8 }},
		{"piece_bytes", func(m map[string]any) {
			m["workload"].(map[string]any)["torrent"].(map[string]any)["piece_bytes"] = 262144
		}},
		{"overhead", func(m map[string]any) {
			m["peers"].([]any)[1].(map[string]any)["link"] = map[string]any{"kind": "wireless", "overhead": "2ms"}
		}},
		{"alpha", func(m map[string]any) {
			m["peers"].([]any)[1].(map[string]any)["wp2p"] = map[string]any{"lihd": map[string]any{"umax": "100KBps", "alpha": "10KBps"}}
		}},
		{"beta", func(m map[string]any) {
			m["peers"].([]any)[1].(map[string]any)["wp2p"] = map[string]any{"lihd": map[string]any{"umax": "100KBps", "beta": "10KBps"}}
		}},
	} {
		m := minimal()
		tc.mutate(m)
		_, err := Load(mustJSON(t, m))
		if want := `unknown field "` + tc.key + `"`; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Load error %v, want one naming %s", tc.key, err, want)
		}
	}
}

// TestLoadCountsOmittedCount: a group that omits count has one instance,
// which mobility.first and an event's index may name.
func TestLoadCountsOmittedCount(t *testing.T) {
	m := minimal()
	m["peers"].([]any)[1].(map[string]any)["mobility"] = map[string]any{"period": "1m", "ip_base": 1000, "first": 1}
	m["events"] = []any{map[string]any{"at": "1m", "action": "leave", "peers": "leech", "index": 0}}
	if _, err := Load(mustJSON(t, m)); err != nil {
		t.Fatal(err)
	}
}

func TestLoadCollectsMultipleErrors(t *testing.T) {
	m := minimal()
	m["duration"] = "0s"
	m["workload"].(map[string]any)["protocol"] = "ftp"
	_, err := Load(mustJSON(t, m))
	if err == nil {
		t.Fatal("Load accepted an invalid document")
	}
	msg := err.Error()
	if !strings.Contains(msg, "duration:") || !strings.Contains(msg, "workload.protocol:") {
		t.Errorf("error should report both problems, got %q", msg)
	}
}

func TestParseRate(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"300KBps", 300_000, true},
		{"1MBps", 1_000_000, true},
		{"64Bps", 64, true},
		{"512Kbps", 64_000, true},
		{"8Mbps", 1_000_000, true},
		{"1.5MBps", 1_500_000, true},
		{"fast", 0, false},
		{"-1KBps", 0, false},
		{"KBps", 0, false},
	}
	for _, tc := range cases {
		r, err := ParseRate(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseRate(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && float64(r) != tc.want {
			t.Errorf("ParseRate(%q) = %v, want %v", tc.in, float64(r), tc.want)
		}
	}
}

func TestRateUnmarshalBareNumber(t *testing.T) {
	var r Rate
	if err := json.Unmarshal([]byte("250000"), &r); err != nil {
		t.Fatalf("bare number: %v", err)
	}
	if float64(r) != 250_000 {
		t.Errorf("got %v", float64(r))
	}
	if err := json.Unmarshal([]byte(`"nonsense"`), &r); err == nil {
		t.Error("accepted a malformed rate string")
	}
}

func TestDurationUnmarshal(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"90s"`), &d); err != nil {
		t.Fatalf("90s: %v", err)
	}
	if d.D() != 90*time.Second {
		t.Errorf("got %v", d.D())
	}
	if err := json.Unmarshal([]byte(`300`), &d); err == nil {
		t.Error("bare numbers must be rejected (ambiguous unit)")
	}
	if err := json.Unmarshal([]byte(`"yesterday"`), &d); err == nil {
		t.Error("accepted a malformed duration")
	}
}

func TestSetPath(t *testing.T) {
	doc := func() map[string]any {
		return map[string]any{
			"duration": "5m",
			"peers": []any{
				map[string]any{"name": "a", "mobility": map[string]any{"period": "1m"}},
				map[string]any{"name": "b"},
			},
		}
	}

	t.Run("top-level", func(t *testing.T) {
		m := doc()
		if err := setPath(m, "duration", "9m"); err != nil {
			t.Fatal(err)
		}
		if m["duration"] != "9m" {
			t.Errorf("got %v", m["duration"])
		}
	})
	t.Run("indexed nested", func(t *testing.T) {
		m := doc()
		if err := setPath(m, "peers[0].mobility.period", "30s"); err != nil {
			t.Fatal(err)
		}
		got := m["peers"].([]any)[0].(map[string]any)["mobility"].(map[string]any)["period"]
		if got != "30s" {
			t.Errorf("got %v", got)
		}
	})
	t.Run("replace array element", func(t *testing.T) {
		m := doc()
		if err := setPath(m, "peers[1]", map[string]any{"name": "c"}); err != nil {
			t.Fatal(err)
		}
		got := m["peers"].([]any)[1].(map[string]any)["name"]
		if got != "c" {
			t.Errorf("got %v", got)
		}
	})
	t.Run("new final key", func(t *testing.T) {
		m := doc()
		if err := setPath(m, "peers[1].mobility", map[string]any{"period": "2m", "ip_base": 1000}); err != nil {
			t.Fatal(err)
		}
		if m["peers"].([]any)[1].(map[string]any)["mobility"] == nil {
			t.Error("new key was not added")
		}
	})
	t.Run("index out of range", func(t *testing.T) {
		if err := setPath(doc(), "peers[7].name", "x"); err == nil {
			t.Error("accepted an out-of-range index")
		}
	})
	t.Run("missing intermediate", func(t *testing.T) {
		if err := setPath(doc(), "workload.protocol", "bt"); err == nil {
			t.Error("accepted a path through a missing container")
		}
	})
	t.Run("bad syntax", func(t *testing.T) {
		if err := setPath(doc(), "peers[zero].name", "x"); err == nil {
			t.Error("accepted a non-numeric index")
		}
	})
}

// TestVariantIsolation proves Variant never mutates the receiver — the
// property the parallel sweep grid depends on.
func TestVariantIsolation(t *testing.T) {
	base, err := Load(mustJSON(t, minimal()))
	if err != nil {
		t.Fatal(err)
	}
	v, err := base.Variant([]Override{
		{Path: "duration", Value: "9m"},
		{Path: "peers[1].upload_limit", Value: "50KBps"},
	})
	if err != nil {
		t.Fatalf("Variant: %v", err)
	}
	if v.Duration.D() != 9*time.Minute {
		t.Errorf("variant duration = %v", v.Duration.D())
	}
	if base.Duration.D() != 5*time.Minute {
		t.Errorf("Variant mutated the receiver: duration = %v", base.Duration.D())
	}
	if base.Peers[1].UploadLimit != 0 {
		t.Errorf("Variant mutated the receiver: upload_limit = %v", base.Peers[1].UploadLimit)
	}
	// An override that produces an invalid document must fail validation.
	if _, err := base.Variant([]Override{{Path: "duration", Value: "0s"}}); err == nil {
		t.Error("Variant accepted an override that invalidates the spec")
	}
}
