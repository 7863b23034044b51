package trace

import (
	"strings"
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
)

func TestRecorderKeepsEmissionOrder(t *testing.T) {
	e := sim.NewEngine()
	r := NewRecorder(e, 10)
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(time.Duration(i)*time.Second, func() {
			r.Emit("src", "note", "event-%d", i)
		})
	}
	e.Run()
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("events = %d", len(evs))
	}
	for i, ev := range evs {
		if ev.Detail != "event-"+string(rune('0'+i)) {
			t.Errorf("event %d = %q", i, ev.Detail)
		}
		if ev.At != time.Duration(i)*time.Second {
			t.Errorf("event %d at %v", i, ev.At)
		}
	}
}

func TestRecorderRingEvicts(t *testing.T) {
	e := sim.NewEngine()
	r := NewRecorder(e, 3)
	for i := 0; i < 7; i++ {
		r.Emit("s", "note", "e%d", i)
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	if evs[0].Detail != "e4" || evs[2].Detail != "e6" {
		t.Errorf("ring contents: %v", evs)
	}
	if r.Total() != 7 {
		t.Errorf("Total = %d", r.Total())
	}
}

func TestRecorderDefaultCapacity(t *testing.T) {
	r := NewRecorder(sim.NewEngine(), 0)
	if len(r.ring) != 1024 {
		t.Errorf("default capacity = %d", len(r.ring))
	}
}

func TestWatchIfaceAndNetwork(t *testing.T) {
	e := sim.NewEngine()
	n := netem.NewNetwork(e, netem.NetworkConfig{})
	la := netem.NewAccessLink(e, netem.AccessLinkConfig{UpRate: 1000, DownRate: 1000})
	lb := netem.NewAccessLink(e, netem.AccessLinkConfig{UpRate: 1000, DownRate: 1000})
	ia := n.Attach(1, la, nil)
	var got []*netem.Packet
	n.Attach(2, lb, netem.HandlerFunc(func(p *netem.Packet) { got = append(got, p) }))

	r := NewRecorder(e, 64)
	WatchIface(r, "hostA", ia)
	WatchNetwork(r, "net", n)

	ia.Send(&netem.Packet{Dst: netem.Addr{IP: 2}, Size: 100, Payload: "hello"})
	ia.Send(&netem.Packet{Dst: netem.Addr{IP: 99}, Size: 100, Payload: "lost"})
	e.Run()

	if len(got) != 1 {
		t.Fatalf("delivered %d", len(got))
	}
	var egress, drops int
	for _, ev := range r.Events() {
		switch {
		case ev.Source == "hostA/egress":
			egress++
		case ev.Kind == "drop":
			drops++
		}
	}
	if egress != 2 {
		t.Errorf("egress events = %d, want 2", egress)
	}
	if drops != 1 {
		t.Errorf("drop events = %d, want 1", drops)
	}
}

func TestWatchWirelessRecordsDrops(t *testing.T) {
	e := sim.NewEngine(sim.WithSeed(5))
	ch := netem.NewWirelessChannel(e, netem.WirelessConfig{Rate: 1000, QueueCap: 1})
	r := NewRecorder(e, 64)
	WatchWireless(r, "wlan", ch)
	for i := 0; i < 5; i++ {
		ch.SendUp(&netem.Packet{Size: 1000}, netem.DeliverFunc(func(*netem.Packet) {}))
	}
	e.Run()
	found := false
	for _, ev := range r.Events() {
		if ev.Kind == "drop" && strings.Contains(ev.Detail, "queue-overflow") {
			found = true
		}
	}
	if !found {
		t.Error("no queue-overflow drop recorded")
	}
}

func TestDump(t *testing.T) {
	e := sim.NewEngine()
	r := NewRecorder(e, 8)
	r.Emit("a", "note", "hello")
	var b strings.Builder
	r.Dump(&b)
	if !strings.Contains(b.String(), "hello") || !strings.Contains(b.String(), "note") {
		t.Errorf("dump = %q", b.String())
	}
}

// TestRecorderWraparoundOrdering pins the Total/Events contract exactly at
// and around the wrap boundary.
func TestRecorderWraparoundOrdering(t *testing.T) {
	const cap = 4
	cases := []struct {
		emit  int
		first string
		last  string
	}{
		{emit: 3, first: "e0", last: "e2"},   // under capacity
		{emit: 4, first: "e0", last: "e3"},   // exactly full, not yet evicting
		{emit: 5, first: "e1", last: "e4"},   // first eviction
		{emit: 11, first: "e7", last: "e10"}, // wrapped multiple times
	}
	for _, tc := range cases {
		r := NewRecorder(sim.NewEngine(), cap)
		for i := 0; i < tc.emit; i++ {
			r.Emit("s", "note", "e%d", i)
		}
		if r.Total() != int64(tc.emit) {
			t.Errorf("emit=%d: Total = %d", tc.emit, r.Total())
		}
		evs := r.Events()
		wantLen := tc.emit
		if wantLen > cap {
			wantLen = cap
		}
		if len(evs) != wantLen {
			t.Fatalf("emit=%d: retained %d, want %d", tc.emit, len(evs), wantLen)
		}
		if evs[0].Detail != tc.first || evs[len(evs)-1].Detail != tc.last {
			t.Errorf("emit=%d: window [%s..%s], want [%s..%s]",
				tc.emit, evs[0].Detail, evs[len(evs)-1].Detail, tc.first, tc.last)
		}
		for i := 1; i < len(evs); i++ {
			if evs[i-1].At > evs[i].At {
				t.Errorf("emit=%d: events out of order at %d", tc.emit, i)
			}
		}
	}
}

// countingStringer counts String() calls to observe when formatting happens.
type countingStringer struct{ calls *int }

func (c countingStringer) String() string {
	*c.calls++
	return "formatted"
}

// TestEmitFormatsLazily proves Emit does not format: only events that are
// still retained when read pay for their Sprintf.
func TestEmitFormatsLazily(t *testing.T) {
	r := NewRecorder(sim.NewEngine(), 2)
	calls := 0
	for i := 0; i < 10; i++ {
		r.Emit("s", "note", "%v", countingStringer{&calls})
	}
	if calls != 0 {
		t.Fatalf("Emit formatted eagerly: %d String() calls before read", calls)
	}
	evs := r.Events()
	if calls != 2 {
		t.Errorf("String() calls after read = %d, want 2 (ring capacity)", calls)
	}
	for _, ev := range evs {
		if ev.Detail != "formatted" {
			t.Errorf("Detail = %q", ev.Detail)
		}
	}
}

func TestSetFilterSkipsAndDoesNotCount(t *testing.T) {
	r := NewRecorder(sim.NewEngine(), 8)
	r.SetFilter(func(source, kind string) bool { return kind == "drop" })
	r.Emit("s", "note", "skipped")
	r.Emit("s", "drop", "kept")
	if r.Total() != 1 {
		t.Errorf("Total = %d, want 1 (filtered events must not count)", r.Total())
	}
	evs := r.Events()
	if len(evs) != 1 || evs[0].Detail != "kept" {
		t.Errorf("events = %v", evs)
	}
}

func TestParseFilter(t *testing.T) {
	if ParseFilter("") != nil {
		t.Error("empty spec should return nil (record everything)")
	}
	if ParseFilter(" , ") != nil {
		t.Error("blank terms should return nil")
	}
	f := ParseFilter("wlan=drop,mobile=*")
	cases := []struct {
		source, kind string
		want         bool
	}{
		{"wlan", "drop", true},
		{"wlan", "pkt", false},
		{"mobile/egress", "pkt", true}, // source prefix match
		{"mobile/ingress", "drop", true},
		{"net", "drop", false},
	}
	for _, tc := range cases {
		if got := f(tc.source, tc.kind); got != tc.want {
			t.Errorf("filter(%q, %q) = %v, want %v", tc.source, tc.kind, got, tc.want)
		}
	}
	// Bare source term (no "=") matches every kind from that source.
	g := ParseFilter("wlan")
	if !g("wlan", "pkt") || g("net", "pkt") {
		t.Error("bare source term should match any kind from that source only")
	}
	// Bare wildcard matches everything.
	h := ParseFilter("*")
	if !h("anything", "at-all") {
		t.Error("* should match everything")
	}
}

// TestWatchPointCounters checks that recording leaves the stats registry
// alone: a recorder and its watch points register no "trace.*" counter, so
// a traced run exports exactly what an untraced one does.
func TestWatchPointCounters(t *testing.T) {
	e := sim.NewEngine()
	n := netem.NewNetwork(e, netem.NetworkConfig{})
	la := netem.NewAccessLink(e, netem.AccessLinkConfig{UpRate: 1000, DownRate: 1000})
	lb := netem.NewAccessLink(e, netem.AccessLinkConfig{UpRate: 1000, DownRate: 1000})
	ia := n.Attach(1, la, nil)
	n.Attach(2, lb, netem.HandlerFunc(func(p *netem.Packet) {}))

	r := NewRecorder(e, 64)
	WatchIface(r, "hostA", ia)
	WatchLink(r, "dslA", la)
	WatchNetwork(r, "net", n)

	ia.Send(&netem.Packet{Dst: netem.Addr{IP: 2}, Size: 100})
	ia.Send(&netem.Packet{Dst: netem.Addr{IP: 99}, Size: 100})
	e.Run()

	if r.Total() != 3 {
		t.Errorf("Total = %d, want 3 (two egress packets, one no-route drop)", r.Total())
	}
	for _, c := range e.Stats().Snapshot().Counters {
		if strings.HasPrefix(c.Name, "trace.") {
			t.Errorf("recorder registered counter %s = %d", c.Name, c.Value)
		}
	}
}

func TestWatchLinkRecordsDrops(t *testing.T) {
	e := sim.NewEngine()
	l := netem.NewAccessLink(e, netem.AccessLinkConfig{UpRate: 1000, DownRate: 1000, QueueCap: 1})
	r := NewRecorder(e, 64)
	WatchLink(r, "dsl", l)
	for i := 0; i < 5; i++ {
		l.SendUp(&netem.Packet{Size: 1000}, netem.DeliverFunc(func(*netem.Packet) {}))
	}
	e.Run()
	found := false
	for _, ev := range r.Events() {
		if ev.Source == "dsl" && ev.Kind == "drop" {
			found = true
		}
	}
	if !found {
		t.Error("no drop recorded on wired link")
	}
}

func TestShardTaggingAndMergedRead(t *testing.T) {
	mk := func(shard int, times ...time.Duration) (*sim.Engine, *Recorder) {
		e := sim.NewEngine()
		r := NewRecorder(e, 64)
		r.SetShard(shard)
		for _, at := range times {
			at := at
			e.Schedule(at, func() { r.Emit("src", "note", "shard %d at %v", shard, at) })
		}
		return e, r
	}
	e0, r0 := mk(0, 1*time.Millisecond, 3*time.Millisecond)
	e1, r1 := mk(1, 1*time.Millisecond, 2*time.Millisecond)
	e0.Run()
	e1.Run()

	evs := MergeEvents(r0, r1)
	if len(evs) != 4 {
		t.Fatalf("merged %d events, want 4", len(evs))
	}
	wantOrder := []struct {
		at    time.Duration
		shard int
	}{
		{1 * time.Millisecond, 0}, // same instant: shard 0 before shard 1
		{1 * time.Millisecond, 1},
		{2 * time.Millisecond, 1},
		{3 * time.Millisecond, 0},
	}
	for i, w := range wantOrder {
		if evs[i].At != w.at || evs[i].Shard != w.shard {
			t.Fatalf("event %d = (%v, s%d), want (%v, s%d)", i, evs[i].At, evs[i].Shard, w.at, w.shard)
		}
	}
	if s := evs[0].String(); !strings.Contains(s, "s0") {
		t.Fatalf("tagged event string missing shard column: %q", s)
	}
}

func TestUntaggedEventStringKeepsLegacyLayout(t *testing.T) {
	e := sim.NewEngine()
	r := NewRecorder(e, 8)
	r.Emit("src", "note", "hello")
	ev := r.Events()[0]
	if ev.Shard != -1 {
		t.Fatalf("untagged recorder produced shard %d", ev.Shard)
	}
	if s := ev.String(); strings.Contains(s, "s-1") {
		t.Fatalf("untagged string leaked shard column: %q", s)
	}
}

func TestDumpMerged(t *testing.T) {
	e := sim.NewEngine()
	r := NewRecorder(e, 8)
	r.SetShard(2)
	r.Emit("src", "note", "solo")
	var b strings.Builder
	DumpMerged(&b, r, nil)
	if !strings.Contains(b.String(), "s2") || !strings.Contains(b.String(), "solo") {
		t.Fatalf("merged dump = %q", b.String())
	}
}

// TestFilteredWatchCostsNothing: a packet whose watch events the filter
// rejects is counted, but neither named nor snapshotted, so the watched
// packet path stays allocation-free.
func TestFilteredWatchCostsNothing(t *testing.T) {
	e := sim.NewEngine()
	n := netem.NewNetwork(e, netem.NetworkConfig{CloudDelay: time.Millisecond})
	link := func() *netem.AccessLink {
		return netem.NewAccessLink(e, netem.AccessLinkConfig{UpRate: netem.MBps, DownRate: netem.MBps, Delay: time.Millisecond})
	}
	a := n.Attach(1, link(), nil)
	b := n.Attach(2, link(), netem.HandlerFunc(func(*netem.Packet) {}))
	r := NewRecorder(e, 8)
	r.SetFilter(func(source, kind string) bool { return source == "elsewhere" })
	WatchIface(r, "a", a)
	WatchIface(r, "b", b)
	send := func() {
		p := n.NewPacket()
		p.Dst, p.Size = netem.Addr{IP: 2}, 1000
		a.Send(p)
		e.Run()
	}
	for i := 0; i < 50; i++ { // warm the packet, event and queue pools
		send()
	}
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Errorf("a filtered-out watched packet allocates %.1f, want 0", allocs)
	}
	if r.Total() != 0 {
		t.Errorf("Total = %d, want 0", r.Total())
	}
}
