package flow

import (
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
)

// A burst of streams leaves nothing behind once it drains: no idle stream
// holds a flight or queue storage, the free list is no longer than the peak
// number of streams active at once, and a stream that opens again takes a
// pooled flight instead of a new one.
func TestIdleStreamsHoldNothing(t *testing.T) {
	r := newRig(t, Config{EndToEnd: true}, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond})
	cfg := netem.AccessLinkConfig{UpRate: 100 * netem.KBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond, QueueCap: 4096}
	const n = 40
	sink, _, _ := r.echoHost(cfg, 40)
	srcs := make([]*netem.Iface, n)
	for i := range srcs {
		srcs[i], _, _ = r.fluidHost(cfg)
	}
	peak := 0
	r.fab.OnStream(func(StreamEvent) { peak = max(peak, r.fab.activeStreams) })
	r.eng.Schedule(0, func() {
		for i, src := range srcs {
			for k := 0; k <= i%4; k++ {
				r.send(src, sink, 1000)
			}
		}
	})
	r.eng.Run()
	r.audit()
	if len(r.fab.streams) != 2*n {
		t.Fatalf("%d streams opened, want %d data streams and %d replies", len(r.fab.streams), n, n)
	}
	for _, s := range r.fab.streams {
		if s.active || s.flight != nil {
			t.Fatalf("idle stream %s→%s holds a flight (active=%v)", s.key.src, s.key.dst, s.active)
		}
	}
	pooled := len(r.fab.flights)
	if pooled == 0 || pooled > peak {
		t.Fatalf("free list holds %d flights, want 1..%d (the peak active count)", pooled, peak)
	}
	for _, fl := range r.fab.flights {
		for _, p := range fl.q[:cap(fl.q)] {
			if p.pkt != nil {
				t.Fatal("a pooled flight's queue array still references a packet")
			}
		}
	}

	r.send(srcs[0], sink, 1000)
	s := r.fab.links[srcs[0].IP()].to[sink.IP()]
	if !s.active || s.flight == nil {
		t.Fatal("re-opened stream holds no flight")
	}
	if len(r.fab.flights) != pooled-1 {
		t.Fatalf("re-open left %d pooled flights, want %d: it did not reuse one", len(r.fab.flights), pooled-1)
	}
	if s.head != 0 || s.crossed != 0 || s.partial != 0 || s.qLen() != 1 || s.tick < 0 {
		t.Fatalf("reused flight not reset: head %d crossed %d partial %g queued %d tick %d", s.head, s.crossed, s.partial, s.qLen(), s.tick)
	}
	r.eng.Run()
	r.audit()
}

// Once warm, a stream's idle → active → idle cycle allocates nothing: the
// flight, its queue array and the calendar bucket all come back from their
// pools.
func TestZeroAllocStreamReopen(t *testing.T) {
	r := newRig(t, Config{EndToEnd: true}, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond})
	cfg := netem.AccessLinkConfig{UpRate: 100 * netem.KBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond}
	a, _, _ := r.fluidHost(cfg)
	b, _, capB := r.fluidHost(cfg)
	cycle := func() {
		r.send(a, b, 1000)
		r.eng.Run()
	}
	for i := 0; i < 50; i++ {
		cycle()
	}
	capB.at, capB.size = make([]time.Duration, 0, 1000), make([]int, 0, 1000)
	allocs := testing.AllocsPerRun(100, cycle)
	if allocs != 0 {
		t.Errorf("stream re-open allocates %.1f per cycle, want 0", allocs)
	}
	if len(capB.at) == 0 {
		t.Fatal("nothing delivered")
	}
}

// A calendar tick that carried more streams than spareListCap goes back to
// the spare pool without its list, so the ticks that reuse the bucket do not
// each hold the burst's capacity.
func TestBurstTickBucketKeepsNoList(t *testing.T) {
	r := newRig(t, Config{EndToEnd: true}, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond})
	cfg := netem.AccessLinkConfig{UpRate: 100 * netem.KBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond}
	const pairs = 2 * spareListCap
	srcs, dsts := make([]*netem.Iface, pairs), make([]*netem.Iface, pairs)
	for i := range srcs {
		srcs[i], _, _ = r.fluidHost(cfg)
		dsts[i], _, _ = r.fluidHost(cfg)
	}
	// Every pair delivers on the 27 ms tick: one bucket, pairs entries.
	const tick = 27 * time.Millisecond
	r.eng.Schedule(0, func() {
		for i := range srcs {
			r.send(srcs[i], dsts[i], 1000)
		}
	})
	r.eng.RunUntil(tick - time.Microsecond)
	if len(r.fab.buckets) != 1 {
		t.Fatalf("%d calendar buckets pending, want the one burst tick", len(r.fab.buckets))
	}
	var burst *bucket
	for _, b := range r.fab.buckets {
		burst = b
	}
	if len(burst.streams) != pairs {
		t.Fatalf("burst tick carries %d streams, want %d", len(burst.streams), pairs)
	}
	r.eng.Run()
	if !slices.Contains(r.fab.spare, burst) {
		t.Fatal("the drained burst bucket is not in the spare pool")
	}
	if burst.streams != nil {
		t.Fatalf("recycled burst bucket keeps a %d-entry list, want none (cap %d)", cap(burst.streams), spareListCap)
	}
	// The bucket's next tick is a small one, and its list is kept for reuse.
	r.send(srcs[0], dsts[0], 1000)
	r.eng.Run()
	if len(r.fab.spare) != 1 || r.fab.spare[0] != burst {
		t.Fatalf("%d spare buckets, want the burst bucket reused", len(r.fab.spare))
	}
	if c := cap(burst.streams); c == 0 || c > spareListCap {
		t.Fatalf("a small tick's recycled bucket keeps capacity %d, want 1..%d", c, spareListCap)
	}
}

// CheckState's flow.stream_active sees both ways a stream's flight can
// disagree with its state: an idle stream holding one, and an active stream
// holding none (or an empty queue).
func TestCheckStateSeesFlightMismatch(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(s *stream)
	}{
		{"idle stream holds a flight", func(s *stream) { s.flight = &flight{tick: -1} }},
		{"active stream holds no flight", func(s *stream) { s.active = true }},
		{"active stream's flight is empty", func(s *stream) {
			s.active = true
			s.flight = &flight{tick: -1}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, Config{EndToEnd: true}, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond})
			cfg := netem.AccessLinkConfig{UpRate: 100 * netem.KBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond}
			a, _, _ := r.fluidHost(cfg)
			b, _, _ := r.fluidHost(cfg)
			r.send(a, b, 1000)
			r.eng.Run()
			r.audit()
			c.corrupt(r.fab.streams[0])
			var got []string
			r.fab.CheckState(func(invariant, detail string) {
				if invariant == "flow.stream_active" {
					got = append(got, detail)
				}
			})
			if len(got) != 1 || !strings.Contains(got[0], r.fab.streams[0].key.src.String()) {
				t.Fatalf("flow.stream_active reports %q, want one report naming the stream", got)
			}
		})
	}
}

// Taking a stream out of a pipe's sharing set clears the slot it vacates.
func TestRemoveStreamClearsVacatedSlot(t *testing.T) {
	p := &pipe{}
	a, b, c := &stream{}, &stream{}, &stream{}
	p.streams = []*stream{a, b, c}
	removeStream(p, a)
	if len(p.streams) != 2 || p.streams[0] != b || p.streams[1] != c {
		t.Fatalf("after removing the first stream: %v", p.streams)
	}
	if tail := p.streams[:3][2]; tail != nil {
		t.Fatal("the pipe's array still references the removed stream's old slot")
	}
}
