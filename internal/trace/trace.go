// Package trace records structured simulation events into a bounded ring
// buffer for debugging: which packets crossed an interface, what a medium
// dropped, what a component decided. Recording costs nothing when no
// recorder is attached, and the ring keeps memory constant on long runs.
//
// Emission is lazy: Emit stores the format string and its arguments, and the
// fmt.Sprintf happens only when an event is actually read (Events, Dump).
// On a long run that wraps the ring millions of times, evicted events never
// pay for formatting. The flip side of the contract: arguments passed to
// Emit must not be mutated afterwards. Watch helpers comply by passing
// value-copied packet descriptions (see PacketInfo).
//
// A recorder writes nothing into the engine's stats registry, so tracing
// leaves every counter, series and export of a run as it was; a SetFilter
// predicate (see ParseFilter for the CLI's "source=kind" syntax) restricts
// which events are retained at all.
//
// Typical use while debugging a scenario:
//
//	rec := trace.NewRecorder(engine, 4096)
//	trace.WatchIface(rec, "mobile", iface)
//	trace.WatchWireless(rec, "wlan", channel)
//	...
//	rec.Dump(os.Stdout) // or rec.Events() for assertions
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"github.com/wp2p/wp2p/internal/flow"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/tcp"
)

// Event is one recorded observation, materialized by Events or Dump.
type Event struct {
	At     time.Duration
	Shard  int    // owning shard in a sharded world; -1 when untagged
	Source string // the watch point, e.g. "mobile/egress"
	Kind   string // e.g. "pkt", "drop", "note"
	Detail string
}

// String formats the event as a trace line. Shard-tagged events carry an
// extra "sN" column; untagged (single-engine) recordings keep the legacy
// layout.
func (e Event) String() string {
	if e.Shard >= 0 {
		return fmt.Sprintf("%12v s%-3d %-20s %-6s %s", e.At, e.Shard, e.Source, e.Kind, e.Detail)
	}
	return fmt.Sprintf("%12v %-20s %-6s %s", e.At, e.Source, e.Kind, e.Detail)
}

// record is the unformatted ring slot. The args slice is owned by the slot
// and reused across evictions, so steady-state emission does not grow the
// heap.
type record struct {
	at     time.Duration
	source string
	kind   string
	format string
	args   []any
}

// detail materializes the formatted text.
func (rec *record) detail() string {
	if len(rec.args) == 0 {
		return rec.format
	}
	return fmt.Sprintf(rec.format, rec.args...)
}

// Recorder accumulates events in a ring buffer. The zero value is not
// usable; create recorders with NewRecorder.
type Recorder struct {
	engine  *sim.Engine
	shard   int // -1 = untagged (single-engine world)
	ring    []record
	next    int
	wrapped bool
	total   int64
	filter  func(source, kind string) bool
}

// NewRecorder builds a recorder keeping the most recent capacity events.
func NewRecorder(engine *sim.Engine, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Recorder{
		engine: engine,
		shard:  -1,
		ring:   make([]record, capacity),
	}
}

// SetShard tags every event this recorder materializes with a shard id, so
// per-shard rings stay attributable after MergeEvents interleaves them.
func (r *Recorder) SetShard(i int) { r.shard = i }

// SetFilter restricts recording to events the predicate accepts; nil accepts
// everything. Filtered-out events are not retained and not counted in
// Total.
func (r *Recorder) SetFilter(f func(source, kind string) bool) { r.filter = f }

// ParseFilter compiles the CLI trace-filter syntax into a SetFilter
// predicate: a comma-separated list of source=kind patterns, where either
// side may be "*" (or empty) to match anything and the source pattern
// matches by prefix, so "wlan=drop,mobile=*" keeps wlan drops plus
// everything from watch points under "mobile". An empty spec returns nil
// (record everything).
func ParseFilter(spec string) func(source, kind string) bool {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	type pat struct{ source, kind string }
	var pats []pat
	for _, term := range strings.Split(spec, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		src, kind, ok := strings.Cut(term, "=")
		if !ok {
			kind = "*"
		}
		pats = append(pats, pat{source: src, kind: kind})
	}
	if len(pats) == 0 {
		return nil
	}
	return func(source, kind string) bool {
		for _, p := range pats {
			srcOK := p.source == "" || p.source == "*" || strings.HasPrefix(source, p.source)
			kindOK := p.kind == "" || p.kind == "*" || kind == p.kind
			if srcOK && kindOK {
				return true
			}
		}
		return false
	}
}

// Emit records an event. Formatting is deferred until the event is read, so
// args must not be mutated after the call; pass value copies (or types like
// PacketInfo) for data that lives on.
func (r *Recorder) Emit(source, kind, format string, args ...any) {
	if !r.wants(source, kind) {
		return
	}
	rec := &r.ring[r.next]
	rec.at = r.engine.Now()
	rec.source = source
	rec.kind = kind
	rec.format = format
	rec.args = append(rec.args[:0], args...)
	r.next++
	r.total++
	if r.next == len(r.ring) {
		r.next = 0
		r.wrapped = true
	}
}

// wants reports whether the filter keeps an event: watch points ask before
// they snapshot a packet, so a filtered-out one costs no work.
func (r *Recorder) wants(source, kind string) bool {
	return r.filter == nil || r.filter(source, kind)
}

// Total reports how many events were ever emitted (including evicted ones,
// excluding filtered ones).
func (r *Recorder) Total() int64 { return r.total }

// Events returns the retained events in emission order, formatting each
// on the way out.
func (r *Recorder) Events() []Event {
	var recs []*record
	if !r.wrapped {
		for i := 0; i < r.next; i++ {
			recs = append(recs, &r.ring[i])
		}
	} else {
		for i := r.next; i < len(r.ring); i++ {
			recs = append(recs, &r.ring[i])
		}
		for i := 0; i < r.next; i++ {
			recs = append(recs, &r.ring[i])
		}
	}
	out := make([]Event, len(recs))
	for i, rec := range recs {
		out[i] = Event{At: rec.at, Shard: r.shard, Source: rec.source, Kind: rec.kind, Detail: rec.detail()}
	}
	return out
}

// Dump writes the retained events as text lines.
func (r *Recorder) Dump(w io.Writer) {
	for _, e := range r.Events() {
		fmt.Fprintln(w, e)
	}
}

// MergeEvents interleaves the retained events of several recorders — one per
// shard in a sharded world — into one timeline ordered by (time, shard),
// preserving each ring's own emission order among same-instant events. The
// inputs are per-shard deterministic, so the merged timeline is identical at
// any worker count.
func MergeEvents(recs ...*Recorder) []Event {
	switch len(recs) {
	case 0:
		return nil
	case 1:
		return recs[0].Events()
	}
	type tagged struct {
		ev  Event
		ord int // position within its own ring, the same-instant tiebreak
	}
	var all []tagged
	for _, r := range recs {
		if r == nil {
			continue
		}
		for i, ev := range r.Events() {
			all = append(all, tagged{ev: ev, ord: i})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if a.ev.At != b.ev.At {
			return a.ev.At < b.ev.At
		}
		if a.ev.Shard != b.ev.Shard {
			return a.ev.Shard < b.ev.Shard
		}
		return a.ord < b.ord
	})
	out := make([]Event, len(all))
	for i := range all {
		out[i] = all[i].ev
	}
	return out
}

// DumpMerged writes the merged timeline of several recorders as text lines.
func DumpMerged(w io.Writer, recs ...*Recorder) {
	for _, e := range MergeEvents(recs...) {
		fmt.Fprintln(w, e)
	}
}

// PacketInfo is a value copy of a packet's identifying fields, safe to hand
// to Emit under the no-later-mutation contract: formatting reads these
// copied fields, not the live packet.
type PacketInfo struct {
	Src, Dst netem.Addr
	Size     int
	Payload  any
}

// String renders the packet compactly, including TCP payload detail when
// present.
func (p PacketInfo) String() string {
	return fmt.Sprintf("%s->%s %dB %v", p.Src, p.Dst, p.Size, p.Payload)
}

// packetInfo snapshots the fields the trace needs. Payloads are detached
// from the live packet: a pooled tcp.Segment is value-copied (the pointer in
// the ring would otherwise describe whatever flow reuses the struct by the
// time the record is formatted), so the no-later-mutation contract holds
// even with the data path recycling segments underneath the ring.
func packetInfo(p *netem.Packet) PacketInfo {
	info := PacketInfo{Src: p.Src, Dst: p.Dst, Size: p.Size, Payload: p.Payload}
	if seg, ok := p.Payload.(*tcp.Segment); ok {
		snap := seg.Snapshot()
		info.Payload = &snap
	}
	return info
}

// WatchIface records every packet entering and leaving an interface. The
// name labels the watch point in the trace.
func WatchIface(r *Recorder, name string, iface *netem.Iface) {
	out, in := name+"/egress", name+"/ingress"
	iface.AddEgressFilter(netem.FilterFunc(func(p *netem.Packet, pass []*netem.Packet) []*netem.Packet {
		if r.wants(out, "pkt") {
			r.Emit(out, "pkt", "%v", packetInfo(p))
		}
		return append(pass, p)
	}))
	iface.AddIngressFilter(netem.FilterFunc(func(p *netem.Packet, pass []*netem.Packet) []*netem.Packet {
		if r.wants(in, "pkt") {
			r.Emit(in, "pkt", "%v", packetInfo(p))
		}
		return append(pass, p)
	}))
}

// WatchWireless records every drop (queue overflow or corruption) on a
// wireless channel. The observer chains with any already installed (netem's
// OnDrop contract).
func WatchWireless(r *Recorder, name string, ch *netem.WirelessChannel) {
	ch.OnDrop(dropWatch(r, name))
}

// WatchLink records every drop on a wired access link. The observer chains
// with any already installed.
func WatchLink(r *Recorder, name string, l *netem.AccessLink) {
	l.OnDrop(dropWatch(r, name))
}

// WatchFlow records stream lifecycle events (open/close/rate changes) and
// drops on a fluid fabric. Observers chain with any already installed.
func WatchFlow(r *Recorder, name string, f *flow.Fabric) {
	f.OnStream(func(ev flow.StreamEvent) {
		if r.wants(name, ev.Kind) {
			r.Emit(name, ev.Kind, "%v→%v up=%v rate=%.0fB/s", ev.Src, ev.Dst, ev.Up, ev.Rate)
		}
	})
	f.OnDrop(dropWatch(r, name))
}

// WatchNetwork records packets blackholed by the routing layer (no-route
// after a handoff). The observer chains with any already installed.
func WatchNetwork(r *Recorder, name string, n *netem.Network) {
	n.OnDrop(dropWatch(r, name))
}

// dropWatch is the drop observer every watch point installs: it records the
// drop.
func dropWatch(r *Recorder, name string) func(*netem.Packet, netem.DropReason) {
	return func(p *netem.Packet, reason netem.DropReason) {
		if r.wants(name, "drop") {
			r.Emit(name, "drop", "%v %v", reason, packetInfo(p))
		}
	}
}
