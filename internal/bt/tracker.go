package bt

import (
	"fmt"
	"time"

	"github.com/wp2p/wp2p/internal/check"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/ordset"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/stats"
)

// AnnounceEvent marks the lifecycle stage of an announce.
type AnnounceEvent int

// Announce events.
const (
	EventNone AnnounceEvent = iota
	EventStarted
	EventCompleted
	EventStopped
)

// AnnounceRequest is a client's periodic report to the tracker.
type AnnounceRequest struct {
	InfoHash InfoHash
	PeerID   PeerID
	Addr     netem.Addr
	Seed     bool
	Event    AnnounceEvent
	NumWant  int // max peers wanted in the reply (default DefaultNumWant)
}

// PeerInfo is one tracker directory entry.
type PeerInfo struct {
	ID   PeerID
	Addr netem.Addr
	Seed bool
}

// AnnounceResponse is the tracker's reply.
type AnnounceResponse struct {
	Interval time.Duration // when to announce next
	Peers    []PeerInfo
}

// Tracker defaults.
const (
	// DefaultNumWant matches the 50-address replies the paper describes.
	DefaultNumWant = 50
	// DefaultAnnounceInterval is deliberately minutes-scale: "peer address
	// updates in BitTorrent happen at the granularity of tens of minutes";
	// we scale to keep simulations tractable while preserving the property
	// that tracker knowledge lags mobility.
	DefaultAnnounceInterval = 3 * time.Minute
	// DefaultTrackerRTT models announce request/response latency.
	DefaultTrackerRTT = 100 * time.Millisecond
)

// Announcer is the client's view of a tracker: Announce eventually answers
// with a peer list, Interval paces re-announces. *Tracker implements it
// directly; a sharded world substitutes a proxy that relays announces to the
// tracker's home shard through the fabric.
type Announcer interface {
	Announce(req AnnounceRequest, cb func(AnnounceResponse))
	Interval() time.Duration
}

// Tracker is the per-torrent directory server: it records which peers are in
// each swarm and answers announces with a random subset of addresses.
// Entries not refreshed within two intervals are pruned, which is exactly
// why a handed-off mobile peer's stale address lingers in other peers' lists
// for minutes (paper §3.5).
//
// The per-swarm directory is an ordset.Set — peers occupy dense slots
// assigned at first announce — so every announce is O(want): insertion,
// address update, and removal are O(1) map+slot operations, the reply is a
// partial-shuffle sample instead of a sort-plus-full-shuffle over the whole
// swarm, and expiry amortizes to O(1) via a monotonic last-seen queue
// (DESIGN.md §17).
type Tracker struct {
	engine   *sim.Engine
	interval time.Duration
	swarms   map[InfoHash]*swarmIndex
	// order holds the swarms in first-announce order — the deterministic
	// iteration the digest and invariant hooks need without sorting.
	order []InfoHash

	// Announces counts announce requests, for tests.
	Announces int

	regAnnounces   *stats.Counter
	regReannounces *stats.Counter
}

// swarmIndex is one swarm's peer directory: the slot-indexed peer set, an
// O(1) seed tally, and the lazy-expiry queue.
type swarmIndex struct {
	peers ordset.Set[PeerID, trackerEntry]
	seeds int
	// expiry records (peer, lastSeen) in announce order. The engine clock
	// is monotone, so the queue is sorted by lastSeen: pruning pops from
	// the front until it meets a record inside the window. A record whose
	// lastSeen no longer matches the live entry is stale — the peer
	// re-announced after the record was queued — and is discarded,
	// leaving its newer record deeper in the queue.
	expiry expiryQueue
}

type trackerEntry struct {
	info     PeerInfo
	lastSeen time.Duration
}

// expiryQueue is a FIFO of (peer, lastSeen) records backed by a sliding
// slice: pop advances a head index, push appends, and the consumed prefix
// is compacted away once it outgrows the live tail.
type expiryQueue struct {
	recs []expiryRec
	head int
}

type expiryRec struct {
	id   PeerID
	seen time.Duration
}

func (q *expiryQueue) len() int           { return len(q.recs) - q.head }
func (q *expiryQueue) front() expiryRec   { return q.recs[q.head] }
func (q *expiryQueue) at(i int) expiryRec { return q.recs[q.head+i] }

func (q *expiryQueue) push(r expiryRec) {
	q.recs = append(q.recs, r)
}

func (q *expiryQueue) pop() {
	q.head++
	if q.head >= 64 && q.head*2 >= len(q.recs) {
		n := copy(q.recs, q.recs[q.head:])
		q.recs = q.recs[:n]
		q.head = 0
	}
}

// TrackerConfig parameterizes a Tracker.
type TrackerConfig struct {
	Interval time.Duration // announce interval handed to clients
}

// NewTracker builds an empty tracker and registers it with the engine so
// invariant sweeps and determinism digests cover the swarm directories.
func NewTracker(engine *sim.Engine, cfg TrackerConfig) *Tracker {
	if cfg.Interval == 0 {
		cfg.Interval = DefaultAnnounceInterval
	}
	t := &Tracker{
		engine:         engine,
		interval:       cfg.Interval,
		swarms:         make(map[InfoHash]*swarmIndex),
		regAnnounces:   engine.Stats().Counter("bt.tracker.announces"),
		regReannounces: engine.Stats().Counter("bt.tracker.reannounces"),
	}
	engine.Register(t)
	return t
}

// Interval returns the announce interval the tracker hands to clients.
func (t *Tracker) Interval() time.Duration { return t.interval }

// Announce registers or refreshes a peer and replies (after the simulated
// RTT) with up to NumWant other swarm members.
func (t *Tracker) Announce(req AnnounceRequest, cb func(AnnounceResponse)) {
	t.engine.Schedule(DefaultTrackerRTT, func() {
		resp := t.HandleAnnounce(req)
		if cb != nil {
			t.engine.Schedule(DefaultTrackerRTT, func() { cb(resp) })
		}
	})
}

// HandleAnnounce processes one announce synchronously at the tracker — the
// request-arrival instant, with the RTT legs supplied by the caller. The
// sharded announce proxy uses it directly so both latency legs ride the
// cross-shard fabric instead of being scheduled here.
func (t *Tracker) HandleAnnounce(req AnnounceRequest) AnnounceResponse {
	t.Announces++
	t.regAnnounces.Inc()
	if req.Event == EventNone {
		// Periodic refresh, not a lifecycle transition — the steady
		// re-announce load whose cadence bounds how stale tracker
		// knowledge of a moved peer can get.
		t.regReannounces.Inc()
	}
	return t.handle(req)
}

// expireBefore is the prune horizon: entries that have missed two announce
// windows (plus the request latency) are dropped.
func (t *Tracker) expireBefore(now time.Duration) time.Duration {
	return now - (2*t.interval + DefaultTrackerRTT)
}

func (t *Tracker) handle(req AnnounceRequest) AnnounceResponse {
	sw := t.swarms[req.InfoHash]
	if sw == nil {
		sw = &swarmIndex{}
		t.swarms[req.InfoHash] = sw
		t.order = append(t.order, req.InfoHash)
	}
	now := t.engine.Now()

	sw.expire(t.expireBefore(now))

	if req.Event == EventStopped {
		sw.remove(req.PeerID)
	} else {
		sw.upsert(trackerEntry{
			info:     PeerInfo{ID: req.PeerID, Addr: req.Addr, Seed: req.Seed || req.Event == EventCompleted},
			lastSeen: now,
		})
	}

	want := req.NumWant
	if want <= 0 {
		want = DefaultNumWant
	}
	replyCap := want
	if m := sw.peers.Len(); replyCap > m {
		replyCap = m
	}
	peers := make([]PeerInfo, 0, replyCap)
	sw.peers.SampleExcluding(t.engine.Rand(), want, req.PeerID, func(_ PeerID, e trackerEntry) {
		peers = append(peers, e.info)
	})
	return AnnounceResponse{Interval: t.interval, Peers: peers}
}

// upsert inserts or refreshes a peer entry, keeping the seed tally and the
// expiry queue in step.
func (sw *swarmIndex) upsert(e trackerEntry) {
	if old, ok := sw.peers.Get(e.info.ID); ok {
		if old.info.Seed != e.info.Seed {
			if e.info.Seed {
				sw.seeds++
			} else {
				sw.seeds--
			}
		}
		sw.peers.Put(e.info.ID, e)
	} else {
		sw.peers.Put(e.info.ID, e)
		if e.info.Seed {
			sw.seeds++
		}
	}
	sw.expiry.push(expiryRec{id: e.info.ID, seen: e.lastSeen})
}

// remove deletes a peer entry if present. Its queue records turn stale and
// are discarded as they surface.
func (sw *swarmIndex) remove(id PeerID) {
	if e, ok := sw.peers.Delete(id); ok && e.info.Seed {
		sw.seeds--
	}
}

// expire lazily prunes entries last seen at or before the horizon. Queue
// records are in lastSeen order (the engine clock is monotone), so every
// expired entry's newest record sits in the already-expired prefix — the
// pop loop removes exactly the set a full scan would, amortized O(1) per
// announce.
func (sw *swarmIndex) expire(horizon time.Duration) {
	for sw.expiry.len() > 0 {
		rec := sw.expiry.front()
		if rec.seen > horizon {
			return
		}
		sw.expiry.pop()
		if e, ok := sw.peers.Get(rec.id); ok && e.lastSeen == rec.seen {
			sw.remove(rec.id)
		}
	}
}

// SwarmSize reports current members of a swarm, for tests and metrics.
func (t *Tracker) SwarmSize(h InfoHash) int {
	if sw := t.swarms[h]; sw != nil {
		return sw.peers.Len()
	}
	return 0
}

// Seeds reports how many current members are seeds — an O(1) counter
// maintained across announce, completion, stop, and expiry.
func (t *Tracker) Seeds(h InfoHash) int {
	if sw := t.swarms[h]; sw != nil {
		return sw.seeds
	}
	return 0
}

// CheckState audits every swarm index (check.Checkable): slot-map ↔ array
// coherence, the O(1) seed tally against a recount, expiry-queue
// monotonicity, and that every live entry's lastSeen is still represented
// in the queue (otherwise it could never expire).
func (t *Tracker) CheckState(report func(invariant, detail string)) {
	for _, h := range t.order {
		sw := t.swarms[h]
		sw.peers.CheckCoherent(func(detail string) {
			report("bt.tracker.index", fmt.Sprintf("swarm %s: %s", h, detail))
		})

		seeds := 0
		sw.peers.Range(func(_ PeerID, e trackerEntry) bool {
			if e.info.Seed {
				seeds++
			}
			return true
		})
		if seeds != sw.seeds {
			report("bt.tracker.seeds",
				fmt.Sprintf("swarm %s: seed counter %d, recount %d", h, sw.seeds, seeds))
		}

		covered := make(map[PeerID]time.Duration, sw.peers.Len())
		for i, n := 0, sw.expiry.len(); i < n; i++ {
			rec := sw.expiry.at(i)
			if i > 0 && rec.seen < sw.expiry.at(i-1).seen {
				report("bt.tracker.expiry_order",
					fmt.Sprintf("swarm %s: queue record %d regresses (%v after %v)",
						h, i, rec.seen, sw.expiry.at(i-1).seen))
				break
			}
			covered[rec.id] = rec.seen
		}
		sw.peers.Range(func(id PeerID, e trackerEntry) bool {
			if covered[id] != e.lastSeen {
				report("bt.tracker.expiry_coverage",
					fmt.Sprintf("swarm %s: entry %s lastSeen %v has no queue record", h, id, e.lastSeen))
				return false
			}
			return true
		})
	}
}

// DigestInto folds the tracker directory into a determinism digest
// (check.Digestable). Swarms are walked in first-announce order and peers
// in slot order — both pure functions of the event history, so equal
// trajectories hash equal without any sorting.
func (t *Tracker) DigestInto(d *check.Digest) {
	d.Str("bt.Tracker")
	d.Int(len(t.order))
	for _, h := range t.order {
		sw := t.swarms[h]
		d.Str(string(h[:]))
		d.Int(sw.peers.Len())
		d.Int(sw.seeds)
		d.Int(sw.expiry.len())
		sw.peers.Range(func(id PeerID, e trackerEntry) bool {
			d.Str(string(id))
			d.U64(uint64(e.info.Addr.IP))
			d.U64(uint64(e.info.Addr.Port))
			d.Bool(e.info.Seed)
			d.I64(int64(e.lastSeen))
			return true
		})
	}
}
