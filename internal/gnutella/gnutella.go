// Package gnutella models a second-generation, unstructured P2P data
// network of the kind the paper's §3.7 covers: no index server and no
// incentives — discovery is query flooding over an overlay of neighbor
// links, and transfer is a direct, sequential, single-source download from
// a responder.
//
// Of the paper's findings, §3.7 says "a subset of the issues apply" to
// such networks: the impact of server (responder) mobility, and
// upload/download contention on shared wireless channels. The incentive
// and rarest-first pathologies do not exist here — there is nothing to
// lose with an identity and downloads are in-order by construction (a
// disconnected user keeps a playable prefix). The substrate exists to
// demonstrate exactly that split.
package gnutella

import (
	"fmt"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/ordset"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/transport"
)

// NodeID identifies an overlay node.
type NodeID string

// NewNodeID derives a fresh id from a random source.
func NewNodeID(r interface{ Int63() int64 }) NodeID {
	return NodeID(fmt.Sprintf("gnut-%012x", uint64(r.Int63())&0xffffffffffff))
}

// FileKey names a shared file (stands in for keyword search).
type FileKey string

// Shared describes a file a node serves.
type Shared struct {
	Key  FileKey
	Size int64
}

// Overlay messages.
type msgQuery struct {
	ID   uint64
	Key  FileKey
	TTL  int
	Hops int
}

func (msgQuery) wireLen() int { return 25 }

type msgQueryHit struct {
	ID     uint64
	Key    FileKey
	Size   int64
	Source netem.Addr // responder's download address
	Node   NodeID
}

func (msgQueryHit) wireLen() int { return 45 }

// Download messages (the "HTTP" leg).
type msgGet struct {
	Key    FileKey
	Offset int64
	Length int
}

func (msgGet) wireLen() int { return 30 }

type msgData struct {
	Key    FileKey
	Offset int64
	Length int
}

func (m msgData) wireLen() int { return 20 + m.Length }

type gWireMsg interface{ wireLen() int }

// Hit is one discovered source.
type Hit struct {
	Key    FileKey
	Size   int64
	Source netem.Addr
	Node   NodeID
}

// Defaults.
const (
	// DefaultTTL bounds query flooding, per the classic protocol.
	DefaultTTL = 4
	// DefaultPort is the gnutella service port.
	DefaultPort = 6346
	// rangeLen is the transfer request granularity.
	rangeLen = 64 * 1024
	// hitWindow is how long a searcher collects hits before picking a
	// source.
	hitWindow = 2 * time.Second
)

// Config parameterizes a Node.
type Config struct {
	Transport transport.Interface
	// StallTimeout abandons a source that stops delivering (default 30 s)
	// and re-floods the query — the §3.7 server-mobility cost.
	StallTimeout time.Duration
}

// Node is one overlay participant: it keeps neighbor links, floods and
// routes queries, answers for its shared files, serves ranged gets, and
// downloads sequentially from one source at a time with failover.
type Node struct {
	cfg    Config
	engine *sim.Engine
	tr     transport.Interface
	id     NodeID

	neighbors []*link
	shared    map[FileKey]int64 // key → size
	seenQuery map[uint64]bool
	// routes remembers which neighbor a query arrived from, to route hits
	// back along the reverse path.
	routes map[uint64]*link

	nextQueryID uint64
	searches    map[uint64]*search
	downloads   map[FileKey]*download

	listener transport.Listener
	started  bool
	stopped  bool

	uploaded   int64
	downloaded int64

	// OnComplete fires when a download finishes, with its key.
	OnComplete func(FileKey)
}

// link is one neighbor (overlay) connection.
type link struct {
	node   *Node
	conn   transport.Conn
	closed bool
}

// search collects hits for a pending query, keyed by responding node so
// duplicate responses overwrite rather than pile up. Arrival order is
// event order, hence deterministic — pickSource walks it without sorting.
type search struct {
	key  FileKey
	hits ordset.Set[NodeID, Hit]
}

// download is one in-progress sequential fetch.
type download struct {
	key      FileKey
	size     int64
	got      int64 // contiguous bytes from the head (sequential fetch)
	conn     transport.Conn
	source   netem.Addr
	active   bool
	lastData time.Duration
	tried    map[netem.Addr]bool
}

// NewNode builds a node; call Start, then ConnectNeighbor to join the
// overlay.
func NewNode(cfg Config) *Node {
	if cfg.Transport == nil {
		panic("gnutella: Config requires Transport")
	}
	if cfg.StallTimeout == 0 {
		cfg.StallTimeout = 30 * time.Second
	}
	n := &Node{
		cfg:       cfg,
		engine:    cfg.Transport.Engine(),
		tr:        cfg.Transport,
		shared:    make(map[FileKey]int64),
		seenQuery: make(map[uint64]bool),
		routes:    make(map[uint64]*link),
		searches:  make(map[uint64]*search),
		downloads: make(map[FileKey]*download),
	}
	n.id = NewNodeID(n.engine.Rand())
	return n
}

// Addr returns the node's current service address.
func (n *Node) Addr() netem.Addr { return n.tr.Addr(DefaultPort) }

// Share registers a complete file this node serves.
func (n *Node) Share(s Shared) { n.shared[s.Key] = s.Size }

// Uploaded returns payload bytes served.
func (n *Node) Uploaded() int64 { return n.uploaded }

// Downloaded returns payload bytes received across downloads.
func (n *Node) Downloaded() int64 { return n.downloaded }

// Complete reports whether the download of key finished.
func (n *Node) Complete(key FileKey) bool {
	d, ok := n.downloads[key]
	return ok && d.got == d.size
}

// Neighbors returns the live neighbor count.
func (n *Node) Neighbors() int {
	live := 0
	for _, l := range n.neighbors {
		if !l.closed {
			live++
		}
	}
	return live
}

// Start begins listening for overlay links and download requests. It fails
// only if the listen port is taken (transport.ErrAddrInUse).
func (n *Node) Start() error {
	if n.started {
		return nil
	}
	l, err := n.tr.Listen(DefaultPort, n.accept)
	if err != nil {
		return fmt.Errorf("gnutella: start: %w", err)
	}
	n.started = true
	n.listener = l
	sim.NewTicker(n.engine, n.cfg.StallTimeout/2, n.checkStalls)
	return nil
}

// Stop leaves the overlay.
func (n *Node) Stop() {
	if !n.started || n.stopped {
		return
	}
	n.stopped = true
	n.listener.Close()
	for _, l := range append([]*link(nil), n.neighbors...) {
		if !l.closed {
			l.conn.Abort()
		}
	}
}

// ConnectNeighbor opens an overlay link to another node's address.
func (n *Node) ConnectNeighbor(addr netem.Addr) {
	conn, err := n.tr.Dial(addr)
	if err != nil {
		return // no free ephemeral port; the overlay stays as it is
	}
	n.attach(conn)
}

func (n *Node) accept(conn transport.Conn) {
	if n.stopped {
		conn.Abort()
		return
	}
	n.attach(conn)
}

func (n *Node) attach(conn transport.Conn) {
	l := &link{node: n, conn: conn}
	n.neighbors = append(n.neighbors, l)
	conn.SetOnMessage(func(v any) { n.onMessage(l, v) })
	conn.SetOnClose(func(error) {
		l.closed = true
		for i, q := range n.neighbors {
			if q == l {
				n.neighbors = append(n.neighbors[:i], n.neighbors[i+1:]...)
				break
			}
		}
	})
}

func (l *link) send(m gWireMsg) {
	if !l.closed {
		l.conn.SendMessage(m, m.wireLen())
	}
}

// Search floods a query and, after the hit window, starts (or resumes) a
// sequential download from one responder.
func (n *Node) Search(key FileKey) {
	if n.stopped {
		return
	}
	n.nextQueryID++
	id := n.nextQueryID<<16 + uint64(n.engine.Rand().Int63n(1<<16))
	n.searches[id] = &search{key: key}
	n.seenQuery[id] = true
	q := msgQuery{ID: id, Key: key, TTL: DefaultTTL, Hops: 0}
	for _, l := range n.neighbors {
		l.send(q)
	}
	n.engine.Schedule(hitWindow, func() { n.pickSource(id) })
}

func (n *Node) onMessage(l *link, v any) {
	switch m := v.(type) {
	case msgQuery:
		n.handleQuery(l, m)
	case msgQueryHit:
		n.handleQueryHit(l, m)
	case msgGet:
		n.handleGet(l, m)
	}
}

func (n *Node) handleQuery(from *link, m msgQuery) {
	if n.seenQuery[m.ID] {
		return // duplicate via another path
	}
	n.seenQuery[m.ID] = true
	n.routes[m.ID] = from
	if size, ok := n.shared[m.Key]; ok {
		from.send(msgQueryHit{ID: m.ID, Key: m.Key, Size: size, Source: n.Addr(), Node: n.id})
	}
	if m.TTL <= 1 {
		return
	}
	fwd := msgQuery{ID: m.ID, Key: m.Key, TTL: m.TTL - 1, Hops: m.Hops + 1}
	for _, l := range n.neighbors {
		if l != from {
			l.send(fwd)
		}
	}
}

func (n *Node) handleQueryHit(from *link, m msgQueryHit) {
	if s, ok := n.searches[m.ID]; ok {
		s.hits.Put(m.Node, Hit{Key: m.Key, Size: m.Size, Source: m.Source, Node: m.Node})
		return
	}
	// Not ours: route back toward the querier.
	if back, ok := n.routes[m.ID]; ok && !back.closed && back != from {
		back.send(m)
	}
}

// pickSource starts or resumes the download using collected hits.
func (n *Node) pickSource(id uint64) {
	s, ok := n.searches[id]
	if !ok {
		return
	}
	delete(n.searches, id)
	d := n.downloads[s.key]
	if d == nil {
		if s.hits.Len() == 0 {
			return
		}
		d = &download{key: s.key, size: s.hits.ValAt(0).Size, tried: make(map[netem.Addr]bool)}
		n.downloads[s.key] = d
	}
	if d.active || d.got == d.size {
		return
	}
	// Prefer an untried source; the hit index iterates in arrival order,
	// which is deterministic, so no sort is needed.
	var chosen Hit
	found := false
	s.hits.Range(func(_ NodeID, h Hit) bool {
		if !d.tried[h.Source] {
			chosen, found = h, true
			return false
		}
		return true
	})
	if !found && s.hits.Len() > 0 {
		// All tried: start over with the first responder.
		d.tried = make(map[netem.Addr]bool)
		chosen, found = s.hits.ValAt(0), true
	}
	if !found {
		n.retrySearch(d)
		return
	}
	n.fetchFrom(d, chosen.Source)
}

// fetchFrom opens the direct download connection and streams ranges
// sequentially from the current offset — resume is by byte offset, like
// an HTTP Range request.
func (n *Node) fetchFrom(d *download, src netem.Addr) {
	d.active = true
	d.source = src
	d.tried[src] = true
	d.lastData = n.engine.Now()
	conn, err := n.tr.Dial(src)
	if err != nil {
		d.active = false
		n.retrySearch(d)
		return
	}
	d.conn = conn
	conn.SetOnEstablished(func() { n.requestNext(d) })
	conn.SetOnMessage(func(v any) {
		m, ok := v.(msgData)
		if !ok || m.Key != d.key {
			return
		}
		if m.Offset == d.got {
			d.got += int64(m.Length)
			n.downloaded += int64(m.Length)
			d.lastData = n.engine.Now()
			if d.got == d.size {
				d.active = false
				conn.Close()
				if n.OnComplete != nil {
					n.OnComplete(d.key)
				}
				return
			}
			n.requestNext(d)
		}
	})
	conn.SetOnClose(func(error) {
		if d.active {
			d.active = false
			n.retrySearch(d)
		}
	})
}

func (n *Node) requestNext(d *download) {
	length := rangeLen
	if rem := d.size - d.got; rem < int64(length) {
		length = int(rem)
	}
	if length <= 0 {
		return
	}
	d.conn.SendMessage(msgGet{Key: d.key, Offset: d.got, Length: length}, msgGet{}.wireLen())
}

// retrySearch re-floods the query after a source loss.
func (n *Node) retrySearch(d *download) {
	if n.stopped || d.got == d.size {
		return
	}
	n.engine.Schedule(time.Second, func() {
		if !d.active && d.got < d.size {
			n.Search(d.key)
		}
	})
}

// checkStalls abandons sources that stopped delivering (a handed-off
// responder's connection dies only by TCP timeout; this is the
// application-level giving-up the paper's §3.5 describes).
func (n *Node) checkStalls() {
	for _, d := range n.downloads {
		if d.active && n.engine.Now()-d.lastData > n.cfg.StallTimeout {
			d.active = false
			if d.conn != nil {
				d.conn.Abort()
			}
			n.retrySearch(d)
		}
	}
}

// Serve side: the listener accepts both overlay links and download
// connections; msgGet identifies the latter.
func (n *Node) handleGet(l *link, m msgGet) {
	size, ok := n.shared[m.Key]
	if !ok || m.Offset < 0 || m.Offset >= size {
		return
	}
	length := m.Length
	if rem := size - m.Offset; rem < int64(length) {
		length = int(rem)
	}
	n.uploaded += int64(length)
	l.send(msgData{Key: m.Key, Offset: m.Offset, Length: length})
}
