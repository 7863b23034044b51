package ed2k

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/transport"
)

// Wire messages (sizes approximate the eDonkey client protocol).
type msgHello struct {
	Hash   ClientHash
	Chunks []bool // sender's chunk map
}

func (m msgHello) wireLen() int { return 32 + (len(m.Chunks)+7)/8 }

type msgHaveChunk struct{ Chunk int }

func (msgHaveChunk) wireLen() int { return 10 }

// msgJoinQueue asks for a place in the uploader's queue.
type msgJoinQueue struct{}

func (msgJoinQueue) wireLen() int { return 6 }

// msgQueueRank tells a waiter its current position.
type msgQueueRank struct{ Rank int }

func (msgQueueRank) wireLen() int { return 10 }

// msgStartUpload grants a service session.
type msgStartUpload struct{}

func (msgStartUpload) wireLen() int { return 6 }

// msgRequestChunk names the chunk the downloader wants this session.
type msgRequestChunk struct{ Chunk int }

func (msgRequestChunk) wireLen() int { return 10 }

// msgChunkData delivers one whole chunk (the framing layer spreads it over
// many TCP segments).
type msgChunkData struct {
	Chunk int
	Size  int
}

func (m msgChunkData) wireLen() int { return 10 + m.Size }

// msgEndSession closes a service session; the downloader re-joins the queue
// if it needs more.
type msgEndSession struct{}

func (msgEndSession) wireLen() int { return 6 }

type ed2kWireMsg interface{ wireLen() int }

// creditEntry tracks transfer history with one remote hash.
type creditEntry struct {
	received int64 // bytes they uploaded to us
	sent     int64 // bytes we uploaded to them
}

// modifier is the eMule-style credit multiplier applied to waiting time:
// clamped 2·received/sent, so peers that gave us data wait far shorter in
// our queue. Keyed by the persistent client hash — regenerate the hash and
// the modifier resets to 1 everywhere.
func (c creditEntry) modifier() float64 {
	if c.received == 0 {
		return 1
	}
	if c.sent == 0 {
		return 10
	}
	m := 2 * float64(c.received) / float64(c.sent)
	if m < 1 {
		return 1
	}
	if m > 10 {
		return 10
	}
	return m
}

// waiter is one entry in the upload queue.
type waiter struct {
	hash  ClientHash
	peer  *peer
	since time.Duration
}

// waitSlot is a remembered queue seniority.
type waitSlot struct {
	since   time.Duration
	expires time.Duration
}

// peer is one wire connection.
type peer struct {
	client  *Client
	conn    transport.Conn
	addr    netem.Addr
	hash    ClientHash
	inbound bool
	helloOK bool
	chunks  []bool

	waitingInTheirQueue bool // we asked them for service
	sessionOpen         bool // they granted us a session
	sessionGranted      bool // we granted them a session
	servingChunk        int  // chunk we are currently sending them, -1 if none
	pendingChunk        int  // chunk we asked them for, -1 if none

	closed bool
}

// listenPort is the eDonkey default port every client listens on.
const listenPort = 4662

// Config parameterizes a Client.
type Config struct {
	Transport transport.Interface
	Server    *Server
	File      *File

	// Seed starts with the whole file.
	Seed bool
	// InitialChunks pre-populates the chunk map (copied).
	InitialChunks []bool
	// UploadSlots is how many service sessions run at once (default 1).
	UploadSlots int
	// QueryInterval is how often sources are re-queried and the share
	// re-announced (default 2 min; the server, like the tracker, lags
	// mobility by this).
	QueryInterval time.Duration
	// WaitMemory is how long a disconnected waiter's queue seniority is
	// remembered, keyed by client hash (eMule keeps a reconnecting hash's
	// position for a grace period; default 30 min). A mobile host that
	// reconnects under a fresh hash forfeits this along with its credits.
	WaitMemory time.Duration
}

// Client is an eDonkey-style peer: it announces its shares to the index
// server, queries for sources, waits in their upload queues, and serves its
// own queue ranked by waiting time × credit.
type Client struct {
	cfg    Config
	engine *sim.Engine
	tr     transport.Interface
	file   *File
	server *Server
	hash   ClientHash

	chunks  []bool
	nChunks int
	haveCnt int
	credits map[ClientHash]*creditEntry
	queue   []*waiter
	// waitMemory remembers a departed waiter's enqueue time (and when the
	// memory expires) so a reconnecting hash resumes its seniority.
	waitMemory map[ClientHash]waitSlot
	serving    int // active service sessions
	peers      []*peer
	sources    []SourceInfo
	listener   transport.Listener
	ticker     *sim.Ticker

	// dials are our connections not yet established, in dial order: one
	// per address at most, and Stop and Restart abort them.
	dials []*peer

	downloaded int64
	uploaded   int64
	started    bool
	stopped    bool
	restarts   int

	// OnComplete fires once when the download finishes.
	OnComplete func()
}

// NewClient builds a client; call Start to join the network.
func NewClient(cfg Config) *Client {
	if cfg.Transport == nil || cfg.Server == nil || cfg.File == nil {
		panic("ed2k: Config requires Transport, Server, and File")
	}
	if cfg.UploadSlots == 0 {
		cfg.UploadSlots = 1
	}
	if cfg.QueryInterval == 0 {
		cfg.QueryInterval = 2 * time.Minute
	}
	if cfg.WaitMemory == 0 {
		cfg.WaitMemory = 30 * time.Minute
	}
	c := &Client{
		cfg:        cfg,
		engine:     cfg.Transport.Engine(),
		tr:         cfg.Transport,
		file:       cfg.File,
		server:     cfg.Server,
		nChunks:    cfg.File.NumChunks(),
		credits:    make(map[ClientHash]*creditEntry),
		waitMemory: make(map[ClientHash]waitSlot),
	}
	c.hash = NewClientHash(c.engine.Rand())
	c.chunks = make([]bool, c.nChunks)
	switch {
	case cfg.Seed:
		for i := range c.chunks {
			c.chunks[i] = true
		}
		c.haveCnt = c.nChunks
	case cfg.InitialChunks != nil:
		copy(c.chunks, cfg.InitialChunks)
		for _, b := range c.chunks {
			if b {
				c.haveCnt++
			}
		}
	}
	return c
}

// Complete reports whether the file is fully downloaded.
func (c *Client) Complete() bool { return c.haveCnt == c.nChunks }

// Downloaded returns payload bytes received.
func (c *Client) Downloaded() int64 { return c.downloaded }

// Uploaded returns payload bytes served.
func (c *Client) Uploaded() int64 { return c.uploaded }

// Addr returns the client's current address.
func (c *Client) Addr() netem.Addr { return c.tr.Addr(listenPort) }

// Start joins the network: listen, announce, query. It fails only if the
// listen port is taken (transport.ErrAddrInUse).
func (c *Client) Start() error {
	if c.started {
		return nil
	}
	l, err := c.tr.Listen(listenPort, c.onAccept)
	if err != nil {
		return fmt.Errorf("ed2k: start: %w", err)
	}
	c.started = true
	c.listener = l
	c.announceAndQuery()
	c.ticker = sim.NewTicker(c.engine, c.cfg.QueryInterval, c.announceAndQuery)
	return nil
}

// Stop leaves the network.
func (c *Client) Stop() {
	if !c.started || c.stopped {
		return
	}
	c.stopped = true
	c.ticker.Stop()
	c.listener.Close()
	c.server.Withdraw(c.file.ID, c.hash)
	for _, p := range append(append([]*peer(nil), c.peers...), c.dials...) {
		p.close()
	}
}

// Restart re-initiates the task after an address change. With newIdentity
// the client hash regenerates — forfeiting credits AND queue positions at
// every source, eDonkey's double identity penalty (paper §3.7).
func (c *Client) Restart(newIdentity bool) {
	if !c.started || c.stopped {
		return
	}
	c.restarts++
	oldHash := c.hash
	if newIdentity {
		c.hash = NewClientHash(c.engine.Rand())
		c.server.Withdraw(c.file.ID, oldHash)
	}
	for _, p := range append(append([]*peer(nil), c.peers...), c.dials...) {
		p.close()
	}
	c.announceAndQuery()
}

func (c *Client) announceAndQuery() {
	if c.stopped {
		return
	}
	if c.haveCnt > 0 {
		c.server.Announce(c.file.ID, SourceInfo{Hash: c.hash, Addr: c.Addr()})
	}
	if c.Complete() {
		return
	}
	c.server.Query(c.file.ID, func(srcs []SourceInfo) {
		if c.stopped {
			return
		}
		c.sources = srcs
		c.connectSources()
	})
}

func (c *Client) connectSources() {
	connected := make(map[ClientHash]bool, len(c.peers))
	for _, p := range c.peers {
		if p.helloOK {
			connected[p.hash] = true
		}
	}
	for _, src := range c.sources {
		dialling := slices.ContainsFunc(c.dials, func(p *peer) bool { return p.addr == src.Addr })
		if src.Hash == c.hash || connected[src.Hash] || src.Addr == c.Addr() || dialling {
			continue
		}
		c.dial(src)
	}
	// Needs may have shifted since the last hello; retry idle peers.
	for _, p := range append([]*peer(nil), c.peers...) {
		c.maybeJoinQueue(p)
	}
}

func (c *Client) dial(src SourceInfo) {
	conn, err := c.tr.Dial(src.Addr)
	if err != nil {
		// No free ephemeral port; the next source query retries.
		return
	}
	p := &peer{client: c, conn: conn, addr: src.Addr, inbound: false, servingChunk: -1, pendingChunk: -1}
	c.dials = append(c.dials, p)
	conn.SetOnEstablished(func() {
		c.dials = slices.DeleteFunc(c.dials, p.is)
		c.peers = append(c.peers, p)
		p.send(msgHello{Hash: c.hash, Chunks: append([]bool(nil), c.chunks...)})
	})
	conn.SetOnMessage(p.onMessage)
	conn.SetOnClose(func(error) { c.removePeer(p) })
}

func (c *Client) onAccept(conn transport.Conn) {
	if c.stopped {
		conn.Abort()
		return
	}
	p := &peer{client: c, conn: conn, addr: conn.RemoteAddr(), inbound: true, servingChunk: -1, pendingChunk: -1}
	c.peers = append(c.peers, p)
	conn.SetOnMessage(p.onMessage)
	conn.SetOnClose(func(error) { c.removePeer(p) })
}

func (c *Client) removePeer(p *peer) {
	if p.closed {
		return
	}
	p.closed = true
	c.peers = slices.DeleteFunc(c.peers, p.is)
	c.dials = slices.DeleteFunc(c.dials, p.is)
	// Drop from the upload queue — remembering the hash's seniority — and
	// free a slot if it was being served.
	for i, w := range c.queue {
		if w.peer == p {
			c.waitMemory[w.hash] = waitSlot{
				since:   w.since,
				expires: c.engine.Now() + c.cfg.WaitMemory,
			}
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			break
		}
	}
	if p.servingChunk >= 0 || p.sessionGranted {
		c.serving--
		p.servingChunk = -1
		p.sessionGranted = false
		c.serveNext()
	}
}

func (p *peer) is(q *peer) bool { return p == q }

func (p *peer) close() {
	if !p.closed && p.conn != nil {
		p.conn.Abort()
	}
}

func (p *peer) send(m ed2kWireMsg) {
	if !p.closed && p.conn != nil {
		p.conn.SendMessage(m, m.wireLen())
	}
}

func (p *peer) onMessage(v any) {
	if p.closed {
		return
	}
	c := p.client
	switch m := v.(type) {
	case msgHello:
		first := !p.helloOK
		p.hash = m.Hash
		p.chunks = m.Chunks
		p.helloOK = true
		if first && p.inbound {
			p.send(msgHello{Hash: c.hash, Chunks: append([]bool(nil), c.chunks...)})
		}
		c.maybeJoinQueue(p)
	case msgHaveChunk:
		if p.chunks == nil {
			p.chunks = make([]bool, c.nChunks)
		}
		if m.Chunk >= 0 && m.Chunk < len(p.chunks) {
			p.chunks[m.Chunk] = true
		}
		c.maybeJoinQueue(p)
	case msgJoinQueue:
		c.enqueue(p)
	case msgQueueRank:
		// informational
	case msgStartUpload:
		p.sessionOpen = true
		c.requestNextChunk(p)
	case msgRequestChunk:
		c.serveChunk(p, m.Chunk)
	case msgChunkData:
		c.receiveChunk(p, m)
	case msgEndSession:
		p.sessionOpen = false
		p.waitingInTheirQueue = false
		c.maybeJoinQueue(p)
	}
}

// --- download side ---

// maybeJoinQueue asks p for service if it has chunks we need.
func (c *Client) maybeJoinQueue(p *peer) {
	if c.Complete() || !p.helloOK || p.waitingInTheirQueue || p.sessionOpen {
		return
	}
	if c.pickChunk(p) < 0 {
		return
	}
	p.waitingInTheirQueue = true
	p.send(msgJoinQueue{})
}

// pickChunk selects a needed chunk p has, spread at random (eDonkey has no
// rarest-first; §3.7 notes the playability pathology does not apply).
func (c *Client) pickChunk(p *peer) int {
	candidates := make([]int, 0, c.nChunks)
	for i := 0; i < c.nChunks && i < len(p.chunks); i++ {
		if p.chunks[i] && !c.chunks[i] && !c.fetching(i) {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return -1
	}
	return candidates[c.engine.Rand().Intn(len(candidates))]
}

func (c *Client) fetching(chunk int) bool {
	for _, p := range c.peers {
		if p.pendingChunk == chunk {
			return true
		}
	}
	return false
}

func (c *Client) requestNextChunk(p *peer) {
	chunk := c.pickChunk(p)
	if chunk < 0 {
		p.sessionOpen = false
		p.waitingInTheirQueue = false
		return
	}
	p.pendingChunk = chunk
	p.send(msgRequestChunk{Chunk: chunk})
}

func (c *Client) receiveChunk(p *peer, m msgChunkData) {
	if p.pendingChunk != m.Chunk {
		return
	}
	p.pendingChunk = -1
	c.downloaded += int64(m.Size)
	cr := c.credit(p.hash)
	cr.received += int64(m.Size)
	if m.Chunk >= 0 && m.Chunk < c.nChunks && !c.chunks[m.Chunk] {
		c.chunks[m.Chunk] = true
		c.haveCnt++
		for _, q := range c.peers {
			if q.helloOK {
				q.send(msgHaveChunk{Chunk: m.Chunk})
			}
		}
		if c.haveCnt == 1 {
			// First chunk: we are now a source worth announcing.
			c.server.Announce(c.file.ID, SourceInfo{Hash: c.hash, Addr: c.Addr()})
		}
	}
	if c.Complete() && c.OnComplete != nil {
		c.OnComplete()
	}
}

// --- upload side ---

func (c *Client) credit(h ClientHash) *creditEntry {
	cr, ok := c.credits[h]
	if !ok {
		cr = &creditEntry{}
		c.credits[h] = cr
	}
	return cr
}

// enqueue adds a requester to the upload queue, restoring remembered
// seniority for a returning hash.
func (c *Client) enqueue(p *peer) {
	for _, w := range c.queue {
		if w.peer == p {
			return
		}
	}
	now := c.engine.Now()
	since := now
	if slot, ok := c.waitMemory[p.hash]; ok {
		if now < slot.expires {
			since = slot.since
		}
		delete(c.waitMemory, p.hash)
	}
	c.queue = append(c.queue, &waiter{hash: p.hash, peer: p, since: since})
	c.notifyRanks()
	c.serveNext()
}

// score ranks a waiter: waiting time scaled by the credit modifier.
func (c *Client) score(w *waiter) float64 {
	wait := (c.engine.Now() - w.since).Seconds() + 1
	return wait * c.credit(w.hash).modifier()
}

// serveNext grants sessions while slots are free.
func (c *Client) serveNext() {
	for c.serving < c.cfg.UploadSlots && len(c.queue) > 0 {
		best := 0
		for i := 1; i < len(c.queue); i++ {
			if c.score(c.queue[i]) > c.score(c.queue[best]) {
				best = i
			}
		}
		w := c.queue[best]
		c.queue = append(c.queue[:best], c.queue[best+1:]...)
		if w.peer.closed {
			continue
		}
		c.serving++
		w.peer.sessionGranted = true
		w.peer.send(msgStartUpload{})
	}
	c.notifyRanks()
}

func (c *Client) notifyRanks() {
	order := make([]*waiter, len(c.queue))
	copy(order, c.queue)
	sort.SliceStable(order, func(i, j int) bool { return c.score(order[i]) > c.score(order[j]) })
	for rank, w := range order {
		if !w.peer.closed {
			w.peer.send(msgQueueRank{Rank: rank + 1})
		}
	}
}

// serveChunk streams one chunk to a granted session and ends it.
func (c *Client) serveChunk(p *peer, chunk int) {
	if !p.sessionGranted {
		return
	}
	size := c.file.ChunkSize(chunk)
	if chunk < 0 || chunk >= c.nChunks || !c.chunks[chunk] || size == 0 {
		p.send(msgEndSession{})
		c.endSession(p)
		return
	}
	p.servingChunk = chunk
	p.send(msgChunkData{Chunk: chunk, Size: size})
	c.uploaded += int64(size)
	c.credit(p.hash).sent += int64(size)
	p.send(msgEndSession{})
	c.endSession(p)
}

func (c *Client) endSession(p *peer) {
	if p.sessionGranted {
		p.sessionGranted = false
		p.servingChunk = -1
		c.serving--
		c.serveNext()
	}
}
