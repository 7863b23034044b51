package bt

import (
	"fmt"
	"slices"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/stats"
	"github.com/wp2p/wp2p/internal/transport"
)

// Config parameterizes a Client. Transport, Torrent, and Tracker are
// required; everything else has sensible defaults.
type Config struct {
	Transport transport.Interface
	Torrent   *MetaInfo
	Tracker   Announcer

	// PeerID is the identity announced to tracker and peers; generated if
	// empty.
	PeerID PeerID
	// Port is the listening port (default 6881).
	Port uint16
	// Picker selects pieces to fetch (default RarestFirst, the classic
	// client behaviour).
	Picker Picker
	// UploadLimiter caps upload bandwidth; may be shared across clients on
	// one host. Nil means unlimited.
	UploadLimiter *Limiter

	// Seed starts the client with the complete file.
	Seed bool
	// Corrupt makes every block this client serves fail the downloader's
	// piece verification — a faulty or malicious peer, for failure
	// injection. Downloaders discard tainted pieces and ban the sender.
	Corrupt bool
	// InitialHave starts the client with a partial piece map (cloned).
	InitialHave *Bitfield

	MaxPeers           int           // connection cap (default 20)
	UnchokeSlots       int           // regular tit-for-tat unchokes; the optimistic unchoke is additive (default 4)
	ChokeInterval      time.Duration // choker cadence (default 10s)
	OptimisticInterval time.Duration // optimistic unchoke rotation (default 30s)
	RequestTimeout     time.Duration // re-request stalled blocks (default 45s)
}

const (
	pipelineDepth = 8                // outstanding block requests per peer
	dialBackoff   = 45 * time.Second // per-address cool-down from each dial, until its handshake
)

func (c *Config) withDefaults() Config {
	out := *c
	if out.Port == 0 {
		out.Port = 6881
	}
	if out.Picker == nil {
		out.Picker = RarestFirst{}
	}
	if out.MaxPeers == 0 {
		out.MaxPeers = 20
	}
	if out.UnchokeSlots == 0 {
		out.UnchokeSlots = 4
	}
	if out.ChokeInterval == 0 {
		out.ChokeInterval = 10 * time.Second
	}
	if out.OptimisticInterval == 0 {
		out.OptimisticInterval = 30 * time.Second
	}
	if out.RequestTimeout == 0 {
		out.RequestTimeout = 45 * time.Second
	}
	return out
}

// pieceProgress tracks block arrival for one in-flight piece. Records are
// recycled through Client.spare, so a fresh piece reuses an old one's words.
type pieceProgress struct {
	piece    int
	received Bitfield // block granularity
	// tainted is set if any block came from a peer that serves corrupt
	// data; the piece will fail verification when complete.
	tainted bool
	// contributors are the distinct peer-ids that supplied blocks, in
	// arrival order; a piece has a handful at most, so a scan dedupes them.
	// A failed check cannot be attributed when several peers contributed, so
	// the piece is re-fetched exclusively from one peer; a second failure is
	// then definitive.
	contributors []PeerID
	// exclusive, when set, restricts all block requests for this piece to
	// one peer-id (attribution mode after a hash failure).
	exclusive PeerID
}

// contributed records id as a contributor of the piece.
func (pp *pieceProgress) contributed(id PeerID) {
	for _, q := range pp.contributors {
		if q == id {
			return
		}
	}
	pp.contributors = append(pp.contributors, id)
}

// Client is a BitTorrent peer: it announces to the tracker, maintains a
// swarm of wire connections, fetches pieces through its Picker, serves
// requests subject to tit-for-tat choking and the upload limiter, and seeds
// after completion.
type Client struct {
	cfg     Config
	engine  *sim.Engine
	tr      transport.Interface
	torrent *MetaInfo
	tracker Announcer
	peerID  PeerID
	picker  Picker
	ledger  *CreditLedger

	have *Bitfield
	// haveSent is the copy of have that handshakes carry: immutable once
	// sent, shared by every handshake until the next piece verifies, and nil
	// when have has moved past it.
	haveSent *Bitfield
	pending  *Bitfield // pieces currently active (being fetched)
	avail    []int     // per-piece count over connected peers
	active   []*pieceProgress
	// spare holds the records of finished pieces for reuse. A record goes
	// back only when failPiece or completePiece returns: a ban inside
	// failPiece reaches pickBlock, which must not be handed the record
	// failPiece is still reading.
	spare []*pieceProgress
	// pick is pickBlock's context, rewritten for every pick.
	pick PickContext
	// requested maps each in-flight block to its requesters, in request
	// order. Outside endgame every block has exactly one; in endgame the
	// final blocks are requested from several peers and the losers are
	// cancelled. The ordered index gives the stale-request sweep a
	// deterministic walk without sorting.
	requested requestIndex
	// stale is sweep's scratch list of timed-out requests.
	stale []staleReq

	// The messages this client sends, each written once before its first
	// send and never again (see chunk): block messages and cancels from
	// chunks, haves from a table made on the first verified piece, and the
	// handshake rebuilt only when the peer-id or the seed bit changes.
	requestMsgs chunk[msgRequest]
	pieceMsgs   chunk[msgPiece]
	cancelMsgs  chunk[msgCancel]
	haves       []msgHave
	handshake   *msgHandshake

	peers []*peerConn
	// addrs is the address table: one entry per remote host a tracker
	// returned or that connected to us, in insertion order, each with the
	// host's one connection; addrAt indexes it by IP.
	addrs  []addrEntry
	addrAt map[netem.IP]int
	// dialing counts the table's dials not yet established: each holds a
	// MaxPeers slot without being in peers.
	dialing int

	// failedOnce marks pieces whose last verification failed; their next
	// fetch runs in exclusive (single-source) attribution mode.
	failedOnce map[int]bool
	banned     map[PeerID]bool
	hashFails  int

	listener       transport.Listener
	chokeTicker    *sim.Ticker
	sweepTicker    *sim.Ticker
	announceTicker *sim.Ticker
	chk            choker

	started     bool
	stopped     bool
	bytesHave   int64
	downloaded  int64
	uploaded    int64
	downTotal   *RateEstimator
	upTotal     *RateEstimator
	completedAt time.Duration
	restarts    int

	// OnComplete fires once when the download finishes.
	OnComplete func()
	// OnPieceComplete fires for every verified piece.
	OnPieceComplete func(piece int)

	reg clientStats
}

// addrEntry is one remote host of the table and its connection, stored
// rather than inferred. peer is the host's one connection, whichever side
// dialled it: ours from dial until it closes, an accepted one from its
// handshake until it closes. So a host with a dial in flight or a peer behind
// it is never dialled again. addr is the listen address a tracker returned
// (port 0 until one does: the host connected to us first). retryAt ends the
// cool-down each dial starts; the bt handshake clears it. A crowd's client
// holds an entry per peer: TestHandshakeObjects keeps it at 40 B.
type addrEntry struct {
	id      PeerID
	addr    netem.Addr
	peer    *peerConn
	retryAt time.Duration
}

// clientStats holds the registry instruments shared by all clients on an
// engine, pre-bound once in NewClient.
type clientStats struct {
	piecesCompleted *stats.Counter
	hashFails       *stats.Counter
	chokes          *stats.Counter
	unchokes        *stats.Counter
	identityResets  *stats.Counter
	dials           *stats.Counter
	dialsFailed     *stats.Counter // closed before the transport established them
}

func (cs *clientStats) bind(reg *stats.Registry) {
	cs.piecesCompleted = reg.Counter("bt.pieces_completed")
	cs.hashFails = reg.Counter("bt.hash_fails")
	cs.chokes = reg.Counter("bt.chokes")
	cs.unchokes = reg.Counter("bt.unchokes")
	cs.identityResets = reg.Counter("bt.identity_resets")
	cs.dials = reg.Counter("bt.dials")
	cs.dialsFailed = reg.Counter("bt.dials_failed")
}

// NewClient builds a client; call Start to join the swarm.
func NewClient(cfg Config) *Client {
	if cfg.Transport == nil || cfg.Torrent == nil || cfg.Tracker == nil {
		panic("bt: Config requires Transport, Torrent, and Tracker")
	}
	c := &Client{
		cfg:         cfg.withDefaults(),
		engine:      cfg.Transport.Engine(),
		tr:          cfg.Transport,
		torrent:     cfg.Torrent,
		tracker:     cfg.Tracker,
		completedAt: -1,
	}
	c.picker = c.cfg.Picker
	c.peerID = c.cfg.PeerID
	if c.peerID == "" {
		c.peerID = NewPeerID(c.engine.Rand())
	}
	c.ledger = NewCreditLedger()
	n := c.torrent.NumPieces()
	c.have = NewBitfield(n)
	c.pending = NewBitfield(n)
	c.avail = make([]int, n)
	c.requested = newRequestIndex(c.torrent)
	c.failedOnce = make(map[int]bool)
	c.banned = make(map[PeerID]bool)
	c.addrAt = make(map[netem.IP]int)
	c.downTotal = NewRateEstimator(DefaultRateWindow)
	c.upTotal = NewRateEstimator(DefaultRateWindow)
	c.chk = choker{client: c}
	c.reg.bind(c.engine.Stats())

	switch {
	case c.cfg.Seed:
		c.have.SetAll()
		c.bytesHave = c.torrent.Length
		c.completedAt = 0
	case c.cfg.InitialHave != nil:
		c.have = c.cfg.InitialHave.Clone()
		for i := 0; i < n; i++ {
			if c.have.Has(i) {
				c.bytesHave += int64(c.torrent.PieceSize(i))
			}
		}
	}
	c.engine.Register(c)
	return c
}

// --- accessors ---

// PeerID returns the client's current identity.
func (c *Client) PeerID() PeerID { return c.peerID }

// Have returns a snapshot of the local piece map.
func (c *Client) Have() *Bitfield { return c.have.Clone() }

// Progress returns the downloaded fraction in [0, 1].
func (c *Client) Progress() float64 {
	return float64(c.bytesHave) / float64(c.torrent.Length)
}

// BytesHave returns verified payload bytes held.
func (c *Client) BytesHave() int64 { return c.bytesHave }

// Downloaded returns payload bytes received this run.
func (c *Client) Downloaded() int64 { return c.downloaded }

// Uploaded returns payload bytes served this run.
func (c *Client) Uploaded() int64 { return c.uploaded }

// DownloadRate returns the recent download rate in bytes/second.
func (c *Client) DownloadRate() float64 { return c.downTotal.Rate(c.engine.Now()) }

// Complete reports whether the file is fully downloaded.
func (c *Client) Complete() bool { return c.have.Complete() }

// CompletedAt returns when the download finished, or -1.
func (c *Client) CompletedAt() time.Duration { return c.completedAt }

// NumPeers returns the number of live wire connections.
func (c *Client) NumPeers() int { return len(c.peers) }

// Addr returns the client's current announce address.
func (c *Client) Addr() netem.Addr { return c.tr.Addr(c.cfg.Port) }

// Restarts counts task re-initiations.
func (c *Client) Restarts() int { return c.restarts }

// --- lifecycle ---

// Start joins the swarm: listen, announce, and begin the choke loop. It
// fails only if the listen port is taken (transport.ErrAddrInUse).
func (c *Client) Start() error {
	if c.started {
		return nil
	}
	l, err := c.tr.Listen(c.cfg.Port, c.onAccept)
	if err != nil {
		return fmt.Errorf("bt: start: %w", err)
	}
	c.started = true
	c.listener = l
	c.chokeTicker = sim.NewTicker(c.engine, c.cfg.ChokeInterval, c.chk.run)
	c.sweepTicker = sim.NewTicker(c.engine, c.cfg.RequestTimeout/3, c.sweep)
	c.announceTicker = sim.NewTicker(c.engine, c.tracker.Interval(), func() {
		c.announce(EventNone)
	})
	c.announce(EventStarted)
	return nil
}

// Stop leaves the swarm and tears down all connections, dials in flight
// included.
func (c *Client) Stop() {
	if !c.started || c.stopped {
		return
	}
	c.stopped = true
	c.announce(EventStopped)
	c.chokeTicker.Stop()
	c.sweepTicker.Stop()
	c.announceTicker.Stop()
	c.listener.Close()
	for _, p := range c.conns() {
		p.close()
	}
}

// conns lists the client's connections: its peers, then its dials still in
// flight. It is a copy, since closing one edits both and may dial anew.
func (c *Client) conns() []*peerConn {
	all := append([]*peerConn(nil), c.peers...)
	for i := range c.addrs {
		if p := c.addrs[i].peer; p != nil && p.dialing {
			all = append(all, p)
		}
	}
	return all
}

// Restart re-initiates the task after an address change, as a restarted
// client would: every connection and dial is torn down and the tracker is
// re-announced from the new address. If newIdentity is true a fresh peer-id
// is generated — the default client's behaviour, which forfeits all credit
// accumulated at remote peers. Verified pieces are kept (resume data
// survives a restart).
func (c *Client) Restart(newIdentity bool) {
	if !c.started || c.stopped {
		return
	}
	c.restarts++
	if newIdentity {
		// A fresh peer-id orphans every credit entry remote ledgers hold for
		// the old identity — the tit-for-tat reset the paper quantifies.
		c.peerID = NewPeerID(c.engine.Rand())
		c.reg.identityResets.Inc()
	}
	for _, p := range c.conns() {
		p.close()
	}
	c.announce(EventStarted)
}

// RedialKnown aggressively re-establishes connections to every known peer
// address, clearing dial backoffs — wP2P's role-reversal primitive.
func (c *Client) RedialKnown() {
	if !c.started || c.stopped {
		return
	}
	for i := range c.addrs {
		c.addrs[i].retryAt = 0
	}
	c.maintainConnections()
}

// --- tracker interaction ---

func (c *Client) announce(ev AnnounceEvent) {
	req := AnnounceRequest{
		InfoHash: c.torrent.InfoHash(),
		PeerID:   c.peerID,
		Addr:     c.Addr(),
		Seed:     c.have.Complete(),
		Event:    ev,
	}
	if ev == EventStopped {
		c.tracker.Announce(req, nil)
		return
	}
	c.tracker.Announce(req, func(resp AnnounceResponse) {
		if c.stopped {
			return
		}
		for _, pi := range resp.Peers {
			c.addKnown(pi)
		}
		c.maintainConnections()
	})
}

func (c *Client) addKnown(pi PeerInfo) {
	if pi.ID == c.peerID {
		return
	}
	if i, ok := c.addrAt[pi.Addr.IP]; ok {
		c.addrs[i].id, c.addrs[i].addr = pi.ID, pi.Addr
		return
	}
	c.addrAt[pi.Addr.IP] = len(c.addrs)
	c.addrs = append(c.addrs, addrEntry{id: pi.ID, addr: pi.Addr})
}

// entry is the table entry of p's host, nil while it has none: a host that
// connected to us before any tracker named it gets one at its handshake.
func (c *Client) entry(p *peerConn) *addrEntry {
	if i, ok := c.addrAt[p.addr.IP]; ok {
		return &c.addrs[i]
	}
	return nil
}

// --- connection management ---

// maintainConnections dials table hosts, oldest first, until the MaxPeers
// slots are full: each host with no connection in either direction, no
// cool-down and no ban, once. (An entry no tracker named has a connection.)
func (c *Client) maintainConnections() {
	if !c.started || c.stopped {
		return
	}
	now := c.engine.Now()
	self := c.Addr()
	for i := range c.addrs {
		if len(c.peers)+c.dialing >= c.cfg.MaxPeers {
			return
		}
		e := &c.addrs[i]
		if e.peer != nil || now < e.retryAt || e.addr == self || c.banned[e.id] {
			continue
		}
		c.dial(e)
	}
}

// dial opens the outbound connection to a table entry's address.
func (c *Client) dial(e *addrEntry) {
	e.retryAt = c.engine.Now() + dialBackoff
	conn, err := c.tr.Dial(e.addr)
	if err != nil {
		// Local resource exhaustion (no free ephemeral port); the cool-down
		// already set above spaces out the retry.
		return
	}
	c.dialing++
	c.reg.dials.Inc()
	p := newPeerConn(c, conn, e.addr, false)
	p.dialing = true
	e.peer = p
	conn.SetOnEstablished(p.onEstablished)
}

// haveMsg is the bitfield message of a handshake sent now.
func (c *Client) haveMsg() msgBitfield {
	if c.haveSent == nil {
		c.haveSent = c.have.Clone()
	}
	return msgBitfield{Bits: c.haveSent}
}

// handshakeMsg is the handshake sent now: shared by every handshake until
// the peer-id or the seed bit it carries changes.
func (c *Client) handshakeMsg() *msgHandshake {
	seed := c.have.Complete()
	if hs := c.handshake; hs == nil || hs.PeerID != c.peerID || hs.Seed != seed {
		c.handshake = &msgHandshake{InfoHash: c.torrent.InfoHash(), PeerID: c.peerID, Seed: seed}
	}
	return c.handshake
}

// haveFor is the have message announcing a verified piece. The table is
// made whole on the first piece, so no entry is written after it is sent.
func (c *Client) haveFor(piece int) *msgHave {
	if c.haves == nil {
		c.haves = make([]msgHave, c.have.Len())
		for i := range c.haves {
			c.haves[i].Piece = i
		}
	}
	return &c.haves[piece]
}

func (c *Client) onAccept(conn transport.Conn) {
	if c.stopped || len(c.peers) >= c.cfg.MaxPeers {
		conn.Abort()
		return
	}
	p := newPeerConn(c, conn, conn.RemoteAddr(), true)
	c.peers = append(c.peers, p)
	// Inbound: reply with our handshake only after seeing theirs (handled in
	// handleHandshake).
}

// peerReady runs once a peer's handshake arrives: self-connections and
// banned ids are dropped, a second connection to the peer is settled, and the
// survivor claims its host's table entry.
//
// A second connection can arise in two ways. In the simultaneous-dial race we
// dialled the host while it dialled us, so its entry holds the other
// direction, to the same peer-id or one not yet known: the connection
// initiated by the numerically smaller peer-id is kept, and both ends apply
// the same rule, so exactly one survives. A retained peer-id arriving from a
// new IP is a mobile peer reconnecting while we still hold a zombie to its old
// address (typically dying slowly by timeout): the fresh connection replaces
// it, otherwise the mobile would be locked out for the zombie's lifetime. Any
// other connection the entry holds is a zombie too (the host dialled us
// again, or restarted under a new peer-id) and is replaced the same way.
func (c *Client) peerReady(p *peerConn) {
	if p.id == c.peerID || c.banned[p.id] {
		p.close()
		return
	}
	e := c.entry(p)
	if e != nil && e.peer != nil && e.peer != p && e.peer.inbound != p.inbound &&
		(!e.peer.gotHandshake || e.peer.id == p.id) && (c.peerID < p.id) == p.inbound {
		p.close() // the race, and the other direction wins
		return
	}
	// Closing a peer edits c.peers and the table, so the losers are picked
	// out first and p claims the entry before any closes; there is almost
	// never one, and then the walk allocates nothing.
	var buf [4]*peerConn
	stale := buf[:0]
	if e == nil {
		c.addrAt[p.addr.IP] = len(c.addrs)
		c.addrs = append(c.addrs, addrEntry{addr: netem.Addr{IP: p.addr.IP}})
		e = &c.addrs[len(c.addrs)-1]
	} else if e.peer != nil && e.peer != p {
		stale = append(stale, e.peer)
	}
	for _, q := range c.peers {
		if q.gotHandshake && q.id == p.id && q.addr.IP != p.addr.IP {
			stale = append(stale, q)
		}
	}
	// The host answered: forget its cool-down.
	e.id, e.peer, e.retryAt = p.id, p, 0
	for _, q := range stale {
		q.close()
	}
}

func (c *Client) removePeer(p *peerConn) {
	if p.closed {
		return
	}
	p.closed = true
	c.release(p)
	c.returnRequests(p)
	c.availReplace(&p.remoteHas, nil)
	for i, q := range c.peers {
		if q == p {
			c.peers = append(c.peers[:i], c.peers[i+1:]...)
			break
		}
	}
	if !c.stopped {
		c.maintainConnections()
	}
}

// release empties the table entry p holds, if it holds one. An entry no
// tracker named goes with its connection: there is no address to dial the
// host at, and a mobile dialling us from every address it holds would
// otherwise leave one entry per address. The entries after it move up, so
// the table stays in insertion order.
func (c *Client) release(p *peerConn) {
	e := c.entry(p)
	if e == nil || e.peer != p {
		return
	}
	e.peer = nil
	if e.addr.Port != 0 {
		return
	}
	i := c.addrAt[p.addr.IP]
	delete(c.addrAt, p.addr.IP)
	c.addrs = slices.Delete(c.addrs, i, i+1)
	for ; i < len(c.addrs); i++ {
		c.addrAt[c.addrs[i].addr.IP] = i
	}
}

// --- availability ---

func (c *Client) availAdd(piece, delta int) {
	if piece >= 0 && piece < len(c.avail) {
		c.avail[piece] += delta
	}
}

// availReplace swaps a peer's contribution from old to new (either may be
// nil).
func (c *Client) availReplace(old, new_ *Bitfield) {
	for i := range c.avail {
		if old != nil && old.Has(i) {
			c.avail[i]--
		}
		if new_ != nil && new_.Has(i) {
			c.avail[i]++
		}
	}
}

// --- request scheduling ---

// wireBlock checks the block coordinates of a message off the wire — an
// aligned offset inside the piece, exactly that block's length — before they
// touch bt state: Length is counted and framed, a blockRef indexes requested.
func (c *Client) wireBlock(piece, begin, length int) (blockRef, bool) {
	if piece < 0 || piece >= c.have.Len() || begin < 0 || begin%BlockSize != 0 {
		return blockRef{}, false
	}
	block := begin / BlockSize
	if length <= 0 || length != c.torrent.BlockLen(piece, block) { // 0 past the last block
		return blockRef{}, false
	}
	return blockRef{piece, block}, true
}

// endgameMaxDup bounds how many peers race for one block in endgame.
const endgameMaxDup = 3

// fillRequests tops up the request pipeline toward peer p.
func (c *Client) fillRequests(p *peerConn) {
	if c.stopped || p.closed || p.peerChoking || !p.amInterested {
		return
	}
	for len(p.requestsOut) < pipelineDepth {
		piece, block := c.pickBlock(p)
		if piece < 0 {
			// Endgame: every missing block is already in flight somewhere.
			// Racing the stragglers from this peer too avoids the classic
			// last-blocks stall behind one slow or dying connection.
			piece, block = c.pickEndgameBlock(p)
			if piece < 0 {
				return
			}
		}
		ref := blockRef{piece, block}
		c.requested.add(ref, p)
		p.request(ref)
	}
}

// pickEndgameBlock chooses an in-flight block this peer could also serve,
// preferring the least-contested one.
func (c *Client) pickEndgameBlock(p *peerConn) (piece, block int) {
	if c.have.Complete() {
		return -1, -1
	}
	best := blockRef{-1, -1}
	bestOwners := endgameMaxDup
	for _, prog := range c.active {
		if !p.remoteHas.Has(prog.piece) {
			continue
		}
		if prog.exclusive != "" && prog.exclusive != p.id {
			continue // attribution mode: no endgame racing
		}
		for b := 0; b < prog.received.Len(); b++ {
			if prog.received.Has(b) {
				continue
			}
			ref := blockRef{prog.piece, b}
			if p.requestsOut.find(ref) >= 0 {
				continue
			}
			if n := c.requested.owners(ref); n < bestOwners {
				best, bestOwners = ref, n
			}
		}
	}
	return best.piece, best.block
}

// pickBlock chooses the next block to fetch from p: first unfinished active
// pieces (strict priority), then a fresh piece via the Picker.
func (c *Client) pickBlock(p *peerConn) (piece, block int) {
	for _, prog := range c.active {
		if !p.remoteHas.Has(prog.piece) {
			continue
		}
		if prog.exclusive != "" && prog.exclusive != p.id {
			continue // attribution mode: single source only
		}
		if b := c.freeBlock(prog); b >= 0 {
			return prog.piece, b
		}
	}
	c.pick = PickContext{
		Have:     c.have,
		Pending:  c.pending,
		PeerHas:  &p.remoteHas,
		Avail:    c.avail,
		Progress: c.Progress(),
		Rand:     c.engine.Rand(),
	}
	pc := c.picker.PickPiece(&c.pick)
	if pc < 0 {
		return -1, -1
	}
	prog := c.newProgress(pc)
	if c.failedOnce[pc] {
		prog.exclusive = p.id
	}
	c.active = append(c.active, prog)
	c.pending.Set(pc)
	return pc, 0
}

// newProgress returns an empty record for piece, a spare one if there is.
func (c *Client) newProgress(piece int) *pieceProgress {
	var prog *pieceProgress
	if n := len(c.spare); n > 0 {
		prog = c.spare[n-1]
		c.spare = c.spare[:n-1]
	} else {
		prog = new(pieceProgress)
	}
	prog.piece = piece
	prog.received.reset(c.torrent.NumBlocks(piece))
	prog.tainted = false
	prog.contributors = prog.contributors[:0]
	prog.exclusive = ""
	return prog
}

// freeBlock returns an unreceived, unrequested block of prog, or -1.
func (c *Client) freeBlock(prog *pieceProgress) int {
	for b := 0; b < prog.received.Len(); b++ {
		if prog.received.Has(b) {
			continue
		}
		if c.requested.owners(blockRef{prog.piece, b}) > 0 {
			continue
		}
		return b
	}
	return -1
}

// returnRequests releases every in-flight block assigned to p so other peers
// can fetch them. Draining slot 0 until the index empties walks the set in
// a deterministic (request-order-derived) sequence with no sort and no
// scratch allocation.
func (c *Client) returnRequests(p *peerConn) {
	for len(p.requestsOut) > 0 {
		ref := p.requestsOut[0].ref
		p.requestsOut.del(ref)
		c.requested.drop(ref, p)
	}
	c.refillAll()
}

func (c *Client) refillAll() {
	for _, q := range c.peers {
		if !q.closed && !q.peerChoking && q.amInterested {
			c.fillRequests(q)
		}
	}
}

// onBlock accounts an arrived block and completes pieces. corrupt marks
// payload from a faulty peer (it will fail the piece's hash check).
func (c *Client) onBlock(p *peerConn, piece, block, length int, corrupt bool) {
	ref := blockRef{piece, block}
	// Cancel any endgame racers still fetching this block. The entry is
	// taken out first so that nothing a send leads to can move it mid-walk.
	owners := c.requested.take(ref)
	for _, q := range owners.peers() {
		if q == p || q.closed {
			continue
		}
		q.requestsOut.del(ref)
		q.send(c.cancelMsgs.put(msgCancel{Piece: piece, Begin: block * BlockSize, Length: length}))
	}
	c.downloaded += int64(length)
	c.downTotal.Add(c.engine.Now(), int64(length))
	var prog *pieceProgress
	for _, pr := range c.active {
		if pr.piece == piece {
			prog = pr
			break
		}
	}
	if prog == nil || c.have.Has(piece) {
		c.fillRequests(p)
		return
	}
	prog.received.Set(block)
	prog.tainted = prog.tainted || corrupt
	prog.contributed(p.id)
	if prog.received.Complete() {
		if prog.tainted {
			c.failPiece(prog)
		} else {
			c.completePiece(prog)
		}
	}
	c.fillRequests(p)
}

// failPiece handles a hash-check failure. A multi-contributor failure
// cannot be attributed, so the piece is marked for exclusive single-source
// re-fetch; a failure with exactly one contributor is definitive and the
// peer is banned — the strategy real clients use.
func (c *Client) failPiece(prog *pieceProgress) {
	c.hashFails++
	c.reg.hashFails.Inc()
	c.removeActive(prog)
	c.pending.Clear(prog.piece)
	if len(prog.contributors) == 1 {
		c.ban(prog.contributors[0])
		delete(c.failedOnce, prog.piece)
	} else {
		c.failedOnce[prog.piece] = true
	}
	c.refillAll()
	c.spare = append(c.spare, prog)
}

func (c *Client) ban(id PeerID) {
	if c.banned[id] {
		return
	}
	c.banned[id] = true
	for _, p := range append([]*peerConn(nil), c.peers...) {
		if p.id == id {
			p.close()
		}
	}
}

// removeActive takes prog off the active list. The caller hands it to spare
// once it has stopped reading it.
func (c *Client) removeActive(prog *pieceProgress) {
	for i, pr := range c.active {
		if pr == prog {
			c.active = append(c.active[:i], c.active[i+1:]...)
			return
		}
	}
}

// HashFails reports failed piece verifications.
func (c *Client) HashFails() int { return c.hashFails }

// completePiece verifies a finished piece, records it, and announces it to
// the swarm.
func (c *Client) completePiece(prog *pieceProgress) {
	piece := prog.piece
	c.reg.piecesCompleted.Inc()
	c.removeActive(prog)
	c.pending.Clear(piece)
	delete(c.failedOnce, piece)
	c.have.Set(piece)
	c.haveSent = nil
	c.bytesHave += int64(c.torrent.PieceSize(piece))
	have := c.haveFor(piece)
	for _, p := range c.peers {
		p.send(have)
		p.updateInterest()
	}
	if c.OnPieceComplete != nil {
		c.OnPieceComplete(piece)
	}
	if c.have.Complete() && c.completedAt < 0 {
		c.completedAt = c.engine.Now()
		c.announce(EventCompleted)
		if c.OnComplete != nil {
			c.OnComplete()
		}
	}
	c.spare = append(c.spare, prog)
}

// staleReq is one timed-out request: a block and the peer it was asked of.
type staleReq struct {
	ref blockRef
	p   *peerConn
}

// sweep handles request timeouts and keeps the connection set topped up.
func (c *Client) sweep() {
	now := c.engine.Now()
	stale := c.stale[:0]
	// The ordered index iterates deterministically (slot order is a pure
	// function of the event history), so no sort is needed before acting.
	c.requested.each(func(ref blockRef, owners []*peerConn) {
		for _, p := range owners {
			if i := p.requestsOut.find(ref); i < 0 || now-p.requestsOut[i].at > c.cfg.RequestTimeout {
				stale = append(stale, staleReq{ref: ref, p: p})
			}
		}
	})
	for _, s := range stale {
		c.requested.drop(s.ref, s.p)
		if !s.p.closed {
			s.p.requestsOut.del(s.ref)
			s.p.send(c.cancelMsgs.put(msgCancel{
				Piece:  s.ref.piece,
				Begin:  s.ref.block * BlockSize,
				Length: c.torrent.BlockLen(s.ref.piece, s.ref.block),
			}))
		}
	}
	c.stale = stale[:0]
	if len(stale) > 0 {
		c.refillAll()
	}
	c.maintainConnections()
}
