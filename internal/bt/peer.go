package bt

import (
	"time"

	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/transport"
)

// peerConn is the client's view of one remote peer: wire-protocol state
// (choke/interest in both directions), the remote piece map, transfer-rate
// estimators, and the request pipelines in both directions.
type peerConn struct {
	client *Client
	conn   transport.Conn
	addr   netem.Addr // remote wire address

	id           PeerID
	inbound      bool // beside the other flags: one word for all, and the struct stays in its 320 B size class
	gotHandshake bool

	amChoking      bool
	amInterested   bool
	peerChoking    bool
	peerInterested bool

	// dialing is set from our Dial until the connection is established or
	// dies, whichever comes first: while it is, the peer counts in
	// Client.dialing and not yet in Client.peers.
	dialing bool

	// The piece map and the estimators are held by value, and the map's
	// words are made by its first Set or copyFrom: a connection is one object
	// here, and most connections of a crowd never learn of a piece.
	remoteHas Bitfield

	upRate   RateEstimator // payload bytes we sent to this peer
	downRate RateEstimator // payload bytes received from this peer

	// requestsOut tracks blocks we have asked this peer for, in request
	// order — the deterministic iteration returnRequests and the stale
	// sweep need without sorting.
	requestsOut requestList
	// cancelled marks inbound requests withdrawn while queued on the upload
	// limiter; nil until the first cancel arrives.
	cancelled map[blockRef]bool
	// sendQ holds granted blocks awaiting room in the TCP send buffer.
	// Writing them all at once would head-of-line-block our own requests
	// and haves behind bulk data — real clients pace writes the same way.
	sendQ []msgPiece

	unchokedAt  time.Duration // when we last unchoked this peer
	connectedAt time.Duration
	closed      bool

	// Wire counters for diagnostics and tests.
	reqsRcvd        int64 // requests received from the peer
	reqsDropChoked  int64 // requests ignored because the peer was choked
	reqsDropNotHave int64 // requests for pieces we lack
	badBlocks       int64 // requests and cancels dropped for naming no block of the torrent
	badBitfields    int64 // bitfields refused for being absent or not the torrent's length
	piecesSent      int64 // blocks served
	piecesRcvd      int64 // blocks received
	piecesUnwanted  int64 // blocks received without a matching request
}

func newPeerConn(c *Client, conn transport.Conn, addr netem.Addr, inbound bool) *peerConn {
	p := &peerConn{
		client:      c,
		conn:        conn,
		addr:        addr,
		inbound:     inbound,
		amChoking:   true,
		peerChoking: true,
		remoteHas:   Bitfield{n: c.torrent.NumPieces()},
		upRate:      RateEstimator{window: DefaultRateWindow},
		downRate:    RateEstimator{window: DefaultRateWindow},
		connectedAt: c.engine.Now(),
	}
	conn.SetOnMessage(p.onMessage)
	conn.SetOnClose(p.onConnClose)
	conn.SetOnWritable(p.drainSendQ)
	return p
}

// sendBufferHighWater bounds how much bulk payload we keep queued in TCP:
// enough to keep the pipe busy, shallow enough that control messages are
// never stuck behind seconds of piece data.
const sendBufferHighWater = 2 * BlockSize

// drainSendQ writes queued blocks while the TCP send buffer has room.
func (p *peerConn) drainSendQ() {
	if p.closed {
		return
	}
	for len(p.sendQ) > 0 && p.conn.Buffered() < sendBufferHighWater {
		m := p.sendQ[0]
		copy(p.sendQ, p.sendQ[1:])
		p.sendQ = p.sendQ[:len(p.sendQ)-1]
		ref := blockRef{m.Piece, m.Begin / BlockSize}
		if p.amChoking || p.cancelled[ref] {
			delete(p.cancelled, ref)
			continue
		}
		p.send(p.client.pieceMsgs.put(m))
		p.piecesSent++
		now := p.client.engine.Now()
		p.upRate.Add(now, int64(m.Length))
		p.client.uploaded += int64(m.Length)
		p.client.upTotal.Add(now, int64(m.Length))
	}
}

// send frames a wire message onto the connection.
func (p *peerConn) send(m wireMsg) {
	if p.closed {
		return
	}
	p.conn.SendMessage(m, m.wireLen())
}

func (p *peerConn) sendHandshake() {
	p.send(p.client.handshakeMsg())
	p.send(p.client.haveMsg())
}

// onEstablished runs when a connection we dialled completes its transport
// handshake.
func (p *peerConn) onEstablished() {
	c := p.client
	p.settleDial()
	if len(c.peers) >= c.cfg.MaxPeers {
		p.close()
		return
	}
	c.peers = append(c.peers, p)
	p.sendHandshake()
}

// settleDial takes the peer out of the client's count of dials in progress.
func (p *peerConn) settleDial() {
	if p.dialing {
		p.dialing = false
		p.client.dialing--
	}
}

func (p *peerConn) onConnClose(error) {
	p.settleDial() // a dial that failed before ever establishing
	p.client.removePeer(p)
}

// close tears the connection down and unregisters the peer.
func (p *peerConn) close() {
	if p.closed {
		return
	}
	p.conn.Abort() // triggers onConnClose → removePeer
}

// onMessage dispatches one message off the wire. The pointer forms are
// whatever the wire carried, nil included, so each handler checks for nil
// before it reads.
func (p *peerConn) onMessage(v any) {
	if p.closed {
		return
	}
	switch m := v.(type) {
	case *msgHandshake:
		p.handleHandshake(m)
	case msgBitfield:
		p.handleBitfield(m)
	case *msgHave:
		p.handleHave(m)
	case msgInterested:
		p.peerInterested = true
	case msgNotInterested:
		p.peerInterested = false
	case msgChoke:
		p.handleChoke()
	case msgUnchoke:
		p.handleUnchoke()
	case *msgRequest:
		p.handleRequest(m)
	case *msgPiece:
		p.handlePiece(m)
	case *msgCancel:
		p.handleCancel(m)
	}
}

func (p *peerConn) handleHandshake(m *msgHandshake) {
	if m == nil || m.InfoHash != p.client.torrent.InfoHash() {
		p.close()
		return
	}
	p.id = m.PeerID
	p.gotHandshake = true
	if p.inbound {
		// We waited to learn the torrent/peer before replying.
		p.sendHandshake()
	}
	p.client.peerReady(p)
}

func (p *peerConn) handleBitfield(m msgBitfield) {
	if !p.gotHandshake {
		p.close()
		return
	}
	// The map is whatever the wire carried: one that is absent or not the
	// torrent's length would answer Has for pieces that do not exist.
	if m.Bits == nil || m.Bits.Len() != p.remoteHas.Len() {
		p.badBitfields++
		p.close()
		return
	}
	p.client.availReplace(&p.remoteHas, m.Bits)
	p.remoteHas.copyFrom(m.Bits) // the sender's map is shared and immutable
	p.updateInterest()
}

func (p *peerConn) handleHave(m *msgHave) {
	if m == nil || m.Piece < 0 || m.Piece >= p.remoteHas.Len() {
		return
	}
	if !p.remoteHas.Has(m.Piece) {
		p.remoteHas.Set(m.Piece)
		p.client.availAdd(m.Piece, 1)
	}
	p.updateInterest()
	if p.amInterested && !p.peerChoking {
		p.client.fillRequests(p)
	}
}

func (p *peerConn) handleChoke() {
	p.peerChoking = true
	// Outstanding requests will not be serviced; return them to the pool.
	p.client.returnRequests(p)
}

func (p *peerConn) handleUnchoke() {
	p.peerChoking = false
	p.client.fillRequests(p)
}

// handleRequest serves one block through the upload limiter, provided it is
// a block of the torrent, the peer is unchoked and we have the piece.
func (p *peerConn) handleRequest(m *msgRequest) {
	p.reqsRcvd++
	if m == nil {
		p.badBlocks++
		return
	}
	ref, ok := p.client.wireBlock(m.Piece, m.Begin, m.Length)
	if !ok {
		p.badBlocks++
		return
	}
	if p.amChoking {
		p.reqsDropChoked++
		return
	}
	if !p.client.have.Has(m.Piece) {
		p.reqsDropNotHave++
		return
	}
	delete(p.cancelled, ref)
	if lim := p.client.cfg.UploadLimiter; lim != nil {
		// The grant may fire later, after cancels or choking, so it
		// re-checks both.
		lim.acquire(waiter{n: float64(m.Length), p: p, m: m})
		return
	}
	p.grant(m)
}

// grant queues one granted block for transmission, unless the request was
// withdrawn or the peer choked while the grant waited on the limiter.
func (p *peerConn) grant(m *msgRequest) {
	if p.closed || p.amChoking {
		return
	}
	if ref := (blockRef{m.Piece, m.Begin / BlockSize}); p.cancelled[ref] {
		delete(p.cancelled, ref)
		return
	}
	p.sendQ = append(p.sendQ, msgPiece{
		Piece: m.Piece, Begin: m.Begin, Length: m.Length,
		Corrupt: p.client.cfg.Corrupt,
	})
	p.drainSendQ()
}

// handleCancel withdraws a request still queued on the upload limiter.
func (p *peerConn) handleCancel(m *msgCancel) {
	if m == nil {
		p.badBlocks++
		return
	}
	ref, ok := p.client.wireBlock(m.Piece, m.Begin, m.Length)
	if !ok {
		p.badBlocks++
		return
	}
	if p.cancelled == nil {
		p.cancelled = make(map[blockRef]bool)
	}
	p.cancelled[ref] = true
}

func (p *peerConn) handlePiece(m *msgPiece) {
	if m == nil {
		p.piecesUnwanted++
		return
	}
	ref, ok := p.client.wireBlock(m.Piece, m.Begin, m.Length)
	if !ok || !p.requestsOut.del(ref) {
		p.piecesUnwanted++
		return // malformed, unsolicited or already timed out
	}
	p.piecesRcvd++
	now := p.client.engine.Now()
	p.downRate.Add(now, int64(m.Length))
	p.client.ledger.Add(p.id, int64(m.Length), now)
	p.client.onBlock(p, ref.piece, ref.block, m.Length, m.Corrupt)
}

// updateInterest recomputes and, on transitions, announces our interest.
func (p *peerConn) updateInterest() {
	want := p.remoteHas.hasAnyNotIn(p.client.have)
	if want != p.amInterested {
		p.amInterested = want
		if want {
			p.send(msgInterested{})
		} else {
			p.send(msgNotInterested{})
		}
	}
}

// setChoke sends choke/unchoke transitions to the peer.
func (p *peerConn) setChoke(choke bool) {
	if choke == p.amChoking {
		return
	}
	p.amChoking = choke
	if choke {
		p.client.reg.chokes.Inc()
		p.sendQ = p.sendQ[:0] // choked peers get nothing further
		p.send(msgChoke{})
	} else {
		p.client.reg.unchokes.Inc()
		p.unchokedAt = p.client.engine.Now()
		p.send(msgUnchoke{})
	}
}

// request sends one block request and records it.
func (p *peerConn) request(ref blockRef) {
	c := p.client
	p.requestsOut.put(ref, c.engine.Now())
	length := c.torrent.BlockLen(ref.piece, ref.block)
	p.send(c.requestMsgs.put(msgRequest{Piece: ref.piece, Begin: ref.block * BlockSize, Length: length}))
}
