package bt

import "fmt"

// PeerID identifies a client instance to its peers. The tit-for-tat credit
// a peer accumulates is keyed by this value, which is why regenerating it on
// every task re-initiation (the default client's behaviour across handoffs)
// forfeits all accumulated incentives — the failure mode of paper §3.4.
type PeerID string

// NewPeerID derives a fresh peer id from a source of randomness, mimicking
// the "function of the IP address and a random value" construction.
func NewPeerID(r interface{ Int63() int64 }) PeerID {
	return PeerID(fmt.Sprintf("-WP0001-%012x", uint64(r.Int63())&0xffffffffffff))
}

// Wire message framing constants (classic BitTorrent peer protocol).
const (
	handshakeLen = 68 // pstrlen + pstr + reserved + infohash + peerid
	msgOverhead  = 5  // 4-byte length prefix + 1-byte id
)

// msgHandshake opens the peer wire session in each direction. A client
// sends its one Client.handshake, written once and shared until the peer-id
// or the seed bit changes.
type msgHandshake struct {
	InfoHash InfoHash
	PeerID   PeerID
	Seed     bool // advertised so tests can observe role; not used by logic
}

func (msgHandshake) wireLen() int { return handshakeLen }

// msgChoke tells the peer we will not service its requests.
type msgChoke struct{}

func (msgChoke) wireLen() int { return msgOverhead }

// msgUnchoke tells the peer its requests will be serviced.
type msgUnchoke struct{}

func (msgUnchoke) wireLen() int { return msgOverhead }

// msgInterested signals we want pieces the peer has.
type msgInterested struct{}

func (msgInterested) wireLen() int { return msgOverhead }

// msgNotInterested signals we need nothing from the peer.
type msgNotInterested struct{}

func (msgNotInterested) wireLen() int { return msgOverhead }

// msgHave announces possession of one verified piece. A client sends an entry
// of its Client.haves table, which is made whole before the first send.
type msgHave struct{ Piece int }

func (msgHave) wireLen() int { return msgOverhead + 4 }

// msgBitfield announces the full piece map right after the handshake. Bits is
// never written after the send (Client.haveMsg), so one map serves every
// handshake, tcp retransmission and another shard's engine, and the receiver
// copies it into its own (handleBitfield).
type msgBitfield struct{ Bits *Bitfield }

func (m msgBitfield) wireLen() int { return msgOverhead + (m.Bits.Len()+7)/8 }

// msgRequest asks for one block.
type msgRequest struct {
	Piece  int
	Begin  int
	Length int
}

func (msgRequest) wireLen() int { return msgOverhead + 12 }

// msgPiece delivers one block of payload. Corrupt marks data that will fail
// the receiver's hash check (payload bytes are counted, not stored, so
// provenance stands in for content integrity).
type msgPiece struct {
	Piece   int
	Begin   int
	Length  int
	Corrupt bool
}

func (m msgPiece) wireLen() int { return msgOverhead + 8 + m.Length }

// msgCancel withdraws a pending request. Cancels come from a chunk, as block
// messages do.
type msgCancel struct {
	Piece  int
	Begin  int
	Length int
}

func (msgCancel) wireLen() int { return msgOverhead + 12 }

// wireMsg is implemented by every peer protocol message.
type wireMsg interface{ wireLen() int }

// msgChunk is how many block messages share one allocation.
const msgChunk = 32

// chunk hands out the per-block messages (*msgRequest, *msgPiece, *msgCancel)
// as pointers into arrays of msgChunk, so that sending one boxes nothing. A slot is
// written once, before the send, and a chunk is never recycled, so a message
// is immutable to tcp retransmission, the net backend's queue and another
// shard's engine without a Migrate copy or a release hook (DESIGN §9).
type chunk[T any] struct{ unwritten []T }

func (k *chunk[T]) put(v T) *T {
	if len(k.unwritten) == 0 {
		k.unwritten = make([]T, msgChunk)
	}
	m := &k.unwritten[0]
	*m = v
	k.unwritten = k.unwritten[1:]
	return m
}
