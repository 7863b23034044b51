package bt

import (
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/transport"
)

func TestCorruptSeedGetsBannedAndDownloadCompletes(t *testing.T) {
	// One honest seed and one corrupt seed. The leech must detect failed
	// hash checks, ban the corrupter, and still finish from the honest
	// source.
	env := newSwarmEnv(70, 1024*1024, 64*1024)
	honest := env.client(Config{Seed: true})
	corrupt := env.client(Config{Seed: true, Corrupt: true})
	leech := env.client(Config{})
	honest.Start()
	corrupt.Start()
	leech.Start()
	env.engine.RunFor(10 * time.Minute)
	if !leech.Complete() {
		t.Fatalf("leech incomplete: %.0f%% (hash fails: %d)", leech.Progress()*100, leech.HashFails())
	}
	if leech.HashFails() == 0 {
		t.Error("no hash failures recorded despite a corrupt seed")
	}
	if !leech.banned[corrupt.PeerID()] {
		t.Error("corrupt seed never banned")
	}
	if leech.banned[honest.PeerID()] {
		t.Error("honest seed banned")
	}
	// Banned peers stay disconnected.
	for _, p := range leech.peers {
		if p.id == corrupt.PeerID() {
			t.Error("still connected to the banned peer")
		}
	}
}

func TestAllCorruptSwarmNeverCompletes(t *testing.T) {
	env := newSwarmEnv(71, 512*1024, 64*1024)
	corrupt := env.client(Config{Seed: true, Corrupt: true})
	leech := env.client(Config{})
	corrupt.Start()
	leech.Start()
	env.engine.RunFor(5 * time.Minute)
	if leech.Complete() {
		t.Fatal("completed from a fully corrupt source")
	}
	if leech.BytesHave() != 0 {
		t.Errorf("verified %d bytes of corrupt data", leech.BytesHave())
	}
	if leech.HashFails() == 0 {
		t.Error("no hash failures recorded")
	}
}

func TestHonestContributorSurvivesSharedFailure(t *testing.T) {
	// An honest peer that co-contributed to one failed piece must not be
	// banned (suspicion threshold is 2).
	env := newSwarmEnv(72, 2*1024*1024, 256*1024)
	honest := env.client(Config{Seed: true})
	corrupt := env.client(Config{Seed: true, Corrupt: true})
	leech := env.client(Config{})
	honest.Start()
	corrupt.Start()
	leech.Start()
	env.engine.RunFor(10 * time.Minute)
	if !leech.Complete() {
		t.Fatalf("incomplete: %.0f%%", leech.Progress()*100)
	}
	if leech.banned[honest.PeerID()] {
		t.Error("honest co-contributor was banned")
	}
}

// rawPeer is a foreign peer the test drives by hand: it frames what it is
// told to, and answers the requests it has collected only when told to.
type rawPeer struct {
	conn transport.Conn
	reqs []*msgRequest
}

func dialRaw(t *testing.T, env *swarmEnv, target *Client, id PeerID, hello ...wireMsg) *rawPeer {
	t.Helper()
	conn, err := transport.NewSim(env.wiredStack(0, 0)).Dial(target.Addr())
	if err != nil {
		t.Fatal(err)
	}
	rp := &rawPeer{conn: conn}
	conn.SetOnMessage(func(v any) {
		if m, ok := v.(*msgRequest); ok {
			rp.reqs = append(rp.reqs, m)
		}
	})
	conn.SetOnEstablished(func() {
		rp.send(&msgHandshake{InfoHash: env.torrent.InfoHash(), PeerID: id})
		for _, m := range hello {
			rp.send(m)
		}
	})
	env.engine.RunFor(time.Second)
	return rp
}

func (rp *rawPeer) send(m wireMsg) { rp.conn.SendMessage(m, m.wireLen()) }

// serve answers, in order, the collected requests want accepts (all of them
// if want is nil) and reports how many.
func (rp *rawPeer) serve(corrupt bool, want func(r *msgRequest) bool) int {
	kept, n := rp.reqs[:0], 0
	for _, r := range rp.reqs {
		if want != nil && !want(r) {
			kept = append(kept, r)
			continue
		}
		rp.send(&msgPiece{Piece: r.Piece, Begin: r.Begin, Length: r.Length, Corrupt: corrupt})
		n++
	}
	rp.reqs = kept
	return n
}

// ofPiece accepts the requests for one piece, or for one block of it.
func ofPiece(piece int, block ...int) func(*msgRequest) bool {
	return func(r *msgRequest) bool {
		return r.Piece == piece && (len(block) == 0 || r.Begin == block[0]*BlockSize)
	}
}

// choke stops serving: the requests it holds are void.
func (rp *rawPeer) choke() {
	rp.send(msgChoke{})
	rp.reqs = nil
}

// TestHashFailureWithRecycledRecords drives attribution through recycled
// pieceProgress records: a piece that fails with two contributors is
// re-fetched from one, and the second failure, with one contributor, bans
// it. Fresh pieces verify in between, so the records in play are spare ones
// that earlier pieces — and other peers — used.
//
// The ban closes the liar, and the requests it held go back: the refill that
// follows, inside failPiece, hands a third peer a fresh piece, and with it a
// record. Were the failed piece's record spare by then, that piece would be
// the fresh one's, and failPiece would forget the wrong piece's failure.
func TestHashFailureWithRecycledRecords(t *testing.T) {
	env := newSwarmEnv(73, 12*2*BlockSize, 2*BlockSize) // 12 pieces of 2 blocks
	leech := env.client(Config{Picker: Sequential{}, RequestTimeout: time.Hour})
	if err := leech.Start(); err != nil {
		t.Fatal(err)
	}
	audit := func(stage string) {
		t.Helper()
		leech.CheckState(func(invariant, detail string) { t.Errorf("%s: %s: %s", stage, invariant, detail) })
	}
	pieces := func(ps ...int) msgBitfield {
		bits := NewBitfield(env.torrent.NumPieces())
		for _, i := range ps {
			bits.Set(i)
		}
		return msgBitfield{Bits: bits}
	}
	const honestID, liarID, thirdID = "-XX0000-honest-peer1", "-XX0000-corrupt-peer", "-XX0000-honest-peer2"

	// Fresh pieces 0-5 verify from the honest peer; their records go spare.
	honest := dialRaw(t, env, leech, honestID, pieces(0, 1, 2, 3, 4, 5), msgUnchoke{})
	for leech.have.Count() < 6 {
		if honest.serve(false, nil) == 0 {
			t.Fatalf("stalled at %d pieces", leech.have.Count())
		}
		env.engine.RunFor(time.Second)
	}
	audit("fresh pieces")

	// The honest peer learns of 4 more, sends the first block of the first,
	// and chokes; the liar, who has just those four, is asked for the rest and
	// completes piece 6 with a corrupt block: two contributors.
	for p := 6; p < 10; p++ {
		honest.send(&msgHave{Piece: p})
	}
	env.engine.RunFor(time.Second)
	honest.serve(false, ofPiece(6, 0))
	env.engine.RunFor(time.Second)
	honest.choke()
	env.engine.RunFor(time.Second)
	liar := dialRaw(t, env, leech, liarID, pieces(6, 7, 8, 9), msgUnchoke{})
	if liar.serve(true, ofPiece(6)) != 1 {
		t.Fatalf("the liar was not asked for piece 6's second block: %d requests", len(liar.reqs))
	}
	env.engine.RunFor(time.Second)
	if leech.HashFails() != 1 || !leech.failedOnce[6] || len(leech.banned) != 0 {
		t.Fatalf("after a two-contributor failure: %d hash fails, failedOnce %v, banned %v; want 1, piece 6, none",
			leech.HashFails(), leech.failedOnce, leech.banned)
	}
	audit("two-contributor failure")

	// The liar took piece 6 back, exclusively. A third peer unchokes before
	// it sends its bitfield, so it is asked for nothing until the next refill.
	third := dialRaw(t, env, leech, thirdID, msgUnchoke{}, pieces(11))
	if p := leech.peers[len(leech.peers)-1]; !p.amInterested || p.peerChoking || len(p.requestsOut) != 0 {
		t.Fatalf("third peer: interested=%v choking=%v %d requests out; want it idle", p.amInterested, p.peerChoking, len(p.requestsOut))
	}

	// The liar serves piece 6 alone: one contributor, a ban.
	if liar.serve(true, ofPiece(6)) != 2 {
		t.Fatal("piece 6 was not re-fetched from the liar alone")
	}
	env.engine.RunFor(time.Second)
	if leech.HashFails() != 2 || !leech.banned[liarID] || len(leech.banned) != 1 {
		t.Fatalf("after a one-contributor failure: %d hash fails, banned %v; want 2, the liar alone", leech.HashFails(), leech.banned)
	}
	if len(leech.failedOnce) != 0 {
		t.Errorf("failedOnce = %v after the ban; want piece 6's failure forgotten", leech.failedOnce)
	}
	if len(third.reqs) != 2 || third.reqs[0].Piece != 11 {
		t.Errorf("the ban's refill asked the third peer for %d blocks; want piece 11's two", len(third.reqs))
	}
	audit("ban")

	// The honest peers finish the download.
	for p := 10; p < env.torrent.NumPieces(); p++ {
		honest.send(&msgHave{Piece: p})
	}
	honest.send(msgUnchoke{})
	for i := 0; !leech.Complete(); i++ {
		if i == 20 {
			t.Fatalf("honest download stalled at %d of %d pieces", leech.have.Count(), env.torrent.NumPieces())
		}
		env.engine.RunFor(time.Second)
		honest.serve(false, nil)
		third.serve(false, nil)
	}
	audit("complete")
	if leech.HashFails() != 2 || len(leech.banned) != 1 {
		t.Errorf("%d hash fails, banned %v at completion", leech.HashFails(), leech.banned)
	}
}
