package bt

import (
	"math/rand"
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/ordset"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/transport"
)

// TestRequestIndexMatchesOrdset pins the one property the digests depend on:
// requestIndex and requestList assign slots exactly as the ordset.Sets they
// replaced did. Both are driven beside a Set through a few hundred random
// histories of the operations the client performs — first request, endgame
// racer (an overwrite of the owner list), dropped requester, arrived block,
// and returnRequests' drain of slot 0 — and every slot is compared after
// every operation. ordset.Set itself is checked against a map-and-slot-array
// model in its own package (TestSetMatchesReference).
func TestRequestIndexMatchesOrdset(t *testing.T) {
	torrent := NewMetaInfo("idx", 5*64*1024-20*1024, 64*1024) // 5 pieces of 4 blocks, the last piece 3
	peers := make([]*peerConn, endgameMaxDup+2)
	for i := range peers {
		peers[i] = &peerConn{}
	}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		idx := newRequestIndex(torrent)
		var ref ordset.Set[blockRef, []*peerConn]
		var list requestList
		var refList ordset.Set[blockRef, time.Duration]

		same := func(step int) {
			t.Helper()
			if idx.Len() != ref.Len() || len(list) != refList.Len() {
				t.Fatalf("seed %d step %d: Len = %d / %d, ordset %d / %d",
					seed, step, idx.Len(), len(list), ref.Len(), refList.Len())
			}
			var slots []blockRef
			idx.each(func(b blockRef, _ []*peerConn) { slots = append(slots, b) })
			for i := 0; i < ref.Len(); i++ {
				if slots[i] != ref.KeyAt(i) {
					t.Fatalf("seed %d step %d: slot %d holds %v, ordset %v", seed, step, i, slots[i], ref.KeyAt(i))
				}
				got, want := idx.ents[i].peers(), ref.ValAt(i)
				if len(got) != len(want) || idx.owners(ref.KeyAt(i)) != len(want) {
					t.Fatalf("seed %d step %d: slot %d has %d owners, ordset %d", seed, step, i, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("seed %d step %d: slot %d owner %d differs", seed, step, i, j)
					}
				}
			}
			for i := 0; i < refList.Len(); i++ {
				if list[i].ref != refList.KeyAt(i) || list[i].at != refList.ValAt(i) {
					t.Fatalf("seed %d step %d: list slot %d holds %v, ordset (%v, %v)",
						seed, step, i, list[i], refList.KeyAt(i), refList.ValAt(i))
				}
			}
			idx.checkCoherent(func(detail string) { t.Fatalf("seed %d step %d: %s", seed, step, detail) })
		}
		refDrop := func(b blockRef, p *peerConn) { // the parent's dropRequester
			var rest []*peerConn
			for _, q := range ref.Val(b) {
				if q != p {
					rest = append(rest, q)
				}
			}
			switch {
			case len(rest) == 0:
				ref.Delete(b)
			case len(rest) < len(ref.Val(b)):
				ref.Put(b, rest)
			}
		}

		for step := 0; step < 200; step++ {
			piece := rng.Intn(torrent.NumPieces())
			b := blockRef{piece, rng.Intn(torrent.NumBlocks(piece))}
			p := peers[rng.Intn(len(peers))]
			at := time.Duration(step)
			switch op := rng.Intn(10); {
			case op < 5: // fillRequests: a first requester, or one more racer
				owners := ref.Val(b)
				racing := false
				for _, q := range owners {
					racing = racing || q == p
				}
				if !racing && len(owners) < endgameMaxDup {
					idx.add(b, p)
					ref.Put(b, append(append([]*peerConn(nil), owners...), p))
				}
				list.put(b, at) // a key already listed keeps its slot and takes the new time
				refList.Put(b, at)
			case op < 7: // sweep, or a peer returning its requests
				idx.drop(b, p)
				refDrop(b, p)
				if got, want := list.del(b), refList.Has(b); got != want {
					t.Fatalf("seed %d step %d: del(%v) = %v, ordset had it: %v", seed, step, b, got, want)
				}
				refList.Delete(b)
			case op < 9: // onBlock
				got, want := idx.take(b), ref.Val(b)
				if len(got.peers()) != len(want) {
					t.Fatalf("seed %d step %d: take(%v) returned %d owners, ordset %d", seed, step, b, len(got.peers()), len(want))
				}
				ref.Delete(b)
			default: // returnRequests: drain slot 0
				for n := rng.Intn(4); n > 0 && len(list) > 0; n-- {
					head := list[0].ref
					list.del(head)
					refList.Delete(head)
					same(step)
				}
			}
			same(step)
		}
	}
}

// threeRacers builds a leech and three seeds whose upload limiters grant
// nothing, on a one-piece torrent of four blocks: once every seed has
// unchoked, each block is in flight with endgameMaxDup requesters.
func threeRacers(t *testing.T) (env *swarmEnv, leech *Client, lims []*Limiter) {
	env = newSwarmEnv(52, 4*BlockSize, 4*BlockSize)
	for i := 0; i < endgameMaxDup; i++ {
		lim := NewLimiter(env.engine, 1)     // 1 B/s: a grant takes hours
		lim.Acquire(DefaultBurst, func() {}) // spend the opening burst
		lims = append(lims, lim)
		if err := env.client(Config{Seed: true, UploadLimiter: lim}).Start(); err != nil {
			t.Fatal(err)
		}
	}
	leech = env.client(Config{RequestTimeout: time.Hour})
	if err := leech.Start(); err != nil {
		t.Fatal(err)
	}
	env.engine.RunFor(15 * time.Second) // past the first choke round
	return env, leech, lims
}

// TestEndgameThreeRacers walks requested through the life of a contested
// block: the inline requester slots fill to endgameMaxDup in request order,
// losing the middle racer keeps the other two in order, and the winner's
// block cancels the last racer and empties the index.
func TestEndgameThreeRacers(t *testing.T) {
	env, leech, lims := threeRacers(t)
	if leech.requested.Len() != 4 {
		t.Fatalf("%d blocks in flight, want all 4", leech.requested.Len())
	}
	var first []*peerConn
	leech.requested.each(func(ref blockRef, owners []*peerConn) {
		if len(owners) != endgameMaxDup {
			t.Fatalf("block %v has %d requesters, want %d", ref, len(owners), endgameMaxDup)
		}
		if first == nil {
			first = append(first, owners...)
		}
		for i, p := range owners {
			if p != first[i] {
				t.Errorf("block %v requester %d differs from block 0's: request order lost", ref, i)
			}
			if p.requestsOut.find(ref) < 0 {
				t.Errorf("block %v requester %d does not list it in requestsOut", ref, i)
			}
		}
	})

	first[1].close() // the middle racer goes away: returnRequests → drop
	if leech.requested.Len() != 4 {
		t.Fatalf("%d blocks in flight after one racer left, want 4", leech.requested.Len())
	}
	leech.requested.each(func(ref blockRef, owners []*peerConn) {
		if len(owners) != 2 || owners[0] != first[0] || owners[1] != first[2] {
			t.Errorf("block %v: requesters after the middle one left are not [first, third]", ref)
		}
	})
	leech.CheckState(func(invariant, detail string) { t.Errorf("%s: %s", invariant, detail) })

	for _, lim := range lims {
		lim.SetRate(1 * netem.MBps) // whoever is still asked now serves
	}
	env.engine.RunFor(10 * time.Second)
	if !leech.Complete() {
		t.Fatalf("leech incomplete: %.0f%%", leech.Progress()*100)
	}
	if leech.requested.Len() != 0 {
		t.Errorf("%d blocks still in flight after completion", leech.requested.Len())
	}
	for _, p := range leech.peers {
		if len(p.requestsOut) != 0 {
			t.Errorf("peer %s still has %d requests out", p.id, len(p.requestsOut))
		}
	}
}

// foreignPeer is a raw connection to a client's listening port: it sends a
// handshake and hello, and then whatever the test sends.
func foreignPeer(t *testing.T, env *swarmEnv, target *Client, hello ...wireMsg) (transport.Conn, *peerConn) {
	t.Helper()
	tr := transport.NewSim(env.wiredStack(0, 0))
	conn, err := tr.Dial(target.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.SetOnEstablished(func() {
		hs := &msgHandshake{InfoHash: env.torrent.InfoHash(), PeerID: "-XX0000-foreign-peer"}
		for _, m := range append([]wireMsg{hs}, hello...) {
			conn.SendMessage(m, m.wireLen())
		}
	})
	env.engine.RunFor(15 * time.Second) // handshake, then the first choke round
	if len(target.peers) != 1 {
		t.Fatalf("foreign peer not connected (%d peers)", len(target.peers))
	}
	return conn, target.peers[0]
}

// TestWireBlockCoordinatesChecked: a request or cancel naming no block of the
// torrent is dropped at the door. The parent granted msgRequest{Length: 1<<40}
// as a terabyte piece and stored any cancel it was sent.
func TestWireBlockCoordinatesChecked(t *testing.T) {
	env := newSwarmEnv(90, 500*1024, 64*1024) // 8 pieces; the last is 52 KB: blocks of 16, 16, 16, 4
	seed := env.client(Config{Seed: true})
	if err := seed.Start(); err != nil {
		t.Fatal(err)
	}
	conn, p := foreignPeer(t, env, seed, msgBitfield{Bits: NewBitfield(env.torrent.NumPieces())}, msgInterested{})
	if p.amChoking {
		t.Fatal("foreign leech was not unchoked")
	}
	send := func(m wireMsg) { conn.SendMessage(m, m.wireLen()) }

	bad := []msgRequest{
		{Piece: -1, Begin: 0, Length: BlockSize},
		{Piece: 8, Begin: 0, Length: BlockSize},
		{Piece: 1 << 40, Begin: 0, Length: BlockSize},
		{Piece: 0, Begin: -BlockSize, Length: BlockSize},
		{Piece: 0, Begin: 100, Length: BlockSize},           // misaligned
		{Piece: 0, Begin: 4 * BlockSize, Length: BlockSize}, // past the piece
		{Piece: 0, Begin: 1 << 50, Length: BlockSize},
		{Piece: 0, Begin: 0, Length: 1 << 40},
		{Piece: 0, Begin: 0, Length: BlockSize - 1},
		{Piece: 0, Begin: 0, Length: 0},
		{Piece: 0, Begin: 0, Length: -BlockSize},
		{Piece: 7, Begin: 3 * BlockSize, Length: BlockSize}, // the short block is 4 KB
		{Piece: 7, Begin: 4 * BlockSize, Length: 4 * 1024},
	}
	for i := range bad {
		send(&bad[i])
		send((*msgCancel)(&bad[i]))
	}
	env.engine.RunFor(2 * time.Second)
	if want := int64(2 * len(bad)); p.badBlocks != want {
		t.Errorf("badBlocks = %d, want %d", p.badBlocks, want)
	}
	if p.reqsRcvd != int64(len(bad)) {
		t.Errorf("reqsRcvd = %d, want %d", p.reqsRcvd, len(bad))
	}
	if seed.Uploaded() != 0 || p.piecesSent != 0 || len(p.sendQ) != 0 || len(p.cancelled) != 0 {
		t.Errorf("hostile block coordinates reached bt state: uploaded %d, sent %d, sendQ %d, cancelled %d",
			seed.Uploaded(), p.piecesSent, len(p.sendQ), len(p.cancelled))
	}

	// The door is open to the real thing, short last block included.
	var got []*msgPiece
	conn.SetOnMessage(func(v any) {
		if m, ok := v.(*msgPiece); ok {
			got = append(got, m)
		}
	})
	send(&msgRequest{Piece: 7, Begin: 3 * BlockSize, Length: 4 * 1024})
	send(&msgRequest{Piece: 0, Begin: BlockSize, Length: BlockSize})
	env.engine.RunFor(2 * time.Second)
	if len(got) != 2 || got[0].Length != 4*1024 || got[1].Begin != BlockSize {
		t.Fatalf("valid requests were served %d pieces, want the 2 asked for", len(got))
	}
	if want := int64(4*1024 + BlockSize); seed.Uploaded() != want || p.badBlocks != int64(2*len(bad)) {
		t.Errorf("uploaded %d, want %d; badBlocks %d", seed.Uploaded(), want, p.badBlocks)
	}
	send(&msgCancel{Piece: 7, Begin: 3 * BlockSize, Length: 4 * 1024})
	env.engine.RunFor(time.Second)
	if !p.cancelled[blockRef{7, 3}] {
		t.Error("a valid cancel was not recorded")
	}
}

// TestWirePieceCoordinatesChecked: a piece goes through the same door, so a
// block we did ask for cannot be answered with a length that is not its own —
// it would be counted into downloaded, the rate estimators and the ledger.
func TestWirePieceCoordinatesChecked(t *testing.T) {
	env := newSwarmEnv(92, 4*BlockSize, 4*BlockSize)
	leech := env.client(Config{})
	if err := leech.Start(); err != nil {
		t.Fatal(err)
	}
	full := NewBitfield(env.torrent.NumPieces())
	full.SetAll()
	var reqs []*msgRequest
	conn, p := foreignPeer(t, env, leech, msgBitfield{Bits: full}, msgUnchoke{})
	conn.SetOnMessage(func(v any) {
		if m, ok := v.(*msgRequest); ok {
			reqs = append(reqs, m)
		}
	})
	conn.SendMessage(msgChoke{}, msgOverhead) // have the requests sent again, now that we listen
	conn.SendMessage(msgUnchoke{}, msgOverhead)
	env.engine.RunFor(time.Second)
	if len(reqs) != 4 || len(p.requestsOut) != 4 {
		t.Fatalf("leech asked the foreign seed for %d blocks (%d out), want 4", len(reqs), len(p.requestsOut))
	}
	r := reqs[0]
	const wire = msgOverhead + 8 + BlockSize // the sender lies about Length, not about the bytes it writes
	conn.SendMessage(&msgPiece{Piece: r.Piece, Begin: r.Begin, Length: 1 << 40}, wire)
	conn.SendMessage(&msgPiece{Piece: r.Piece, Begin: r.Begin + 1, Length: r.Length}, wire)
	conn.SendMessage(&msgPiece{Piece: r.Piece, Begin: r.Begin, Length: -r.Length}, wire)
	env.engine.RunFor(time.Second)
	if leech.Downloaded() != 0 || p.piecesRcvd != 0 || p.piecesUnwanted != 3 || len(p.requestsOut) != 4 {
		t.Errorf("malformed pieces reached bt state: downloaded %d, received %d, unwanted %d, out %d",
			leech.Downloaded(), p.piecesRcvd, p.piecesUnwanted, len(p.requestsOut))
	}
	conn.SendMessage(&msgPiece{Piece: r.Piece, Begin: r.Begin, Length: r.Length}, wire)
	env.engine.RunFor(time.Second)
	if leech.Downloaded() != BlockSize || p.piecesRcvd != 1 {
		t.Errorf("the well-formed piece was not taken: downloaded %d, received %d", leech.Downloaded(), p.piecesRcvd)
	}
}

// wireBackend is the little of a transport the bitfield test needs to run
// once on the simulated stack and once over real loopback sockets.
type wireBackend struct {
	name   string
	engine *sim.Engine
	host   func() transport.Interface
	do     func(fn func())             // runs fn on the event goroutine
	wait   func(cond func() bool) bool // advances until cond holds; false on timeout
	close  func()
}

func simWireBackend() *wireBackend {
	env := newSwarmEnv(94, 1, 1)
	return &wireBackend{
		name:   "sim",
		engine: env.engine,
		host:   func() transport.Interface { return transport.NewSim(env.wiredStack(0, 0)) },
		do:     func(fn func()) { fn() },
		wait: func(cond func() bool) bool {
			for i := 0; i < 600 && !cond(); i++ {
				env.engine.RunFor(100 * time.Millisecond)
			}
			return cond()
		},
		close: func() {},
	}
}

func netWireBackend() *wireBackend {
	g := transport.NewGroup(94)
	nextIP := netem.IP(10)
	return &wireBackend{
		name:   "net",
		engine: g.Engine(),
		host:   func() transport.Interface { nextIP++; return g.Host(nextIP) },
		do:     g.Do,
		wait: func(cond func() bool) bool {
			ok := false
			for deadline := time.Now().Add(20 * time.Second); !ok && time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
				g.Do(func() { ok = cond() })
			}
			return ok
		},
		close: g.Close,
	}
}

// TestWireBitfieldChecked: the piece map in a msgBitfield is whatever the
// wire carried. A peer that sends none, or one of another length, is closed
// and counted; the parent dereferenced the nil and adopted the other — a map
// whose Has answers for pieces the torrent does not have.
func TestWireBitfieldChecked(t *testing.T) {
	for _, mk := range []func() *wireBackend{simWireBackend, netWireBackend} {
		b := mk()
		t.Run(b.name, func(t *testing.T) {
			defer b.close()
			tor := NewMetaInfo("test-file", 8*BlockSize, BlockSize) // 8 pieces
			var target *Client
			var err error // do may run its func on another goroutine, where t.Fatal must not
			b.do(func() {
				target = NewClient(Config{
					Transport: b.host(), Torrent: tor,
					Tracker: NewTracker(b.engine, TrackerConfig{Interval: 30 * time.Second}),
				})
				err = target.Start()
			})
			if err != nil {
				t.Fatal(err)
			}
			// hello connects a raw peer that handshakes and, once the target
			// knows it, sends bits.
			hello := func(bits *Bitfield) (p *peerConn, hungUp *bool) {
				hungUp = new(bool)
				var conn transport.Conn
				b.do(func() {
					if conn, err = b.host().Dial(target.Addr()); err != nil {
						return
					}
					conn.SetOnClose(func(error) { *hungUp = true })
					conn.SetOnEstablished(func() {
						conn.SendMessage(&msgHandshake{InfoHash: tor.InfoHash(), PeerID: "-XX0000-foreign-peer"}, handshakeLen)
					})
				})
				if err != nil {
					t.Fatal(err)
				}
				if !b.wait(func() bool { return len(target.peers) == 1 && target.peers[0].gotHandshake }) {
					t.Fatal("the raw peer's handshake was not taken")
				}
				b.do(func() {
					p = target.peers[0]
					conn.SendMessage(msgBitfield{Bits: bits}, msgOverhead+1) // not wireLen: it reads Bits
				})
				return p, hungUp
			}

			full := NewBitfield(8)
			full.SetAll()
			long := NewBitfield(9)
			long.SetAll()
			for i, bad := range []*Bitfield{nil, long, NewBitfield(7), NewBitfield(0)} {
				p, hungUp := hello(bad)
				if !b.wait(func() bool { return *hungUp }) {
					t.Fatalf("case %d: the peer was not hung up on", i)
				}
				b.do(func() {
					if !p.closed || p.badBitfields != 1 || len(target.peers) != 0 || p.remoteHas.Count() != 0 {
						t.Errorf("case %d: closed=%v badBitfields=%d peers=%d remoteHas=%v; want the peer closed and counted, its map untouched",
							i, p.closed, p.badBitfields, len(target.peers), &p.remoteHas)
					}
					for piece, a := range target.avail {
						if a != 0 {
							t.Errorf("case %d: availability of piece %d is %d after the refusal", i, piece, a)
						}
					}
				})
			}
			// The door is open to the real thing.
			p, _ := hello(full)
			if !b.wait(func() bool { return p.closed || p.remoteHas.Count() > 0 }) {
				t.Fatal("the well-formed bitfield was neither taken nor refused")
			}
			b.do(func() {
				if p.closed || p.badBitfields != 0 || !p.remoteHas.Complete() || target.avail[7] != 1 {
					t.Errorf("a well-formed bitfield was not taken: closed=%v badBitfields=%d remoteHas=%v", p.closed, p.badBitfields, &p.remoteHas)
				}
			})
		})
	}
}

// TestWireNilMessagesChecked: a message off the wire is whatever the peer
// framed, and the pointer forms can carry nil. A nil request, piece or cancel
// is dropped and counted, a nil have is dropped, and a nil handshake hangs
// up; then a well-formed message is still taken. The parent read through the
// nil request and piece and panicked — on the net backend, in the group's run
// loop.
func TestWireNilMessagesChecked(t *testing.T) {
	for _, mk := range []func() *wireBackend{simWireBackend, netWireBackend} {
		b := mk()
		t.Run(b.name, func(t *testing.T) {
			defer b.close()
			tor := NewMetaInfo("test-file", 8*BlockSize, BlockSize) // 8 pieces
			var target *Client
			var err error // do may run its func on another goroutine, where t.Fatal must not
			b.do(func() {
				target = NewClient(Config{
					Transport: b.host(), Torrent: tor,
					Tracker: NewTracker(b.engine, TrackerConfig{Interval: 30 * time.Second}),
				})
				err = target.Start()
			})
			if err != nil {
				t.Fatal(err)
			}
			// dial connects a raw peer that frames msgs once connected.
			dial := func(msgs ...any) (hungUp *bool) {
				hungUp = new(bool)
				b.do(func() {
					var conn transport.Conn
					if conn, err = b.host().Dial(target.Addr()); err != nil {
						return
					}
					conn.SetOnClose(func(error) { *hungUp = true })
					conn.SetOnEstablished(func() {
						for _, m := range msgs {
							conn.SendMessage(m, handshakeLen) // not wireLen: a nil has none
						}
					})
				})
				if err != nil {
					t.Fatal(err)
				}
				return hungUp
			}

			hs := &msgHandshake{InfoHash: tor.InfoHash(), PeerID: "-XX0000-foreign-peer"}
			hungUp := dial(hs, (*msgRequest)(nil), (*msgPiece)(nil), (*msgCancel)(nil), (*msgHave)(nil),
				&msgHave{Piece: 3})
			if !b.wait(func() bool { return len(target.peers) == 1 && target.peers[0].remoteHas.Has(3) }) {
				t.Fatal("the well-formed have after the nils was not taken")
			}
			b.do(func() {
				p := target.peers[0]
				if p.closed || *hungUp || p.reqsRcvd != 1 || p.badBlocks != 2 || p.piecesUnwanted != 1 {
					t.Errorf("closed=%v hungUp=%v reqsRcvd=%d badBlocks=%d piecesUnwanted=%d; want the peer kept, one request and one cancel counted bad, one piece unwanted",
						p.closed, *hungUp, p.reqsRcvd, p.badBlocks, p.piecesUnwanted)
				}
				if p.remoteHas.Count() != 1 || target.avail[3] != 1 || len(p.cancelled) != 0 {
					t.Errorf("remoteHas=%v avail[3]=%d cancelled=%d; want only the well-formed have to count",
						&p.remoteHas, target.avail[3], len(p.cancelled))
				}
				target.peers[0].close()
			})

			hungUp = dial((*msgHandshake)(nil))
			if !b.wait(func() bool { return *hungUp && len(target.peers) == 0 }) {
				t.Fatal("a nil handshake was not hung up on")
			}
		})
	}
}

// blockPath is a seed behind an upload limiter that queues (400 KB/s under a
// 1 MB/s link, so all but the opening burst of every pipeline waits for
// budget) and one leech, over pieces of pieceBlocks blocks: 64 (1 MiB) make
// per-piece work a sixty-fourth of a block's, 1 makes it all of it.
type blockPath struct {
	env   *swarmEnv
	leech *Client
}

func newBlockPath(tb testing.TB, blocks, pieceBlocks int) *blockPath {
	pieceLen := pieceBlocks * BlockSize
	pieces := (blocks + pieceBlocks - 1) / pieceBlocks
	env := newSwarmEnv(91, int64(pieces)*int64(pieceLen), pieceLen)
	seed := env.client(Config{Seed: true, UploadLimiter: NewLimiter(env.engine, 400*netem.KBps)})
	leech := env.client(Config{})
	for _, c := range []*Client{seed, leech} {
		if err := c.Start(); err != nil {
			tb.Fatal(err)
		}
	}
	return &blockPath{env: env, leech: leech}
}

// run advances the swarm until n more blocks have made the whole trip:
// request → limiter → grant → piece → onBlock.
func (bp *blockPath) run(tb testing.TB, n int) {
	target := bp.leech.Downloaded() + int64(n)*BlockSize
	for deadline := bp.env.engine.Now() + time.Hour; bp.leech.Downloaded() < target; {
		if bp.env.engine.Now() > deadline {
			tb.Fatalf("stalled at %d of %d bytes", bp.leech.Downloaded(), target)
		}
		bp.env.engine.RunFor(50 * time.Millisecond)
	}
}

// TestZeroAllocBlockRoundTrip pins the block path: in steady state a block's
// whole life allocates nothing of its own, and its piece nothing either.
// What is left is its share of two chunks of msgChunk messages (request and
// piece: 2/32 = 0.0625) and of the choke and announce rounds. The parent
// read 0.170, a pieceProgress and its maps, a PickContext and a boxed have a
// piece, and 4.27 before the block path.
func TestZeroAllocBlockRoundTrip(t *testing.T) {
	const perRun, runs = 512, 2
	bp := newBlockPath(t, 256+(runs+1)*perRun+64, 64)
	bp.run(t, 256) // connect, unchoke, warm every pool and queue
	perBlock := testing.AllocsPerRun(runs, func() { bp.run(t, perRun) }) / perRun
	t.Logf("%.3f objects per block", perBlock)
	if perBlock > 0.08 {
		t.Errorf("block round trip allocates %.3f objects per block, want <= 0.08", perBlock)
	}
	if bp.leech.requested.Len() == 0 || bp.leech.HashFails() != 0 {
		t.Errorf("swarm not mid-transfer: %d blocks in flight, %d hash fails",
			bp.leech.requested.Len(), bp.leech.HashFails())
	}
}

// TestPieceObjects pins the piece path — pick, progress, verify, have — on
// one-block pieces, where it is all a block does beyond its two chunk slots:
// a verified piece allocates its 2/32 of those and nothing else, pools warm.
// The parent made 6.94 objects a piece: a pieceProgress, its bitfield's
// struct and words, the contributor map and its bucket, a PickContext and a
// boxed have.
func TestPieceObjects(t *testing.T) {
	const perRun, runs = 512, 2
	bp := newBlockPath(t, 256+(runs+1)*perRun+64, 1)
	bp.run(t, 256)
	before := bp.leech.have.Count()
	perPiece := testing.AllocsPerRun(runs, func() { bp.run(t, perRun) }) / perRun
	verified := bp.leech.have.Count() - before
	t.Logf("%.3f objects per verified piece (%d verified)", perPiece, verified)
	if perPiece > 0.08 {
		t.Errorf("a piece allocates %.3f objects, want <= 0.08", perPiece)
	}
	if verified < (runs+1)*perRun-pipelineDepth || bp.leech.HashFails() != 0 {
		t.Errorf("%d pieces verified over %d blocks, %d hash fails", verified, (runs+1)*perRun, bp.leech.HashFails())
	}
}

func BenchmarkBlockRoundTrip(b *testing.B) {
	bp := newBlockPath(b, 256+b.N+64, 64)
	bp.run(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	bp.run(b, b.N)
}
