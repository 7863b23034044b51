package transport

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/tcp"
)

// The conformance suite runs every behavioural contract against both
// backends: the deterministic sim adapter and the real-socket loopback
// backend. Anything protocol code may rely on — dial/accept ordering, data
// integrity under concurrent streams, close/RST propagation, addr reuse
// after close, the error contract — must hold identically on both.

// backend abstracts "a world of hosts" over either implementation.
type backend interface {
	name() string
	// host returns the transport for virtual IP ip (stable across calls).
	host(ip netem.IP) Interface
	// do runs fn on the event goroutine (sim: inline; net: the run loop).
	do(fn func())
	// wait advances the world until cond (evaluated on the event
	// goroutine) holds, or fails the test after a generous deadline.
	wait(t *testing.T, desc string, cond func() bool)
	close()
}

type simBackend struct {
	engine *sim.Engine
	netw   *netem.Network
	hosts  map[netem.IP]Interface
}

func newSimBackend() *simBackend {
	e := sim.NewEngine(sim.WithSeed(7))
	n := netem.NewNetwork(e, netem.NetworkConfig{CloudDelay: 10 * time.Millisecond})
	return &simBackend{engine: e, netw: n, hosts: make(map[netem.IP]Interface)}
}

func (b *simBackend) name() string { return "sim" }

func (b *simBackend) host(ip netem.IP) Interface {
	if h, ok := b.hosts[ip]; ok {
		return h
	}
	link := netem.NewAccessLink(b.engine, netem.AccessLinkConfig{
		UpRate:   10 * netem.MBps,
		DownRate: 10 * netem.MBps,
		Delay:    time.Millisecond,
	})
	iface := b.netw.Attach(ip, link, nil)
	h := NewSim(tcp.NewStack(b.engine, iface))
	b.hosts[ip] = h
	return h
}

func (b *simBackend) do(fn func()) { fn() }

func (b *simBackend) wait(t *testing.T, desc string, cond func() bool) {
	t.Helper()
	for i := 0; i < 600 && !cond(); i++ {
		b.engine.RunFor(100 * time.Millisecond)
	}
	if !cond() {
		t.Fatalf("sim: timed out waiting for %s", desc)
	}
}

func (b *simBackend) close() {}

type netBackend struct {
	group *Group
}

func newNetBackend() *netBackend { return &netBackend{group: NewGroup(7)} }

func (b *netBackend) name() string               { return "net" }
func (b *netBackend) host(ip netem.IP) Interface { return b.group.Host(ip) }
func (b *netBackend) do(fn func())               { b.group.Do(fn) }
func (b *netBackend) close()                     { b.group.Close() }

func (b *netBackend) wait(t *testing.T, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		ok := false
		b.group.Do(func() { ok = cond() })
		if ok {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("net: timed out waiting for %s", desc)
}

func forEachBackend(t *testing.T, fn func(t *testing.T, b backend)) {
	t.Run("sim", func(t *testing.T) {
		b := newSimBackend()
		defer b.close()
		fn(t, b)
	})
	t.Run("net", func(t *testing.T) {
		b := newNetBackend()
		defer b.close()
		fn(t, b)
	})
}

func TestConformanceDialAccept(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b backend) {
		h1, h2 := b.host(1), b.host(2)
		var (
			accepted    []Conn
			cliEst      bool
			srvEst      bool
			client      Conn
			clientLocal netem.Addr
		)
		b.do(func() {
			_, err := h2.Listen(80, func(c Conn) {
				accepted = append(accepted, c)
				c.SetOnEstablished(func() { srvEst = true })
			})
			if err != nil {
				t.Errorf("listen: %v", err)
				return
			}
			c, err := h1.Dial(h2.Addr(80))
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			client = c
			clientLocal = c.LocalAddr()
			c.SetOnEstablished(func() { cliEst = true })
		})
		b.wait(t, "both sides established", func() bool { return cliEst && srvEst })
		b.do(func() {
			if len(accepted) != 1 {
				t.Errorf("accepted %d conns, want 1", len(accepted))
				return
			}
			srv := accepted[0]
			if got := client.RemoteAddr(); got != h2.Addr(80) {
				t.Errorf("client remote = %v, want %v", got, h2.Addr(80))
			}
			if got := srv.LocalAddr(); got != h2.Addr(80) {
				t.Errorf("server local = %v, want %v", got, h2.Addr(80))
			}
			if got := srv.RemoteAddr(); got != clientLocal {
				t.Errorf("server remote = %v, want client local %v", got, clientLocal)
			}
			if clientLocal.Port < 49152 {
				t.Errorf("client port %d outside the ephemeral range", clientLocal.Port)
			}
		})
	})
}

// streamMsg is the conformance payload: enough identity to detect
// reordering or cross-stream leaks.
type streamMsg struct {
	Stream int
	Seq    int
}

func TestConformanceDataIntegrityConcurrentStreams(t *testing.T) {
	const (
		streams = 3
		msgs    = 120
		msgWire = 150
		replyW  = 40
	)
	forEachBackend(t, func(t *testing.T, b backend) {
		h1, h2 := b.host(1), b.host(2)
		type side struct {
			got       []streamMsg
			delivered int64
			replies   int
		}
		srv := make([]*side, 0, streams) // per accepted conn, in accept order
		cli := make([]*side, streams)    // per dialled conn

		b.do(func() {
			_, err := h2.Listen(80, func(c Conn) {
				s := &side{}
				srv = append(srv, s)
				c.SetOnDeliver(func(n int) { s.delivered += int64(n) })
				c.SetOnMessage(func(v any) {
					m := v.(streamMsg)
					s.got = append(s.got, m)
					// Echo a reply so the reverse direction is exercised
					// concurrently on every stream.
					c.SendMessage(streamMsg{Stream: m.Stream, Seq: -m.Seq}, replyW)
				})
			})
			if err != nil {
				t.Errorf("listen: %v", err)
				return
			}
			for i := 0; i < streams; i++ {
				i := i
				c, err := h1.Dial(h2.Addr(80))
				if err != nil {
					t.Errorf("dial %d: %v", i, err)
					return
				}
				cs := &side{}
				cli[i] = cs
				c.SetOnMessage(func(v any) { cs.replies++ })
				c.SetOnDeliver(func(n int) { cs.delivered += int64(n) })
				c.SetOnEstablished(func() {
					for m := 0; m < msgs; m++ {
						c.SendMessage(streamMsg{Stream: i, Seq: m}, msgWire)
					}
				})
			}
		})
		b.wait(t, "all messages and replies delivered", func() bool {
			total, replies := 0, 0
			for _, s := range srv {
				total += len(s.got)
			}
			for _, s := range cli {
				replies += s.replies
			}
			return total == streams*msgs && replies == streams*msgs
		})
		b.do(func() {
			if len(srv) != streams {
				t.Fatalf("accepted %d conns, want %d", len(srv), streams)
			}
			seen := map[int]bool{}
			for _, s := range srv {
				if len(s.got) == 0 {
					t.Fatal("a server conn received nothing")
				}
				stream := s.got[0].Stream
				if seen[stream] {
					t.Errorf("stream %d delivered on two conns", stream)
				}
				seen[stream] = true
				for i, m := range s.got {
					if m.Stream != stream || m.Seq != i {
						t.Fatalf("stream %d msg %d = %+v: reordered or leaked", stream, i, m)
					}
				}
				if s.delivered != int64(msgs*msgWire) {
					t.Errorf("stream %d delivered %d bytes, want %d", stream, s.delivered, msgs*msgWire)
				}
			}
			for i, s := range cli {
				if s.replies != msgs {
					t.Errorf("stream %d got %d replies, want %d", i, s.replies, msgs)
				}
				if s.delivered != int64(msgs*replyW) {
					t.Errorf("stream %d reply bytes = %d, want %d", i, s.delivered, msgs*replyW)
				}
			}
		})
	})
}

func TestConformanceRawWriteDelivery(t *testing.T) {
	const rawBytes = 1 << 20
	forEachBackend(t, func(t *testing.T, b backend) {
		h1, h2 := b.host(1), b.host(2)
		var (
			got      int64
			chunks   int
			maxChunk int
			cliEst   bool
		)
		b.do(func() {
			_, err := h2.Listen(80, func(c Conn) {
				c.SetOnEstablished(func() { c.Write(rawBytes) })
			})
			if err != nil {
				t.Errorf("listen: %v", err)
				return
			}
			c, err := h1.Dial(h2.Addr(80))
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			c.SetOnEstablished(func() { cliEst = true })
			c.SetOnDeliver(func(n int) {
				got += int64(n)
				chunks++
				if n > maxChunk {
					maxChunk = n
				}
			})
		})
		b.wait(t, "bulk payload delivered", func() bool { return got >= rawBytes })
		b.do(func() {
			if !cliEst {
				t.Error("client never established")
			}
			if got != rawBytes {
				t.Errorf("delivered %d bytes, want exactly %d", got, rawBytes)
			}
			if chunks < 2 {
				t.Errorf("bulk delivery arrived in %d chunk(s); want streaming progress", chunks)
			}
		})
	})
}

func TestConformanceClosePropagation(t *testing.T) {
	const msgs = 25
	forEachBackend(t, func(t *testing.T, b backend) {
		h1, h2 := b.host(1), b.host(2)
		var (
			srvGot    int
			srvClose  error
			srvClosed bool
			cliClose  error
			cliClosed bool
		)
		b.do(func() {
			_, err := h2.Listen(80, func(c Conn) {
				c.SetOnMessage(func(any) { srvGot++ })
				c.SetOnClose(func(err error) { srvClose, srvClosed = err, true })
			})
			if err != nil {
				t.Errorf("listen: %v", err)
				return
			}
			c, err := h1.Dial(h2.Addr(80))
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			c.SetOnClose(func(err error) { cliClose, cliClosed = err, true })
			c.SetOnEstablished(func() {
				for i := 0; i < msgs; i++ {
					c.SendMessage(streamMsg{Seq: i}, 64)
				}
				c.Close()
			})
		})
		b.wait(t, "both close callbacks", func() bool { return srvClosed && cliClosed })
		b.do(func() {
			if srvGot != msgs {
				t.Errorf("server got %d msgs before close, want %d (close must not outrun data)", srvGot, msgs)
			}
			if srvClose != nil {
				t.Errorf("server close err = %v, want nil (graceful)", srvClose)
			}
			if !errors.Is(cliClose, ErrClosed) {
				t.Errorf("client close err = %v, want ErrClosed", cliClose)
			}
		})
	})
}

func TestConformanceAbortReset(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b backend) {
		h1, h2 := b.host(1), b.host(2)
		var (
			srvClose  error
			srvClosed bool
			cliClose  error
			cliClosed bool
		)
		b.do(func() {
			_, err := h2.Listen(80, func(c Conn) {
				c.SetOnClose(func(err error) { srvClose, srvClosed = err, true })
			})
			if err != nil {
				t.Errorf("listen: %v", err)
				return
			}
			c, err := h1.Dial(h2.Addr(80))
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			c.SetOnClose(func(err error) { cliClose, cliClosed = err, true })
			c.SetOnEstablished(func() { c.Abort() })
		})
		b.wait(t, "both close callbacks", func() bool { return srvClosed && cliClosed })
		b.do(func() {
			if !errors.Is(srvClose, ErrReset) {
				t.Errorf("server close err = %v, want ErrReset", srvClose)
			}
			if !errors.Is(cliClose, ErrClosed) {
				t.Errorf("client close err = %v, want ErrClosed", cliClose)
			}
		})
	})
}

func TestConformanceDialRefused(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b backend) {
		h1, h2 := b.host(1), b.host(2)
		var (
			refused error
			closed  bool
		)
		b.do(func() {
			c, err := h1.Dial(h2.Addr(4444)) // nothing listens there
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			c.SetOnClose(func(err error) { refused, closed = err, true })
		})
		b.wait(t, "refusal", func() bool { return closed })
		b.do(func() {
			if !errors.Is(refused, ErrReset) {
				t.Errorf("refused dial err = %v, want ErrReset", refused)
			}
		})
	})
}

func TestConformanceListenAddrInUse(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b backend) {
		h := b.host(1)
		b.do(func() {
			if _, err := h.Listen(80, nil); err != nil {
				t.Errorf("first listen: %v", err)
				return
			}
			if _, err := h.Listen(80, nil); !errors.Is(err, ErrAddrInUse) {
				t.Errorf("second listen = %v, want ErrAddrInUse", err)
			}
			// A different host may bind the same virtual port.
			if _, err := b.host(2).Listen(80, nil); err != nil {
				t.Errorf("other-host listen: %v", err)
			}
		})
	})
}

func TestConformanceAddrReuseAfterClose(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b backend) {
		h1, h2 := b.host(1), b.host(2)
		var stale, fresh int
		var est bool
		b.do(func() {
			l, err := h2.Listen(80, func(c Conn) { stale++ })
			if err != nil {
				t.Errorf("listen: %v", err)
				return
			}
			l.Close()
			if _, err := h2.Listen(80, func(c Conn) { fresh++ }); err != nil {
				t.Errorf("re-listen after close: %v", err)
				return
			}
			l.Close() // stale handle again: must not evict the fresh listener
			c, err := h1.Dial(h2.Addr(80))
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			c.SetOnEstablished(func() { est = true })
		})
		b.wait(t, "established to rebound port", func() bool { return est })
		b.do(func() {
			if stale != 0 || fresh != 1 {
				t.Errorf("accepts: stale=%d fresh=%d, want 0/1", stale, fresh)
			}
		})
	})
}

// TestConformanceListenerCloseRefusesInFlight is the cross-backend
// regression test for the in-flight-SYN audit: a dial racing a listener
// close must either be refused (ErrReset) — never delivered to the stale
// accept callback.
func TestConformanceListenerCloseRefusesInFlight(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b backend) {
		h1, h2 := b.host(1), b.host(2)
		var (
			accepted int
			closed   bool
			closeErr error
		)
		b.do(func() {
			l, err := h2.Listen(80, func(c Conn) { accepted++ })
			if err != nil {
				t.Errorf("listen: %v", err)
				return
			}
			c, err := h1.Dial(h2.Addr(80))
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			c.SetOnClose(func(err error) { closeErr, closed = err, true })
			// Close while the connection attempt is in flight.
			l.Close()
		})
		b.wait(t, "dial outcome", func() bool { return closed })
		b.do(func() {
			if accepted != 0 {
				t.Errorf("stale onAccept ran %d times after Close", accepted)
			}
			if !errors.Is(closeErr, ErrReset) {
				t.Errorf("in-flight dial err = %v, want ErrReset", closeErr)
			}
		})
	})
}

func TestConformanceEstablishedSurvivesListenerClose(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b backend) {
		h1, h2 := b.host(1), b.host(2)
		var (
			l       Listener
			got     int
			est     bool
			srvConn Conn
			client  Conn
		)
		b.do(func() {
			var err error
			l, err = h2.Listen(80, func(c Conn) {
				srvConn = c
				c.SetOnMessage(func(any) { got++ })
			})
			if err != nil {
				t.Errorf("listen: %v", err)
				return
			}
			client, err = h1.Dial(h2.Addr(80))
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			client.SetOnEstablished(func() { est = true })
		})
		b.wait(t, "established and accepted", func() bool { return est && srvConn != nil })
		b.do(func() {
			// The conn is fully up on both sides; closing the listener must
			// not hurt it.
			l.Close()
			client.SendMessage(streamMsg{Seq: 1}, 64)
		})
		b.wait(t, "message after listener close", func() bool { return got == 1 })
	})
}

// TestConformanceBackpressureSignals checks Buffered/OnWritable behave as a
// pacing signal on both backends: bytes accumulate while queued and
// OnWritable eventually reports drain progress.
func TestConformanceBackpressureSignals(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b backend) {
		h1, h2 := b.host(1), b.host(2)
		var (
			writable int
			maxBuf   int64
			drained  bool
		)
		b.do(func() {
			_, err := h2.Listen(80, nil)
			if err != nil {
				t.Errorf("listen: %v", err)
				return
			}
			c, err := h1.Dial(h2.Addr(80))
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			c.SetOnWritable(func() {
				writable++
				if c.Buffered() == 0 {
					drained = true
				}
			})
			c.SetOnEstablished(func() {
				for i := 0; i < 64; i++ {
					c.Write(16 << 10)
				}
				if buf := c.Buffered(); buf > maxBuf {
					maxBuf = buf
				}
			})
		})
		b.wait(t, "send buffer drained", func() bool { return drained })
		b.do(func() {
			if writable == 0 {
				t.Error("OnWritable never fired")
			}
			if maxBuf == 0 {
				t.Error("Buffered never reflected queued bytes")
			}
		})
	})
}

// TestNetVirtualPortExhaustion pins the net backend's virtual allocator to
// the same exhaustion contract as the sim stack.
func TestNetVirtualPortExhaustion(t *testing.T) {
	g := NewGroup(1)
	defer g.Close()
	h := g.Host(1)
	g.Do(func() {
		for p := uint32(ephemeralBase); p <= 0xffff; p++ {
			h.inUse[uint16(p)] = true
		}
		if _, err := h.allocPort(); !errors.Is(err, ErrPortExhausted) {
			t.Errorf("allocPort = %v, want ErrPortExhausted", err)
		}
		if _, err := h.Dial(netem.Addr{IP: 2, Port: 80}); !errors.Is(err, ErrPortExhausted) {
			t.Errorf("Dial = %v, want ErrPortExhausted", err)
		}
	})
}

// TestNetAddrsAreVirtual pins that live-backend conns still speak the
// virtual address space the protocols reason about.
func TestNetAddrsAreVirtual(t *testing.T) {
	g := NewGroup(1)
	defer g.Close()
	h1, h2 := g.Host(1), g.Host(2)
	var addrs []string
	g.Do(func() {
		if _, err := h2.Listen(80, nil); err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		c, err := h1.Dial(h2.Addr(80))
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		addrs = append(addrs, c.LocalAddr().String(), c.RemoteAddr().String())
	})
	want := fmt.Sprintf("%s", netem.Addr{IP: 2, Port: 80})
	if len(addrs) == 2 && addrs[1] != want {
		t.Errorf("remote addr = %s, want virtual %s", addrs[1], want)
	}
}

// mixedSend is one queued send of the batching tests: a framed message of
// wire length n, or n raw bytes.
type mixedSend struct {
	n   int
	msg bool
}

// mixedSends cycles the sizes that stress the batch data path: a raw write
// shorter than a frame header, one a byte short of it, a message just past
// it, block-sized and megabyte-sized frames of both kinds. Messages carry
// wire lengths of at least frameHdr, where both backends count them alike.
func mixedSends(count int) (sends []mixedSend, total int64) {
	kinds := []mixedSend{
		{1, false}, {17, true}, {frameHdr - 1, false}, {16 << 10, true},
		{1 << 20, false}, {frameHdr, true}, {16 << 10, false}, {1 << 20, true},
	}
	for i := 0; i < count; i++ {
		s := kinds[i%len(kinds)]
		sends = append(sends, s)
		total += int64(s.n)
	}
	return sends, total
}

// queueMixed issues every send on c in one loop turn; message i carries Seq i.
func queueMixed(c Conn, sends []mixedSend) {
	for i, s := range sends {
		if s.msg {
			c.SendMessage(streamMsg{Seq: i}, s.n)
		} else {
			c.Write(s.n)
		}
	}
}

// mixedSink records what the receiving side of a batching test observed.
type mixedSink struct {
	sends     []mixedSend
	delivered int64
	maxInc    int
	next      int // index into sends of the next message expected
	msgs      int
	errs      []string
	closeErr  error
	closed    bool
	atClose   struct { // what had arrived when OnClose fired
		delivered int64
		msgs      int
	}
}

func (k *mixedSink) bind(c Conn) {
	c.SetOnDeliver(func(n int) {
		k.delivered += int64(n)
		if n > k.maxInc {
			k.maxInc = n
		}
	})
	c.SetOnMessage(func(v any) {
		m := v.(streamMsg)
		for k.next < len(k.sends) && !k.sends[k.next].msg {
			k.next++
		}
		if m.Seq != k.next {
			k.errs = append(k.errs, fmt.Sprintf("message %d arrived where %d was due", m.Seq, k.next))
		}
		// In-order stream: a message cannot overtake the bytes queued
		// before it, its own included.
		var due int64
		for _, s := range k.sends[:m.Seq+1] {
			due += int64(s.n)
		}
		if k.delivered < due {
			k.errs = append(k.errs, fmt.Sprintf("message %d arrived after %d bytes, %d were queued up to it", m.Seq, k.delivered, due))
		}
		k.next = m.Seq + 1
		k.msgs++
	})
	c.SetOnClose(func(err error) {
		k.atClose.delivered, k.atClose.msgs = k.delivered, k.msgs
		k.closeErr, k.closed = err, true
	})
}

func (k *mixedSink) wantMsgs() int {
	n := 0
	for _, s := range k.sends {
		if s.msg {
			n++
		}
	}
	return n
}

// TestConformanceBatchedMixedSizes queues interleaved SendMessage and Write
// calls of very different sizes in one loop turn. They must arrive in order,
// the OnDeliver increments must sum to exactly the bytes queued with none
// above deliverChunk on the net backend, Buffered must return to zero and
// OnWritable must fire once it has.
//
// The sends are queued in the turn that dials: nothing leaves a connection
// still in its handshake, and the net writer goroutine, which flushes
// concurrently with the loop once the socket attaches, does not exist yet,
// so Buffered must read every queued byte on both backends.
func TestConformanceBatchedMixedSizes(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b backend) {
		h1, h2 := b.host(1), b.host(2)
		sends, total := mixedSends(40)
		sink := &mixedSink{sends: sends}
		var (
			queued  int64
			drained bool
		)
		b.do(func() {
			if _, err := h2.Listen(80, sink.bind); err != nil {
				t.Errorf("listen: %v", err)
				return
			}
			c, err := h1.Dial(h2.Addr(80))
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			c.SetOnWritable(func() {
				if c.Buffered() == 0 {
					drained = true
				}
			})
			queueMixed(c, sends)
			queued = c.Buffered()
		})
		b.wait(t, "everything delivered and the send buffer drained", func() bool {
			return sink.delivered >= total && sink.msgs == sink.wantMsgs() && drained
		})
		b.do(func() {
			for _, e := range sink.errs {
				t.Error(e)
			}
			if sink.delivered != total {
				t.Errorf("delivered %d bytes, want exactly %d", sink.delivered, total)
			}
			// The sim stack may release megabytes in one step when a
			// retransmission fills a hole; the net backend promises steps.
			if b.name() == "net" && sink.maxInc > deliverChunk {
				t.Errorf("largest OnDeliver increment = %d, above deliverChunk %d", sink.maxInc, deliverChunk)
			}
			if queued != total {
				t.Errorf("Buffered after queueing = %d, want %d", queued, total)
			}
		})
	})
}

// TestConformanceCloseFlushesQueuedFrames pins that Close does not outrun a
// deep send queue: every frame queued before it reaches the peer before the
// peer observes the clean end of stream.
func TestConformanceCloseFlushesQueuedFrames(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b backend) {
		h1, h2 := b.host(1), b.host(2)
		sends, total := mixedSends(24)
		sink := &mixedSink{sends: sends}
		b.do(func() {
			if _, err := h2.Listen(80, sink.bind); err != nil {
				t.Errorf("listen: %v", err)
				return
			}
			c, err := h1.Dial(h2.Addr(80))
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			c.SetOnEstablished(func() {
				queueMixed(c, sends)
				c.Close()
			})
		})
		b.wait(t, "peer observed the close", func() bool { return sink.closed })
		b.do(func() {
			for _, e := range sink.errs {
				t.Error(e)
			}
			if sink.closeErr != nil {
				t.Errorf("peer close err = %v, want nil (graceful)", sink.closeErr)
			}
			if at := sink.atClose; at.delivered != total || at.msgs != sink.wantMsgs() {
				t.Errorf("at close the peer had %d of %d bytes and %d of %d messages: close outran queued frames",
					at.delivered, total, at.msgs, sink.wantMsgs())
			}
		})
	})
}

// TestConformanceAbortWithQueuedFrames pins Abort against a non-empty send
// queue: the peer sees an in-order prefix of what was queued (possibly
// nothing), then ErrReset — never a clean close, never a gap.
func TestConformanceAbortWithQueuedFrames(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b backend) {
		h1, h2 := b.host(1), b.host(2)
		sends, total := mixedSends(24)
		sink := &mixedSink{sends: sends}
		var cliClose error
		b.do(func() {
			if _, err := h2.Listen(80, sink.bind); err != nil {
				t.Errorf("listen: %v", err)
				return
			}
			c, err := h1.Dial(h2.Addr(80))
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			c.SetOnClose(func(err error) { cliClose = err })
			c.SetOnEstablished(func() {
				queueMixed(c, sends)
				c.Abort()
			})
		})
		b.wait(t, "peer observed the abort", func() bool { return sink.closed })
		b.do(func() {
			for _, e := range sink.errs {
				t.Error(e)
			}
			if !errors.Is(sink.closeErr, ErrReset) {
				t.Errorf("peer close err = %v, want ErrReset", sink.closeErr)
			}
			if !errors.Is(cliClose, ErrClosed) {
				t.Errorf("local close err = %v, want ErrClosed", cliClose)
			}
			if sink.delivered > total || sink.msgs > sink.wantMsgs() {
				t.Errorf("peer got %d bytes and %d messages, more than the %d and %d queued",
					sink.delivered, sink.msgs, total, sink.wantMsgs())
			}
		})
	})
}
