package transport

import (
	"errors"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
)

// Net-backend-only tests: what Group.Close leaves behind, and the batch
// reader against byte streams a well-behaved writer never produces.

// openFDs counts this process's open file descriptors, or -1 where /proc is
// not there to ask.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// settlesTo waits (bounded) for read to come back down to want or below.
func settlesTo(want int, read func() int) (int, bool) {
	got := read()
	for i := 0; i < 200 && got > want; i++ {
		time.Sleep(10 * time.Millisecond)
		got = read()
	}
	return got, got <= want
}

// TestNetGroupCloseLeavesNothingBehind pins the shutdown contract: after
// Group.Close neither goroutines nor file descriptors of the group remain —
// with established connections in every stage of life, and when Close races
// a burst of dials whose connects and hellos complete while it runs.
func TestNetGroupCloseLeavesNothingBehind(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(t *testing.T, g *Group)
	}{
		{"established, closed and aborted conns", func(t *testing.T, g *Group) {
			h1, h2 := g.Host(1), g.Host(2)
			var est, got int
			var conns []Conn
			g.Do(func() {
				if _, err := h2.Listen(80, func(c Conn) {
					c.SetOnMessage(func(any) { got++ })
				}); err != nil {
					t.Errorf("listen: %v", err)
					return
				}
				for i := 0; i < 6; i++ {
					c, err := h1.Dial(h2.Addr(80))
					if err != nil {
						t.Errorf("dial: %v", err)
						return
					}
					c.SetOnEstablished(func() {
						est++
						c.SendMessage(streamMsg{Seq: 1}, 1<<20)
					})
					conns = append(conns, c)
				}
			})
			nb := &netBackend{group: g}
			nb.wait(t, "six conns up and heard", func() bool { return est == 6 && got == 6 })
			g.Do(func() {
				conns[0].Close() // graceful: waits on the peer's end of stream
				conns[1].Abort()
				conns[2].Write(8 << 20) // still flushing when the group closes
			})
		}},
		{"close racing 32 in-flight dials", func(t *testing.T, g *Group) {
			h1, h2 := g.Host(1), g.Host(2)
			g.Do(func() {
				if _, err := h2.Listen(80, func(c Conn) {}); err != nil {
					t.Errorf("listen: %v", err)
					return
				}
				for i := 0; i < 32; i++ {
					c, err := h1.Dial(h2.Addr(80))
					if err != nil {
						t.Errorf("dial: %v", err)
						return
					}
					c.SetOnEstablished(func() { c.SendMessage(streamMsg{}, 64) })
				}
			})
			// No wait: the connects and hellos are in flight right now.
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			// Let goroutines and sockets of earlier tests finish first.
			time.Sleep(50 * time.Millisecond)
			baseGoroutines, baseFDs := runtime.NumGoroutine(), openFDs()
			for round := 0; round < 5; round++ {
				g := NewGroup(int64(round))
				sc.run(t, g)
				g.Close()
			}
			if got, ok := settlesTo(baseGoroutines, runtime.NumGoroutine); !ok {
				buf := make([]byte, 1<<16)
				t.Errorf("%d goroutines after Close, %d before the groups:\n%s",
					got, baseGoroutines, buf[:runtime.Stack(buf, true)])
			}
			if baseFDs < 0 {
				t.Log("no /proc/self/fd here: descriptors not counted")
			} else if got, ok := settlesTo(baseFDs, openFDs); !ok {
				t.Errorf("%d open descriptors after Close, %d before the groups", got, baseFDs)
			}
		})
	}
}

// rawPeer is a foreign client on the real socket behind a virtual listener:
// it says a valid hello and then writes whatever bytes the test wants.
type rawPeer struct {
	sock net.Conn
}

func dialRaw(t *testing.T, g *Group, vaddr netem.Addr) *rawPeer {
	t.Helper()
	var real string
	g.Do(func() { real = g.dir[vaddr] })
	sock, err := net.Dial("tcp", real)
	if err != nil {
		t.Fatalf("raw dial %s: %v", real, err)
	}
	hello := encodeHello(netem.Addr{IP: 99, Port: 50000}, 1<<40) // a connID no dialer of the group owns
	if _, err := sock.Write(hello[:]); err != nil {
		t.Fatalf("raw hello: %v", err)
	}
	return &rawPeer{sock: sock}
}

func appendFrame(b []byte, kind byte, seq uint64, n int) []byte {
	var hdr [frameHdr]byte
	putFrameHdr(hdr[:], frame{kind: kind, seq: seq, n: n})
	b = append(b, hdr[:]...)
	if n > frameHdr {
		b = append(b, make([]byte, n-frameHdr)...)
	}
	return b
}

// rawSink is the accepting side of a raw-peer test.
type rawSink struct {
	incs     []int
	closeErr error
	closed   bool
}

func listenRaw(t *testing.T, g *Group) (*rawSink, netem.Addr) {
	t.Helper()
	sink := &rawSink{}
	h := g.Host(1)
	g.Do(func() {
		_, err := h.Listen(80, func(c Conn) {
			c.SetOnDeliver(func(n int) { sink.incs = append(sink.incs, n) })
			c.SetOnClose(func(err error) { sink.closeErr, sink.closed = err, true })
		})
		if err != nil {
			t.Errorf("listen: %v", err)
		}
	})
	return sink, h.Addr(80)
}

// TestNetReaderReassemblesAcrossReads dribbles a stream of raw frames onto
// the socket in pieces that cut headers and padding at every kind of
// boundary. The reader must report, frame by frame, increments that sum to
// the frame's n with none above deliverChunk, and a clean end of stream.
func TestNetReaderReassemblesAcrossReads(t *testing.T) {
	g := NewGroup(1)
	defer g.Close()
	sink, vaddr := listenRaw(t, g)
	peer := dialRaw(t, g, vaddr)

	sizes := []int{1, frameHdr - 1, frameHdr, frameHdr + 1, 300, readBufSize - frameHdr, readBufSize,
		readBufSize + 1, deliverChunk, deliverChunk + frameHdr, 2*deliverChunk + 5, 1}
	var stream []byte
	var total int
	for _, n := range sizes {
		stream = appendFrame(stream, kindRaw, 0, n)
		total += n
	}
	// Pieces of 1, 2, 3, ... bytes first (every split of the first headers),
	// then ever larger ones; a pause now and then forces separate reads.
	for off, step := 0, 1; off < len(stream); step++ {
		piece := step
		if off > 600 {
			piece = step * 997
		}
		end := min(off+piece, len(stream))
		if _, err := peer.sock.Write(stream[off:end]); err != nil {
			t.Fatalf("raw write: %v", err)
		}
		off = end
		if step%7 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	peer.sock.Close()

	(&netBackend{group: g}).wait(t, "end of the raw stream", func() bool { return sink.closed })
	g.Do(func() {
		if sink.closeErr != nil {
			t.Errorf("close err = %v, want nil after a whole stream", sink.closeErr)
		}
		// Increments never span frames: walk them against the frame sizes.
		i := 0
		for fi, n := range sizes {
			for left := n; left > 0; i++ {
				if i == len(sink.incs) {
					t.Fatalf("increments ran out in frame %d (n=%d, %d left)", fi, n, left)
				}
				inc := sink.incs[i]
				if inc > deliverChunk || inc > left {
					t.Fatalf("frame %d (n=%d): increment %d with %d left, deliverChunk %d", fi, n, inc, left, deliverChunk)
				}
				left -= inc
			}
		}
		if i != len(sink.incs) {
			t.Errorf("%d increments beyond the last frame", len(sink.incs)-i)
		}
	})
}

// TestNetReaderRejectsBrokenStreams feeds the reader what only a broken or
// hostile peer sends. Each case must end the connection with ErrReset —
// never a clean close, never a panic on the run loop.
func TestNetReaderRejectsBrokenStreams(t *testing.T) {
	cases := []struct {
		name   string
		stream func() []byte
	}{
		{"end of stream inside a header", func() []byte {
			return appendFrame(appendFrame(nil, kindRaw, 0, 100), kindRaw, 0, 50)[:100+5]
		}},
		{"end of stream inside the padding", func() []byte {
			return appendFrame(nil, kindRaw, 0, 4096)[:1000]
		}},
		{"unknown frame kind", func() []byte {
			return appendFrame(appendFrame(nil, kindRaw, 0, 64), 9, 0, 64)
		}},
		{"message the mailbox never saw", func() []byte {
			return appendFrame(nil, kindMsg, 0, 64)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGroup(1)
			defer g.Close()
			sink, vaddr := listenRaw(t, g)
			peer := dialRaw(t, g, vaddr)
			if _, err := peer.sock.Write(tc.stream()); err != nil {
				t.Fatalf("raw write: %v", err)
			}
			peer.sock.(*net.TCPConn).CloseWrite()
			defer peer.sock.Close()
			(&netBackend{group: g}).wait(t, "the conn to give up", func() bool { return sink.closed })
			g.Do(func() {
				if !errors.Is(sink.closeErr, ErrReset) {
					t.Errorf("close err = %v, want ErrReset", sink.closeErr)
				}
			})
		})
	}
}

// TestValQueueOrderAndCompaction pins the mailbox FIFO: values pop in push
// order under the right seq only, a long-lived backlog does not keep what
// was delivered, and a dropped queue takes nothing more.
func TestValQueueOrderAndCompaction(t *testing.T) {
	var q valQueue
	next := uint64(0)
	pushed := 0
	for round := 0; round < 2000; round++ {
		q.push(pushed)
		pushed++
		if round%3 != 0 { // pop two of every three: the backlog keeps growing
			if _, ok := q.pop(next + 1); ok {
				t.Fatalf("pop accepted seq %d while %d was next", next+1, next)
			}
			v, ok := q.pop(next)
			if !ok || v.(int) != int(next) {
				t.Fatalf("pop(%d) = %v, %v", next, v, ok)
			}
			next++
		}
	}
	if backlog := pushed - int(next); len(q.vals)-q.head != backlog {
		t.Errorf("queue holds %d values, want the backlog of %d", len(q.vals)-q.head, backlog)
	}
	if q.head > len(q.vals)/2+64 {
		t.Errorf("head = %d of %d: delivered values were not compacted away", q.head, len(q.vals))
	}
	q.drop()
	q.push(1)
	if _, ok := q.pop(0); ok || len(q.vals) != 0 {
		t.Error("a dropped queue still accepted a value")
	}
}
