package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
)

// The net backend carries protocol traffic over real OS sockets on
// loopback. Each virtual host keeps the netem.Addr identity the protocols
// were written against; a per-group directory maps virtual listen addresses
// to the real 127.0.0.1:<ephemeral> sockets behind them.
//
// Concurrency model: every protocol callback runs on the group's single run
// loop goroutine, which also pumps the shared sim.Engine against the wall
// clock — so protocol timers (choke intervals, tracker re-announce, RTO-ish
// application timeouts) fire live with the same code paths the simulation
// uses, and protocol state needs no locks on either backend. Socket reader
// and writer goroutines never touch protocol state directly; they post
// closures into the loop.
//
// Stream realisation: the modelled stack counts payload bytes instead of
// storing them, so the net backend frames each SendMessage/Write as a small
// header plus zero padding sized to the declared wire length — live runs
// push real bytes through real TCP with the modelled traffic shape. The
// framed application values themselves travel through an in-process
// mailbox, one FIFO per connection and direction (pair); the byte stream
// carries their length and ordering. (A cross-process deployment would swap
// the mailbox for a codec at this one seam.)
//
// Data path: both socket goroutines work in batches. The writer takes the
// whole frame queue per wake-up and emits it as one vectored write; the
// reader pulls whatever one read returns through a fixed buffer, parses
// every complete frame in it and hands the loop one batch of delivery
// records. The run loop drains every pending post per wake-up.

// Wire framing constants.
const (
	helloMagic = 0x77503250 // "wP2P"
	helloLen   = 19         // magic(4) ver(1) ip(4) port(2) connID(8)
	frameHdr   = 13         // kind(1) seq(8) len(4)

	kindMsg byte = 1 // framed application message, len = modelled wireLen
	kindRaw byte = 2 // raw Write bytes, len = count

	// deliverChunk bounds how many stream bytes collapse into one OnDeliver
	// callback, so multi-megabyte frames report streaming progress instead
	// of one burst.
	deliverChunk = 256 << 10

	// readBufSize is the reader's fixed buffer: one read(2) takes up to this
	// much of the stream, frames and padding alike.
	readBufSize = 64 << 10

	// maxIov caps the slices of one vectored write (the kernel's own limit
	// is 1024): a flush carries at most maxIov/2 small frames, or
	// maxIov × len(zeroPad) bytes of one large one.
	maxIov = 64
)

// dialTimeout bounds a live connect attempt; mapErr turns its expiry into
// ErrTimeout, matching the sim's retransmission-limit semantics.
const dialTimeout = 5 * time.Second

// mapErr folds OS socket errors onto the transport error contract.
func mapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.EPIPE):
		return ErrReset
	case errors.Is(err, net.ErrClosed):
		return ErrClosed
	case os.IsTimeout(err):
		return ErrTimeout
	default:
		return err
	}
}

// Group is a set of virtual hosts sharing one loopback address directory,
// one sim.Engine, and one run loop. It is the net-backend analogue of a
// simulated world.
type Group struct {
	engine *sim.Engine
	start  time.Time

	inject  chan func()
	done    chan struct{} // closed by Close: loop should exit
	stopped chan struct{} // closed by the loop on exit
	once    sync.Once

	// socks counts the goroutines that hold a real socket or listener.
	// Close waits for it with the loop still running, so whatever such a
	// goroutine posts is executed and no live socket is ever stranded in a
	// closure nobody runs.
	socks sync.WaitGroup

	// hostMu guards only the hosts map: Host may be called from any
	// goroutine, including loop callbacks.
	hostMu sync.Mutex
	hosts  map[netem.IP]*Net

	// Loop-goroutine state (no locks: only the run loop touches these).
	dir        map[netem.Addr]string // virtual listen addr -> real host:port
	conns      map[*netConn]struct{} // endpoints not yet released (see netConn.release)
	pairs      map[uint64]*pair      // connID -> mailbox, from Dial until the acceptor claims it
	nextConnID uint64
	closing    bool // Close has begun: no new listener may start
}

// pair is the in-process mailbox of one connection: a FIFO of application
// values per direction, shared by the two endpoints (loop-goroutine state).
// The stream delivers frames in order, so a receiver pops values in the
// order the sender pushed them; the frame's seq only asserts it. Each
// endpoint owns the FIFO it receives from and drops it at teardown — what it
// already sent stays for the peer to drain.
type pair struct {
	q [2]valQueue // by direction: 0 dialer -> acceptor, 1 acceptor -> dialer
}

// valQueue is one direction of a pair.
type valQueue struct {
	vals    []any
	head    int    // vals[:head] are delivered
	next    uint64 // seq of vals[head]
	dropped bool   // the receiver is torn down: pushes are discarded
}

func (q *valQueue) push(v any) {
	if !q.dropped {
		q.vals = append(q.vals, v)
	}
}

// pop returns the value framed as seq, or false if it is not the next one.
func (q *valQueue) pop(seq uint64) (any, bool) {
	if q.head == len(q.vals) || seq != q.next {
		return nil, false
	}
	v := q.vals[q.head]
	q.vals[q.head] = nil
	q.head++
	q.next++
	switch {
	case q.head == len(q.vals):
		q.vals, q.head = q.vals[:0], 0
	case q.head >= 64 && 2*q.head >= len(q.vals):
		// Never quite empty: slide the backlog down so the slice does not
		// grow by what has long been delivered.
		n := copy(q.vals, q.vals[q.head:])
		clear(q.vals[n:])
		q.vals, q.head = q.vals[:n], 0
	}
	return v, true
}

func (q *valQueue) drop() { *q = valQueue{dropped: true} }

// NewGroup starts a run loop around a fresh engine seeded with seed.
func NewGroup(seed int64) *Group {
	g := &Group{
		engine:  sim.NewEngine(sim.WithSeed(seed)),
		start:   time.Now(),
		inject:  make(chan func(), 1024),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
		dir:     make(map[netem.Addr]string),
		hosts:   make(map[netem.IP]*Net),
		conns:   make(map[*netConn]struct{}),
		pairs:   make(map[uint64]*pair),
	}
	go g.loop()
	return g
}

// loop is the single goroutine on which the engine advances and every
// protocol callback runs.
func (g *Group) loop() {
	defer close(g.stopped)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-g.done:
			return
		case fn := <-g.inject:
			g.engine.RunUntil(time.Since(g.start))
			fn()
			// Whatever else is queued by now runs in the same turn: the
			// engine advances once per wake-up, not once per post. Bounded
			// by the count at this instant, so timers are not starved.
			for n := len(g.inject); n > 0; n-- {
				(<-g.inject)()
			}
		case <-tick.C:
			g.engine.RunUntil(time.Since(g.start))
		}
	}
}

// post queues fn onto the run loop from a socket goroutine. Posts from the
// same goroutine execute in order. It cannot drop fn: every caller is
// counted in g.socks, and the loop outlives them all (see Close).
func (g *Group) post(fn func()) { g.inject <- fn }

// Do runs fn on the loop goroutine and waits for it — the way tests and
// drivers construct protocol state and inspect it safely. It must not be
// called from inside a callback (which already runs on the loop).
func (g *Group) Do(fn func()) {
	ran := make(chan struct{})
	select {
	case g.inject <- func() { fn(); close(ran) }:
		select {
		case <-ran:
		case <-g.stopped:
		}
	case <-g.stopped:
	}
}

// Engine returns the shared engine. Touch it only from inside Do or a
// protocol callback.
func (g *Group) Engine() *sim.Engine { return g.engine }

// Host returns the transport endpoint for a virtual IP, creating it on
// first use. Safe from any goroutine, including loop callbacks.
func (g *Group) Host(ip netem.IP) *Net {
	g.hostMu.Lock()
	defer g.hostMu.Unlock()
	if h, ok := g.hosts[ip]; ok {
		return h
	}
	t := &Net{
		group:     g,
		ip:        ip,
		nextPort:  ephemeralBase,
		inUse:     make(map[uint16]bool),
		listeners: make(map[uint16]*netListener),
	}
	g.hosts[ip] = t
	return t
}

// Close closes every listener, aborts every connection and stops the run
// loop. When it returns every socket the group opened is closed and every
// goroutine it started has exited — a connect or hello that completes
// meanwhile still reaches the loop, which refuses it. (A foreign client
// that connects and never says hello holds Close up to dialTimeout.)
func (g *Group) Close() {
	g.Do(func() {
		g.closing = true
		g.hostMu.Lock()
		hosts := make([]*Net, 0, len(g.hosts))
		for _, h := range g.hosts {
			hosts = append(hosts, h)
		}
		g.hostMu.Unlock()
		// Listeners first: the directory is empty by the time the aborts
		// below run application callbacks, so a callback that redials is
		// refused instead of opening a fresh socket.
		for _, h := range hosts {
			for _, l := range h.listeners {
				l.Close()
			}
		}
		for c := range g.conns {
			c.kill()
			c.teardown(ErrClosed)
		}
	})
	g.socks.Wait()
	g.Do(func() {}) // everything the socket goroutines posted has now run
	g.once.Do(func() { close(g.done) })
	<-g.stopped
}

// ephemeralBase mirrors the modelled stack's IANA dynamic range.
const ephemeralBase = 49152

// Net is one virtual host's real-socket transport (Interface).
type Net struct {
	group *Group
	ip    netem.IP

	// Loop-goroutine state.
	nextPort  uint16
	inUse     map[uint16]bool
	listeners map[uint16]*netListener
}

// Engine returns the group's engine.
func (t *Net) Engine() *sim.Engine { return t.group.engine }

// Addr returns the host's virtual address with the given port.
func (t *Net) Addr(port uint16) netem.Addr { return netem.Addr{IP: t.ip, Port: port} }

// allocPort mirrors tcp.Stack.allocPort on the virtual port space: skip
// listeners and ports held by live conns; surface exhaustion as an error.
func (t *Net) allocPort() (uint16, error) {
	for tries := 0; tries < 1<<14; tries++ {
		p := t.nextPort
		t.nextPort++
		if t.nextPort < ephemeralBase {
			t.nextPort = ephemeralBase
		}
		if _, taken := t.listeners[p]; taken {
			continue
		}
		if t.inUse[p] {
			continue
		}
		return p, nil
	}
	return 0, ErrPortExhausted
}

// Listen binds the virtual port, backed by a fresh real loopback listener.
func (t *Net) Listen(port uint16, onAccept func(Conn)) (Listener, error) {
	vaddr := netem.Addr{IP: t.ip, Port: port}
	if t.group.closing {
		return nil, fmt.Errorf("transport: listen %s: %w", vaddr, ErrClosed)
	}
	if _, taken := t.group.dir[vaddr]; taken {
		return nil, fmt.Errorf("transport: listen %s: %w", vaddr, ErrAddrInUse)
	}
	real, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", vaddr, mapErr(err))
	}
	l := &netListener{host: t, port: port, real: real, onAccept: onAccept}
	t.group.dir[vaddr] = real.Addr().String()
	t.listeners[port] = l
	t.group.socks.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Dial opens a connection to a remote virtual address. The connect runs on
// its own goroutine; failures arrive through OnClose exactly as the sim
// backend reports them (refused -> ErrReset, unreachable -> ErrTimeout).
func (t *Net) Dial(remote netem.Addr) (Conn, error) {
	port, err := t.allocPort()
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", remote, err)
	}
	g := t.group
	local := netem.Addr{IP: t.ip, Port: port}
	t.inUse[port] = true
	g.nextConnID++
	c := newNetConn(t, local, remote, g.nextConnID, 0, &pair{})
	g.pairs[c.id] = c.pair
	real, ok := g.dir[remote]
	if !ok {
		// No listener directory entry: the virtual host refuses, like the
		// sim stack's RST to an unbound port. Deliver asynchronously so the
		// caller can set OnClose first.
		g.engine.Schedule(0, func() { c.teardown(ErrReset) })
		return c, nil
	}
	g.socks.Add(1)
	go c.runDial(real)
	return c, nil
}

// netListener accepts real connections for one virtual port.
type netListener struct {
	host     *Net
	port     uint16
	real     net.Listener
	onAccept func(Conn)
	closed   bool // loop-goroutine state
}

// Port returns the bound virtual port.
func (l *netListener) Port() uint16 { return l.port }

// Close unbinds the virtual port and closes the real socket. A handshake
// already in flight is refused with a RST once it reaches the loop — the
// stale onAccept can never run (the regression contract shared with the
// sim backend).
func (l *netListener) Close() {
	if l.closed {
		return
	}
	l.closed = true
	vaddr := netem.Addr{IP: l.host.ip, Port: l.port}
	if l.host.group.dir[vaddr] == l.real.Addr().String() {
		delete(l.host.group.dir, vaddr)
	}
	if l.host.listeners[l.port] == l {
		delete(l.host.listeners, l.port)
	}
	l.real.Close()
}

func (l *netListener) acceptLoop() {
	g := l.host.group
	defer g.socks.Done()
	for {
		sock, err := l.real.Accept()
		if err != nil {
			return // listener closed
		}
		g.socks.Add(1)
		go l.handshake(sock)
	}
}

// handshake reads the dialer's hello off the fresh socket, then hands the
// connection to the loop for acceptance.
func (l *netListener) handshake(sock net.Conn) {
	defer l.host.group.socks.Done()
	var buf [helloLen]byte
	sock.SetReadDeadline(time.Now().Add(dialTimeout))
	if _, err := io.ReadFull(sock, buf[:]); err != nil ||
		binary.BigEndian.Uint32(buf[0:4]) != helloMagic || buf[4] != 1 {
		rstClose(sock)
		return
	}
	sock.SetReadDeadline(time.Time{})
	remote := netem.Addr{
		IP:   netem.IP(binary.BigEndian.Uint32(buf[5:9])),
		Port: binary.BigEndian.Uint16(buf[9:11]),
	}
	connID := binary.BigEndian.Uint64(buf[11:19])
	l.host.group.post(func() { l.accept(sock, remote, connID) })
}

// accept (loop goroutine) delivers one handshaken socket to the
// application, or refuses it if the listener closed while it was in flight.
func (l *netListener) accept(sock net.Conn, remote netem.Addr, connID uint64) {
	if l.closed {
		rstClose(sock)
		return
	}
	g := l.host.group
	p := g.pairs[connID]
	delete(g.pairs, connID)
	if p == nil {
		// The dialer is gone already and never wrote a frame; the socket is
		// about to say so.
		p = &pair{}
	}
	local := netem.Addr{IP: l.host.ip, Port: l.port}
	c := newNetConn(l.host, local, remote, connID, 1, p)
	c.attach(sock)
	if l.onAccept != nil {
		l.onAccept(c)
	}
	if !c.closed && c.onEstablished != nil {
		c.onEstablished()
	}
}

// rstClose refuses a socket with a RST (linger 0) rather than a clean FIN,
// so the dialer observes ErrReset — the same refusal the sim stack sends.
func rstClose(sock net.Conn) {
	if tc, ok := sock.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	sock.Close()
}

// frame is one queued wire unit awaiting the writer goroutine.
type frame struct {
	kind byte
	seq  uint64
	n    int
}

// putFrameHdr encodes f's wire header into hdr[:frameHdr].
func putFrameHdr(hdr []byte, f frame) {
	hdr[0] = f.kind
	binary.BigEndian.PutUint64(hdr[1:9], f.seq)
	binary.BigEndian.PutUint32(hdr[9:13], uint32(f.n))
}

// rec is one delivery the reader hands the loop: n stream bytes in order
// (at most deliverChunk) and, if msg, the framed value seq completed by them.
type rec struct {
	n   int
	seq uint64
	msg bool
}

// netConn is one endpoint of a real-socket connection.
type netConn struct {
	host   *Net
	local  netem.Addr
	remote netem.Addr
	id     uint64
	dirOut byte  // mailbox direction of frames we send
	pair   *pair // loop-goroutine state, shared with the peer endpoint

	// Loop-goroutine state.
	onEstablished func()
	onDeliver     func(int)
	onMessage     func(any)
	onClose       func(error)
	onWritable    func()
	closed        bool     // OnClose has fired: nothing further is sent or delivered
	sock          net.Conn // set by attach; nil while connecting or once refused
	sendSeq       uint64
	inboxSpare    []rec // the inbox's other half between drains

	// Method values bound once, so a post from a socket goroutine allocates
	// nothing.
	drainFn, writableFn, releaseFn func()

	// Shared state.
	buffered atomic.Int64
	live     atomic.Int32 // socket goroutines still running; the last one closes sock

	mu          sync.Mutex
	cond        *sync.Cond // the writer waits on it for frames or the end
	queue       []frame
	ended       bool  // no further frames: the writer flushes the queue, half-closes and exits
	aborted     bool  // the writer drops whatever it holds and exits
	inbox       []rec // reader -> loop
	inboxPosted bool  // a drainFn post is pending
}

func newNetConn(t *Net, local, remote netem.Addr, id uint64, dirOut byte, p *pair) *netConn {
	c := &netConn{host: t, local: local, remote: remote, id: id, dirOut: dirOut, pair: p}
	c.cond = sync.NewCond(&c.mu)
	c.drainFn, c.writableFn, c.releaseFn = c.drainInbox, c.fireWritable, c.release
	t.group.conns[c] = struct{}{}
	return c
}

// encodeHello builds the dialer's greeting: who it is on the virtual
// network and which connection this socket carries.
func encodeHello(local netem.Addr, connID uint64) (hello [helloLen]byte) {
	binary.BigEndian.PutUint32(hello[0:4], helloMagic)
	hello[4] = 1
	binary.BigEndian.PutUint32(hello[5:9], uint32(local.IP))
	binary.BigEndian.PutUint16(hello[9:11], local.Port)
	binary.BigEndian.PutUint64(hello[11:19], connID)
	return hello
}

// runDial performs the live connect and hello on a dedicated goroutine.
func (c *netConn) runDial(realAddr string) {
	g := c.host.group
	defer g.socks.Done()
	sock, err := net.DialTimeout("tcp", realAddr, dialTimeout)
	if err != nil {
		g.post(func() { c.teardown(mapErr(err)) })
		return
	}
	hello := encodeHello(c.local, c.id)
	if _, err := sock.Write(hello[:]); err != nil {
		rstClose(sock)
		g.post(func() { c.teardown(mapErr(err)) })
		return
	}
	g.post(func() {
		c.attach(sock)
		if !c.closed && c.onEstablished != nil {
			c.onEstablished()
		}
	})
}

// attach (loop goroutine) wires the live socket to the reader and writer
// goroutines, unless the conn was already torn down while connecting.
func (c *netConn) attach(sock net.Conn) {
	if c.closed {
		rstClose(sock)
		return
	}
	if tc, ok := sock.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c.sock = sock
	c.live.Store(2)
	c.host.group.socks.Add(2)
	go c.runWriter(sock)
	go c.runReader(sock)
}

// sockDone ends one socket goroutine. The last one out closes the socket
// and lets the loop forget the endpoint.
func (c *netConn) sockDone(sock net.Conn) {
	g := c.host.group
	if c.live.Add(-1) == 0 {
		sock.Close()
		g.post(c.releaseFn)
	}
	g.socks.Done()
}

// release (loop goroutine) forgets an endpoint that is torn down and holds
// no socket any more: one that never attached one, or whose reader and
// writer have both exited. Until then Group.Close can still reach the
// socket. By the time a dialer is released its acceptor, if there ever was
// one, has claimed the mailbox — the acceptor's socket outlives accept — so
// an entry still in g.pairs belongs to nobody.
func (c *netConn) release() {
	g := c.host.group
	delete(g.conns, c)
	if c.dirOut == 0 {
		delete(g.pairs, c.id)
	}
}

// LocalAddr returns the virtual local address.
func (c *netConn) LocalAddr() netem.Addr { return c.local }

// RemoteAddr returns the virtual remote address.
func (c *netConn) RemoteAddr() netem.Addr { return c.remote }

// Callback setters (loop goroutine).
func (c *netConn) SetOnEstablished(fn func())    { c.onEstablished = fn }
func (c *netConn) SetOnDeliver(fn func(n int))   { c.onDeliver = fn }
func (c *netConn) SetOnMessage(fn func(val any)) { c.onMessage = fn }
func (c *netConn) SetOnClose(fn func(err error)) { c.onClose = fn }
func (c *netConn) SetOnWritable(fn func())       { c.onWritable = fn }

// Buffered returns the bytes queued locally and not yet flushed to the
// kernel — the net backend's backpressure signal.
func (c *netConn) Buffered() int64 { return c.buffered.Load() }

// Write queues n raw payload bytes.
func (c *netConn) Write(n int) {
	if n <= 0 || c.closed {
		return
	}
	c.buffered.Add(int64(n))
	c.enqueue(frame{kind: kindRaw, n: n})
}

// SendMessage frames an application value occupying wireLen stream bytes.
// The value travels through the pair's mailbox; the socket carries its
// length, ordering, and padding.
func (c *netConn) SendMessage(val any, wireLen int) {
	if c.closed {
		return
	}
	seq := c.sendSeq
	c.sendSeq++
	c.pair.q[c.dirOut].push(val)
	if wireLen < frameHdr {
		wireLen = frameHdr
	}
	c.buffered.Add(int64(wireLen))
	c.enqueue(frame{kind: kindMsg, seq: seq, n: wireLen})
}

func (c *netConn) enqueue(f frame) {
	c.mu.Lock()
	if !c.ended {
		c.queue = append(c.queue, f)
		c.cond.Signal()
	}
	c.mu.Unlock()
}

// Close ends the stream gracefully: queued frames flush, the real socket
// half-closes, the local side observes ErrClosed and the peer drains the
// stream to EOF and observes nil.
func (c *netConn) Close() {
	if c.closed {
		return
	}
	c.mu.Lock()
	c.ended = true
	c.cond.Signal()
	c.mu.Unlock()
	c.teardown(ErrClosed)
}

// Abort tears the connection down immediately with a RST: local ErrClosed,
// peer ErrReset — the sim stack's Abort contract.
func (c *netConn) Abort() {
	if c.closed {
		return
	}
	c.kill()
	c.teardown(ErrClosed)
}

// kill (loop goroutine) drops the send queue and resets the socket, which
// ends both socket goroutines.
func (c *netConn) kill() {
	c.mu.Lock()
	c.aborted, c.ended = true, true
	c.queue = nil
	c.cond.Signal()
	c.mu.Unlock()
	if c.sock != nil {
		rstClose(c.sock)
	}
}

// teardown (loop goroutine) finalises the conn exactly once and fires
// OnClose.
func (c *netConn) teardown(err error) {
	if c.closed {
		return
	}
	c.closed = true
	// Only values *addressed to us* are garbage now; the peer endpoint may
	// still drain what we already sent it.
	c.pair.q[1-c.dirOut].drop()
	c.mu.Lock()
	if !c.ended {
		// The peer ended the stream or it failed: nobody is left to read
		// what is queued. The writer half-closes and exits.
		c.ended = true
		c.queue = c.queue[:0]
		c.cond.Signal()
	}
	c.mu.Unlock()
	if c.host.inUse[c.local.Port] {
		delete(c.host.inUse, c.local.Port)
	}
	if c.sock == nil {
		c.release()
	}
	if c.onClose != nil {
		c.onClose(err)
	}
}

// zeroPad is the shared padding source for frame bodies.
var zeroPad [64 << 10]byte

// vecWriter gathers frames into vectored writes: frame headers from a slab,
// padding as slices of zeroPad, so no padding is copied or staged.
type vecWriter struct {
	c    *netConn
	sock net.Conn
	hdrs []byte      // the headers of one flush
	iov  net.Buffers // what the next flush sends
	out  net.Buffers // WriteTo consumes its receiver; iov keeps the array
	owed int64       // modelled bytes in iov
}

// flush hands iov to the kernel, then reports the progress: Buffered falls
// and OnWritable fires once per flush.
func (w *vecWriter) flush() error {
	w.out = w.iov
	_, err := w.out.WriteTo(w.sock)
	w.iov, w.hdrs = w.iov[:0], w.hdrs[:0]
	w.c.buffered.Add(-w.owed)
	w.owed = 0
	if err == nil {
		w.c.host.group.post(w.c.writableFn)
	}
	return err
}

// room makes space for one more slice.
func (w *vecWriter) room() error {
	if len(w.iov) < maxIov {
		return nil
	}
	return w.flush()
}

// add appends one frame. The header's real bytes count toward the frame's
// modelled n, so a frame shorter than its header still accounts for n.
func (w *vecWriter) add(f frame) error {
	if err := w.room(); err != nil {
		return err
	}
	hdr := w.hdrs[len(w.hdrs) : len(w.hdrs)+frameHdr]
	w.hdrs = w.hdrs[:len(w.hdrs)+frameHdr]
	putFrameHdr(hdr, f)
	w.iov = append(w.iov, hdr)
	w.owed += int64(min(f.n, frameHdr))
	for pad := f.n - frameHdr; pad > 0; {
		if err := w.room(); err != nil {
			return err
		}
		chunk := min(pad, len(zeroPad))
		w.iov = append(w.iov, zeroPad[:chunk])
		w.owed += int64(chunk)
		pad -= chunk
	}
	return nil
}

// runWriter drains the frame queue onto the socket: per wake-up it takes
// the whole queue and sends it as one vectored write (more only when the
// batch outgrows maxIov slices).
func (c *netConn) runWriter(sock net.Conn) {
	defer c.sockDone(sock)
	w := &vecWriter{
		c: c, sock: sock,
		hdrs: make([]byte, 0, maxIov*frameHdr),
		iov:  make(net.Buffers, 0, maxIov),
	}
	var batch []frame // the queue's other half: swapped, not copied
	for {
		c.mu.Lock()
		for len(c.queue) == 0 && !c.ended {
			c.cond.Wait()
		}
		if c.aborted {
			c.mu.Unlock()
			return
		}
		if len(c.queue) == 0 { // ended, and everything before it is flushed
			c.mu.Unlock()
			if tc, ok := sock.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
			return
		}
		batch, c.queue = c.queue, batch[:0]
		c.mu.Unlock()

		var err error
		for i := 0; i < len(batch) && err == nil; i++ {
			err = w.add(batch[i])
		}
		if err == nil {
			err = w.flush()
		}
		if err != nil {
			// The connection is broken: report it, and reset the socket so
			// the reader does not wait on it.
			mapped := mapErr(err)
			c.host.group.post(func() { c.teardown(mapped) })
			rstClose(sock)
			return
		}
	}
}

// fireWritable (loop goroutine) reports a completed flush.
func (c *netConn) fireWritable() {
	if !c.closed && c.onWritable != nil {
		c.onWritable()
	}
}

// readBufs recycles reader buffers, so connection churn does not allocate
// (and the collector does not scan for) readBufSize per endpoint.
var readBufs = sync.Pool{New: func() any { return new([readBufSize]byte) }}

// runReader parses inbound frames and hands deliveries to the loop. Each
// read goes through one fixed buffer; every complete frame in it is parsed,
// padding is discarded where it lies, and the resulting records reach the
// loop as one batch. A frame's records sum to exactly its n — the header's
// real bytes count toward it — in steps of at most deliverChunk, so large
// frames report incremental OnDeliver progress like the modelled stack does.
func (c *netConn) runReader(sock net.Conn) {
	defer c.sockDone(sock)
	g := c.host.group
	arr := readBufs.Get().(*[readBufSize]byte)
	defer readBufs.Put(arr)
	var (
		buf  = arr[:]
		recs []rec  // the records of one read
		have int    // bytes of an incomplete header at the front of buf
		pad  int    // padding of the current frame still to come
		owed int    // bytes of the current frame consumed and not yet reported
		msg  bool   // the current frame carries a value
		seq  uint64 // its sequence number
	)
	for {
		n, err := sock.Read(buf[have:])
		data := buf[:have+n]
		for len(data) > 0 {
			if pad == 0 {
				if len(data) < frameHdr {
					break
				}
				kind := data[0]
				if kind != kindMsg && kind != kindRaw {
					err = syscall.EPIPE // not our framing: treat as a reset
					data = nil
					break
				}
				msg = kind == kindMsg
				seq = binary.BigEndian.Uint64(data[1:9])
				fn := int(binary.BigEndian.Uint32(data[9:13]))
				data = data[frameHdr:]
				owed = min(fn, frameHdr)
				pad = max(fn-frameHdr, 0)
			} else {
				k := min(pad, len(data), deliverChunk-owed)
				data = data[k:]
				pad -= k
				owed += k
			}
			switch {
			case pad == 0:
				recs = append(recs, rec{n: owed, seq: seq, msg: msg})
				owed = 0
			case owed == deliverChunk:
				recs = append(recs, rec{n: owed})
				owed = 0
			}
		}
		have = copy(buf, data)

		if len(recs) > 0 {
			c.mu.Lock()
			c.inbox = append(c.inbox, recs...)
			wake := !c.inboxPosted
			c.inboxPosted = true
			c.mu.Unlock()
			recs = recs[:0]
			if wake {
				g.post(c.drainFn)
			}
		}
		if err != nil {
			// EOF after the peer's clean half-close means the stream ended
			// (nil) — unless it cut a frame short; anything else maps onto
			// the error contract.
			mapped := mapErr(err)
			if errors.Is(err, io.EOF) {
				mapped = nil
				if have > 0 || pad > 0 {
					mapped = ErrReset
				}
			}
			g.post(func() { c.teardown(mapped) })
			return
		}
	}
}

// drainInbox (loop goroutine) delivers what the reader has parsed since the
// last drain: in-order payload progress and, where a record completes a
// framed message, its value from the mailbox.
func (c *netConn) drainInbox() {
	c.mu.Lock()
	batch := c.inbox
	c.inbox, c.inboxPosted = c.inboxSpare[:0], false
	c.mu.Unlock()
	c.inboxSpare = batch
	in := &c.pair.q[1-c.dirOut]
	for _, r := range batch {
		if c.closed {
			return
		}
		if r.n > 0 && c.onDeliver != nil {
			c.onDeliver(r.n)
		}
		if !r.msg || c.closed {
			continue
		}
		val, ok := in.pop(r.seq)
		if !ok {
			// The stream and the mailbox disagree about what comes next:
			// the connection cannot be trusted any further.
			c.kill()
			c.teardown(ErrReset)
			return
		}
		if c.onMessage != nil {
			c.onMessage(val)
		}
	}
}

// Interface-satisfaction pins for the net backend.
var (
	_ Interface = (*Net)(nil)
	_ Conn      = (*netConn)(nil)
	_ Listener  = (*netListener)(nil)
)
