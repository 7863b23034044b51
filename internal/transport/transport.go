// Package transport defines the seam between the protocol implementations
// (bt, ed2k, gnutella, wp2p) and whatever carries their bytes. Two backends
// implement it:
//
//   - Sim adapts the deterministic packet-level tcp.Stack. It is a pure
//     pass-through — digests and exports are byte-identical to calling the
//     stack directly — so every simulation result is unaffected by the seam.
//   - Net carries the same protocol traffic over real OS sockets on
//     loopback, turning the protocol code into a deployable client/testbed
//     (the paper's Georgia-Tech-style live experiments become runnable).
//
// The interface mirrors the modelled stack's application surface: payload
// bytes are counted rather than stored (Write/OnDeliver move abstract
// counts; SendMessage frames an application value onto the stream at a
// declared wire length). The net backend realises those counts as real
// padded frames, so live transfers exercise real TCP with the same traffic
// shape the simulation models.
//
// Error contract (shared by both backends — the reason tcp's panics became
// errors): Listen on a taken port returns ErrAddrInUse; Dial with no free
// ephemeral port returns ErrPortExhausted; a dialled peer that refuses the
// connection reports ErrReset through OnClose; an unreachable peer reports
// ErrTimeout; local Close reports ErrClosed locally and a clean nil at the
// peer after all data is delivered.
package transport

import (
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/tcp"
)

// Connection lifecycle errors, re-exported so protocol code depends only on
// the transport package. Both backends report these identical sentinel
// values (the net backend maps OS errno equivalents onto them).
var (
	// ErrTimeout: the peer stopped responding (sim: retransmission limit;
	// net: OS connect/read timeout).
	ErrTimeout = tcp.ErrTimeout
	// ErrReset: the peer aborted or refused the connection (sim: RST;
	// net: ECONNREFUSED / ECONNRESET).
	ErrReset = tcp.ErrReset
	// ErrClosed: the connection was closed locally.
	ErrClosed = tcp.ErrClosed
	// ErrAddrInUse: the listen port is taken (sim: registered listener;
	// net: EADDRINUSE or a registered virtual binding).
	ErrAddrInUse = tcp.ErrAddrInUse
	// ErrPortExhausted: no ephemeral port is free for a dial.
	ErrPortExhausted = tcp.ErrPortExhausted
)

// Conn is one endpoint of a bidirectional connection. Callbacks must be set
// immediately after Dial or inside the accept callback, before control
// returns to the transport; they are invoked on the transport's event
// goroutine (the simulation loop, or the net backend's run loop), so
// protocol code is single-threaded on either backend.
type Conn interface {
	// LocalAddr returns the virtual address of this endpoint.
	LocalAddr() netem.Addr
	// RemoteAddr returns the virtual address of the peer.
	RemoteAddr() netem.Addr

	// Write appends n abstract payload bytes to the send stream.
	Write(n int)
	// SendMessage frames an application value onto the stream, occupying
	// wireLen stream bytes. The peer's OnMessage observes the value once
	// the framing byte range is delivered in order.
	SendMessage(val any, wireLen int)
	// Buffered returns the number of stream bytes accepted by Write or
	// SendMessage and not yet acknowledged/flushed — the backpressure
	// signal applications pace against (see OnWritable).
	Buffered() int64

	// Close ends the stream gracefully: queued data is delivered, the
	// local side observes OnClose(ErrClosed), the peer OnClose(nil).
	Close()
	// Abort tears the connection down immediately: the local side observes
	// OnClose(ErrClosed), the peer OnClose(ErrReset).
	Abort()

	// SetOnEstablished registers the handshake-completion callback.
	SetOnEstablished(func())
	// SetOnDeliver registers the in-order payload callback (n new bytes).
	SetOnDeliver(func(n int))
	// SetOnMessage registers the framed-message callback.
	SetOnMessage(func(val any))
	// SetOnClose registers the teardown callback. It fires exactly once,
	// whatever ends the connection.
	SetOnClose(func(err error))
	// SetOnWritable registers the send-buffer-drained callback.
	SetOnWritable(func())
}

// Listener accepts inbound connections on a port.
type Listener interface {
	// Port returns the bound (virtual) port.
	Port() uint16
	// Close stops accepting. Established connections are unaffected; a
	// connection attempt arriving after Close is refused (RST), never
	// delivered to a stale accept callback. The port is immediately free
	// for a fresh Listen.
	Close()
}

// Interface is one host's transport: the dialing/listening surface the
// protocol packages speak to.
type Interface interface {
	// Engine returns the event engine driving this host's callbacks and
	// timers. Under the net backend the engine advances with the wall
	// clock (see Group); protocol timers work identically on both.
	Engine() *sim.Engine
	// Addr returns this host's virtual address with the given port.
	Addr(port uint16) netem.Addr
	// Dial opens a connection to a remote virtual address. The returned
	// Conn is not yet established; set callbacks before the event loop
	// resumes. Dial fails fast only for local errors (ErrPortExhausted);
	// remote failures arrive through OnClose.
	Dial(remote netem.Addr) (Conn, error)
	// Listen binds port and delivers inbound connections to onAccept.
	// Callbacks for the new Conn should be set inside onAccept.
	Listen(port uint16, onAccept func(Conn)) (Listener, error)
}

// IfaceProvider is an optional capability of transports backed by a
// simulated network interface. Packet-level machinery (wp2p's AM filter and
// redundant-request probing) requires it; such features are sim-only and
// must type-assert.
type IfaceProvider interface {
	Iface() *netem.Iface
}

// StackProvider is an optional capability of transports backed by the
// modelled TCP stack, for packet-level observers (wp2p's flow tracker).
type StackProvider interface {
	Stack() *tcp.Stack
}
