package transport

import (
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/tcp"
)

// Sim adapts the deterministic packet-level tcp.Stack to the transport
// interface. It is a zero-cost seam: *tcp.Conn itself satisfies Conn and
// *tcp.Listener satisfies Listener, so no wrapper object sits on any hot
// path and the simulation's event trajectory — and therefore its digests
// and exports — is byte-identical to calling the stack directly.
type Sim struct {
	stack *tcp.Stack
}

// NewSim wraps a modelled TCP stack.
func NewSim(stack *tcp.Stack) *Sim { return &Sim{stack: stack} }

// Stack exposes the underlying modelled stack (StackProvider).
func (t *Sim) Stack() *tcp.Stack { return t.stack }

// Iface exposes the underlying network interface (IfaceProvider).
func (t *Sim) Iface() *netem.Iface { return t.stack.Iface() }

// Engine returns the simulation engine.
func (t *Sim) Engine() *sim.Engine { return t.stack.Engine() }

// Addr returns the host's current address with the given port.
func (t *Sim) Addr(port uint16) netem.Addr { return t.stack.Addr(port) }

// Dial opens a modelled connection and sends the initial SYN.
func (t *Sim) Dial(remote netem.Addr) (Conn, error) {
	c, err := t.stack.Dial(remote)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Listen binds a modelled listener on port.
func (t *Sim) Listen(port uint16, onAccept func(Conn)) (Listener, error) {
	var fn func(*tcp.Conn)
	if onAccept != nil {
		fn = func(c *tcp.Conn) { onAccept(c) }
	}
	l, err := t.stack.Listen(port, fn)
	if err != nil {
		return nil, err
	}
	return l, nil
}

// Interface-satisfaction pins: the adapter, the modelled conn and listener,
// and the optional capabilities.
var (
	_ Interface     = (*Sim)(nil)
	_ IfaceProvider = (*Sim)(nil)
	_ StackProvider = (*Sim)(nil)
	_ Conn          = (*tcp.Conn)(nil)
	_ Listener      = (*tcp.Listener)(nil)
)
