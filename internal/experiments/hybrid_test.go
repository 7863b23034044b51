package experiments

import (
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/tcp"
)

// hybridTolerance is the documented accuracy contract of flow fidelity:
// bytes delivered with the fluid wired core land within 10% (relative) of
// the packet-level truth (the scenario package holds the figure curves to
// the same bound).
const hybridTolerance = 0.10

// TestFluidBoundaryBytesDelivered pins the WLAN boundary adapter: a bulk
// TCP transfer from a fluid wired server terminates at the wireless
// client's AP and crosses the WLAN packet-by-packet, so the client must
// receive the same bytes as with a packet-level server, within tolerance.
// (The single-packet timing identity is pinned exactly in internal/flow.)
func TestFluidBoundaryBytesDelivered(t *testing.T) {
	transfer := func(fluid bool) int64 {
		w := NewWorld(1, 0)
		defer w.Finish(nil)
		var server *Host
		if fluid {
			server = w.FluidHost(netem.AccessLinkConfig{})
		} else {
			server = w.WiredHost(0, 0)
		}
		client := w.WirelessHost(netem.WirelessConfig{Rate: 400 * netem.KBps})
		var conn *tcp.Conn
		server.Stack.MustListen(80, func(c *tcp.Conn) { conn = c })
		cl := client.Stack.MustDial(netem.Addr{IP: server.Iface.IP(), Port: 80})
		w.RunFor(2 * time.Second)
		if conn == nil {
			t.Fatal("connection not established")
		}
		var rcvd int64
		cl.SetOnDeliver(func(n int) { rcvd += int64(n) })
		conn.Write(1 << 30)
		w.RunFor(20 * time.Second)
		return rcvd
	}
	packet := transfer(false)
	flow := transfer(true)
	if packet == 0 {
		t.Fatal("packet-level transfer moved no bytes")
	}
	diff := float64(flow-packet) / float64(packet)
	if diff < 0 {
		diff = -diff
	}
	if diff > hybridTolerance {
		t.Errorf("bytes delivered across the WLAN boundary: flow=%d packet=%d (%.1f%% apart, tolerance %.0f%%)",
			flow, packet, 100*diff, 100*hybridTolerance)
	}
}
