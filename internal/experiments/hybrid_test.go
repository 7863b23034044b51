package experiments

import (
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/tcp"
)

// hybridTolerance is the documented accuracy contract of flow fidelity:
// every figure point produced with the fluid wired core must land within
// 10% (relative) of the packet-level truth. The fluid crossing times are
// exact; the default delivery quantum adds under 100µs of lateness per
// packet, which at stochastic operating points (nonzero BER) resequences
// corruption draws — so the curves are compared averaged over enough runs
// for that jitter to wash out, and the bound checks model bias.
const hybridTolerance = 0.10

// withinTol compares two curves point-wise under the relative tolerance,
// with a small absolute floor so near-zero points don't blow up the ratio.
func withinTol(t *testing.T, name string, packet, flow []float64) {
	t.Helper()
	if len(packet) != len(flow) {
		t.Fatalf("%s: curve lengths differ: %d vs %d", name, len(packet), len(flow))
	}
	for i := range packet {
		diff := flow[i] - packet[i]
		if diff < 0 {
			diff = -diff
		}
		bound := hybridTolerance * packet[i]
		if bound < 1 { // 1 KB/s absolute floor
			bound = 1
		}
		if diff > bound {
			t.Errorf("%s[%d]: flow=%.3f packet=%.3f differ by %.3f (tolerance %.3f)",
				name, i, flow[i], packet[i], diff, bound)
		}
	}
}

// TestFig2aFlowWithinTolerance validates the hybrid model against the
// figure the paper leads with: the wired peer runs on the fluid core, the
// mobile peer stays packet-level, and both bi- and uni-TCP curves must
// match the all-packet truth within the documented tolerance.
func TestFig2aFlowWithinTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("two full fig2a runs")
	}
	cfg := Fig2aConfig{Scale: 0.05, Runs: 6, BERs: []float64{0, 1e-5, 2e-5}}
	packet := Fig2aBiVsUniTCP(cfg)
	cfg.Fidelity = FidelityFlow
	flow := Fig2aBiVsUniTCP(cfg)
	for i, s := range packet.Series {
		withinTol(t, "fig2a "+s.Label, s.Y, flow.Series[i].Y)
	}
}

// TestFig4aFlowWithinTolerance validates the hybrid model on an all-wired
// figure: every immobile host (static seeds and the fixed peer) rides the
// fluid core while mobile seeds stay packet-level, and the mobility
// throughput-collapse curves must match packet truth within tolerance.
func TestFig4aFlowWithinTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("two full fig4a runs")
	}
	cfg := Fig4aConfig{Scale: 0.05, Periods: []time.Duration{0, 30 * time.Second}}
	packet := Fig4aServerMobility(cfg)
	cfg.Fidelity = FidelityFlow
	flow := Fig4aServerMobility(cfg)
	for i, s := range packet.Series {
		withinTol(t, "fig4a "+s.Label, s.Y, flow.Series[i].Y)
	}
}

// TestFluidBoundaryBytesDelivered pins the WLAN boundary adapter: a bulk
// TCP transfer from a fluid wired server terminates at the wireless
// client's AP and crosses the WLAN packet-by-packet, so the client must
// receive the same bytes as with a packet-level server, within tolerance.
// (The single-packet timing identity is pinned exactly in internal/flow.)
func TestFluidBoundaryBytesDelivered(t *testing.T) {
	transfer := func(fidelity string) int64 {
		w := NewWorld(1, 0)
		defer w.Finish(nil)
		var server *Host
		if fidelity == FidelityFlow {
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
	packet := transfer(FidelityPacket)
	flow := transfer(FidelityFlow)
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
