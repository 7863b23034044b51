package flow

import (
	"fmt"
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
)

// BenchmarkFabricRequestReply times the load a TCP transfer puts on the
// fabric: fan sources send 1000-byte packets to one sink, and the sink
// answers every delivery with a 40-byte reply — a one-packet flow that
// arrives at the instant of the delivery and departs one path delay later.
// One op is one data packet with its reply, end to end.
func BenchmarkFabricRequestReply(b *testing.B) {
	for _, fan := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("fan%d", fan), func(b *testing.B) {
			eng := sim.NewEngine(sim.WithSeed(1))
			net := netem.NewNetwork(eng, netem.NetworkConfig{CloudDelay: time.Millisecond})
			fab := NewFabric(eng, net, Config{EndToEnd: true})
			cfg := netem.AccessLinkConfig{UpRate: netem.MBps, DownRate: netem.MBps, Delay: time.Millisecond, QueueCap: 4096}
			const sinkIP = netem.IP(1)
			var sink *netem.Iface
			sink = net.Attach(sinkIP, fab.NewLink(sinkIP, cfg), netem.HandlerFunc(func(pkt *netem.Packet) {
				ack := net.NewPacket()
				ack.Dst = netem.Addr{IP: pkt.Src.IP}
				ack.Size = 40
				sink.Send(ack)
			}))
			srcs := make([]*netem.Iface, fan)
			for i := range srcs {
				ip := sinkIP + 1 + netem.IP(i)
				srcs[i] = net.Attach(ip, fab.NewLink(ip, cfg), netem.HandlerFunc(func(*netem.Packet) {}))
			}
			// A round is up to eight packets a source, sent in one burst and
			// run to quiescence, replies included.
			round := func(packets int) {
				for i := 0; i < packets; i++ {
					pkt := net.NewPacket()
					pkt.Dst = netem.Addr{IP: sinkIP}
					pkt.Size = 1000
					srcs[i%fan].Send(pkt)
				}
				eng.Run()
			}
			round(8 * fan)
			b.ReportAllocs()
			b.ResetTimer()
			for left := b.N; left > 0; left -= 8 * fan {
				round(min(left, 8*fan))
			}
		})
	}
}
