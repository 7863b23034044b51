package flow

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
)

// echoHost attaches a fluid host that captures deliveries and answers every
// packet larger than reply bytes with a reply-byte packet to its source: the
// data/ACK pattern of a TCP transfer, where each delivery provokes a flow
// arrival in the opposite direction at the same instant.
func (r *rig) echoHost(cfg netem.AccessLinkConfig, reply int) (*netem.Iface, *Link, *capture) {
	ip := r.nextIP
	r.nextIP++
	link := r.fab.NewLink(ip, cfg)
	cap := &capture{}
	var ifc *netem.Iface
	ifc = r.net.Attach(ip, link, netem.HandlerFunc(func(pkt *netem.Packet) {
		cap.at = append(cap.at, r.eng.Now())
		cap.size = append(cap.size, pkt.Size)
		if pkt.Size > reply {
			ack := r.net.NewPacket()
			ack.Src = netem.Addr{IP: ip}
			ack.Dst = netem.Addr{IP: pkt.Src.IP}
			ack.Size = reply
			ifc.Send(ack)
		}
	}))
	return ifc, link, cap
}

// The seed rule: however many pipes a drain leaves stale, every one of them
// is waterfilled by the wave that follows — maxRelaxVisits bounds propagated
// visits only. Here one tick delivers on 100 disjoint pairs and each delivery
// provokes a reply, leaving 400 stale pipes; a wave that stopped at the bound
// would leave the replies on the unvisited pipes at rate 0 with no delivery
// armed, and they would never arrive.
func TestDrainWaterfillsEverySeedPipe(t *testing.T) {
	r := newRig(t, Config{EndToEnd: true}, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond})
	r.fab.SetCheckEnabled(true)
	cfg := netem.AccessLinkConfig{UpRate: 100 * netem.KBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond}
	const pairs = 100
	var srcs, dsts [pairs]*netem.Iface
	var acks [pairs]*capture
	for i := range srcs {
		srcs[i], _, acks[i] = r.fluidHost(cfg)
		dsts[i], _, _ = r.echoHost(cfg, 40)
	}
	updates := r.eng.Stats().Counter("flow.rate_updates")
	// 1000 B at 100 KB/s + 17 ms of path: every pair delivers on the 27 ms
	// tick. The probes bracket that tick's drain: before is scheduled ahead
	// of the bucket's event and after behind it, all at one instant.
	const tick = 27 * time.Millisecond
	var before int64
	r.eng.ScheduleAt(tick, func() { before = updates.Value() })
	r.eng.Schedule(0, func() {
		for i := range srcs {
			r.send(srcs[i], dsts[i], 1000)
		}
		r.eng.ScheduleAt(tick, func() {
			if got := updates.Value() - before; got < 4*pairs {
				t.Fatalf("the drain's wave waterfilled %d pipes, want all %d stale ones (bound %d)", got, 4*pairs, maxRelaxVisits)
			}
			waiting := 0
			for _, s := range r.fab.streams {
				if !s.active || s.qLen() == s.crossed {
					continue
				}
				waiting++
				if s.rate <= 0 || s.tick < 0 {
					t.Fatalf("stream %s→%s has bytes to cross at rate %g, calendar tick %d", s.key.src, s.key.dst, s.rate, s.tick)
				}
			}
			if waiting != pairs {
				t.Fatalf("%d streams waiting to cross after the drain, want the %d replies", waiting, pairs)
			}
			r.audit()
		})
	})
	r.eng.Run()
	for i, c := range acks {
		if len(c.at) != 1 {
			t.Fatalf("pair %d: %d replies delivered, want 1", i, len(c.at))
		}
	}
	r.audit()
}

// Two deliveries on one tick, and the replies they provoke, cost one
// relaxation wave: each of the six pipes left stale is waterfilled once. A
// wave per arrival and departure visits b's up pipe for each reply and comes
// back to a1's down pipe when the second reply halves the first: nine.
func TestSameTickDeliveriesShareOneWave(t *testing.T) {
	r := newRig(t, Config{EndToEnd: true, Quantum: 10 * time.Millisecond}, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond})
	a1, _, ack1 := r.fluidHost(netem.AccessLinkConfig{
		UpRate: 100 * netem.KBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
	})
	a2, _, ack2 := r.fluidHost(netem.AccessLinkConfig{
		UpRate: 200 * netem.KBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
	})
	b, _, capB := r.echoHost(netem.AccessLinkConfig{
		UpRate: 1 * netem.MBps, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
	}, 40)
	updates := r.eng.Stats().Counter("flow.rate_updates")
	fired := r.eng.Stats().Counter("sim.events_fired")
	var before int64
	r.eng.ScheduleAt(30*time.Millisecond, func() { before = updates.Value() })
	r.eng.Schedule(0, func() {
		r.send(a1, b, 1000) // exact delivery 27 ms → tick 30 ms
		r.send(a2, b, 1000) // exact delivery 22 ms → tick 30 ms
		r.eng.ScheduleAt(30*time.Millisecond, func() {
			if got := updates.Value() - before; got != 6 {
				t.Fatalf("the shared tick cost %d waterfills, want 6 (one wave over a1, a2 and b, up and down)", got)
			}
		})
	})
	r.eng.Run()
	if len(capB.at) != 2 || len(ack1.at) != 1 || len(ack2.at) != 1 {
		t.Fatalf("got %d deliveries and %d+%d replies, want 2 and 1+1", len(capB.at), len(ack1.at), len(ack2.at))
	}
	// Both replies cross b's uplink at 500 KB/s each and share the 50 ms tick.
	if ack1.at[0] != 50*time.Millisecond || ack2.at[0] != 50*time.Millisecond {
		t.Fatalf("replies at %v and %v, want the shared 50ms tick", ack1.at[0], ack2.at[0])
	}
	// The wave adds no engine event: send, two probes, two bucket firings.
	if got := fired.Value(); got != 5 {
		t.Fatalf("run cost %d events, want 5", got)
	}
}

// exactTraceGolden is the FNV-1a hash of exactTrace's output at the commit
// before the wave moved to the end of a drain (a763361). An Exact fabric has
// no calendar and so no drain: it must keep re-sharing on every arrival and
// departure, event for event.
const exactTraceGolden = 0xb0301f4d9ccc0cdf

// exactTrace runs a small contended world on an Exact fabric — bursts both
// ways through shared pipes, replies, a boundary leg each way, jittered path
// delays, a capacity change mid-transfer — and returns every stream event
// and delivery, timestamped, one per line.
func exactTrace(t *testing.T) string {
	r := newRig(t, Config{EndToEnd: true, Quantum: Exact}, netem.NetworkConfig{
		CloudDelay: 15 * time.Millisecond, Jitter: 5 * time.Millisecond,
	})
	r.fab.SetCheckEnabled(true)
	var out []byte
	r.fab.OnStream(func(ev StreamEvent) {
		out = fmt.Appendf(out, "%d %s %s %s %v %.3f\n", r.eng.Now(), ev.Kind, ev.Src, ev.Dst, ev.Up, ev.Rate)
	})
	rates := []netem.Rate{40 * netem.KBps, 90 * netem.KBps, 250 * netem.KBps, 600 * netem.KBps}
	var hosts []*netem.Iface
	var links []*Link
	var caps []*capture
	for i := 0; i < 6; i++ {
		h, l, c := r.echoHost(netem.AccessLinkConfig{
			UpRate: rates[i%len(rates)], DownRate: rates[(i+2)%len(rates)], Delay: time.Duration(1+i%3) * time.Millisecond,
		}, 40)
		hosts, links, caps = append(hosts, h), append(links, l), append(caps, c)
	}
	pkt, capP := r.packetHost(netem.AccessLinkConfig{UpRate: 300 * netem.KBps, DownRate: 300 * netem.KBps, Delay: 2 * time.Millisecond})
	caps = append(caps, capP)
	rnd := rand.New(rand.NewSource(7))
	for burst := 0; burst < 40; burst++ {
		at := time.Duration(burst) * 13 * time.Millisecond
		src, dst := rnd.Intn(len(hosts)), rnd.Intn(len(hosts))
		n, size := 1+rnd.Intn(6), 200+rnd.Intn(1300)
		r.eng.Schedule(at, func() {
			for i := 0; i < n; i++ {
				switch {
				case src == dst && burst%2 == 0:
					r.send(hosts[src], pkt, size)
				case src == dst:
					r.send(pkt, hosts[dst], size)
				default:
					r.send(hosts[src], hosts[dst], size)
				}
			}
		})
	}
	r.eng.Schedule(120*time.Millisecond, func() { links[0].SetRate(400*netem.KBps, 20*netem.KBps) })
	r.eng.Schedule(300*time.Millisecond, func() { links[3].SetRate(30*netem.KBps, 0) })
	for ms := 5; ms < 900; ms += 50 {
		r.eng.Schedule(time.Duration(ms)*time.Millisecond, r.audit)
	}
	r.eng.Run()
	r.audit()
	for i, c := range caps {
		for j := range c.at {
			out = fmt.Appendf(out, "%d deliver %d %d\n", c.at[j], i, c.size[j])
		}
	}
	return string(out)
}

func TestExactTraceMatchesParent(t *testing.T) {
	trace := exactTrace(t)
	h := fnv.New64a()
	h.Write([]byte(trace))
	if got := h.Sum64(); got != exactTraceGolden {
		t.Fatalf("exact-mode trace hash %#x, want %#x (%d bytes of trace)", got, uint64(exactTraceGolden), len(trace))
	}
}
