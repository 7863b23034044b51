package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/wp2p/wp2p/internal/bt"
	"github.com/wp2p/wp2p/internal/experiments"
	"github.com/wp2p/wp2p/internal/flow"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/ordset"
	"github.com/wp2p/wp2p/internal/runner"
	"github.com/wp2p/wp2p/internal/scenario"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/tcp"
	"github.com/wp2p/wp2p/internal/telemetry"
	"github.com/wp2p/wp2p/internal/transport"
	"github.com/wp2p/wp2p/internal/wp2p"
)

// A probe times calls into one layer's public functions in isolation. It
// runs one batch of about n operations and returns what it measured, by
// catalogue metric name, and how many operations it really timed. The
// harness runs probeBatches batches and reports each metric's median.
type probe struct {
	name string // span name under "probes"
	n    int    // operations per batch at full size
	run  func(n int) (metrics map[string]float64, ops int)
}

const probeBatches = 5

// probeReport is what the probe child prints.
type probeReport struct {
	Metrics map[string]float64 `json:"metrics"`
	// Ops is the number of operations each probe timed over all batches.
	Ops   map[string]int `json:"ops"`
	Spans []span         `json:"spans,omitempty"`
	Err   string         `json:"err,omitempty"`
}

// runProbes runs every probe in this process. Sizes below full shrink the
// batches so the smoke test stays fast.
func runProbes(sz size) probeReport {
	rep := probeReport{Metrics: map[string]float64{}, Ops: map[string]int{}}
	defer runner.SetWorkers(runner.SetWorkers(1))
	tr := newTracer("probes")
	endAll := tr.begin("probes")
	batches := probeBatches
	for _, p := range allProbes {
		n := p.n
		if sz != sizeFull {
			n, batches = max(p.n/100, 1), 2
		}
		end := tr.begin(p.name)
		samples := map[string][]float64{}
		for b := 0; b < batches; b++ {
			metrics, ops := p.run(n)
			rep.Ops[p.name] += ops
			for k, v := range metrics {
				samples[k] = append(samples[k], v)
			}
		}
		end()
		for k, v := range samples {
			rep.Metrics[k] = median(v)
		}
		if rep.Ops[p.name] == 0 {
			rep.Err = fmt.Sprintf("probe %s timed no operation", p.name)
		}
	}
	endAll()
	rep.Spans = tr.spans
	return rep
}

// spawnProbes runs the probe set in a fresh process and hangs its spans
// under the tracer.
func spawnProbes(tr *tracer) probeReport {
	var rep probeReport
	if err := spawn(&rep, "-child", "probes"); err != nil {
		return probeReport{Err: err.Error()}
	}
	tr.adopt(rep.Spans)
	return rep
}

// timed runs body, which performs n operations, and returns host
// nanoseconds and heap allocations per operation.
func timed(n int, body func()) (nsPerOp, allocsPerOp float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	body()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(d.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func wallOf(body func()) float64 {
	t0 := time.Now()
	body()
	return time.Since(t0).Seconds()
}

var allProbes = []probe{
	{"sim.schedule_fire_d1k", 200000, func(n int) (map[string]float64, int) {
		return map[string]float64{"sim.probe.schedule_fire_ns_d1k": scheduleFire(n, 1000)}, n
	}},
	{"sim.schedule_fire_d100k", 200000, func(n int) (map[string]float64, int) {
		return map[string]float64{"sim.probe.schedule_fire_ns_d100k": scheduleFire(n, 100000)}, n
	}},
	{"sim.timer_reset", 500000, func(n int) (map[string]float64, int) {
		e := sim.NewEngine()
		tm := sim.NewTimer(e, func() {})
		ns, _ := timed(n, func() {
			for i := 0; i < n; i++ {
				tm.Reset(time.Millisecond)
			}
		})
		tm.Stop()
		return map[string]float64{"sim.probe.timer_reset_ns": ns}, n
	}},
	{"sim.sharded_speedup", 1, func(int) (map[string]float64, int) {
		one := wallOf(func() { probeFig4a(1) })
		two := wallOf(func() { probeFig4a(2) })
		return map[string]float64{"sim.probe.sharded_speedup_w2": ratio(one, two)}, 2
	}},
	{"netem.wired_pkt", 200000, func(n int) (map[string]float64, int) {
		ns, allocs := packetPath(n, false)
		return map[string]float64{"netem.probe.wired_pkt_ns": ns, "netem.probe.pkt_allocs": allocs}, n
	}},
	{"netem.wlan_pkt", 200000, func(n int) (map[string]float64, int) {
		ns, _ := packetPath(n, true)
		return map[string]float64{"netem.probe.wlan_pkt_ns": ns}, n
	}},
	{"flow.pkt_fan1", 200000, func(n int) (map[string]float64, int) {
		return map[string]float64{"flow.probe.pkt_ns_fan1": flowPackets(n, 1, 32)}, n
	}},
	{"flow.pkt_fan64", 200000, func(n int) (map[string]float64, int) {
		return map[string]float64{"flow.probe.pkt_ns_fan64": flowPackets(n, 64, 32)}, n
	}},
	{"flow.stream_open", 100000, func(n int) (map[string]float64, int) {
		// One packet per drain: every operation opens (and closes) a stream.
		return map[string]float64{"flow.probe.stream_open_ns": flowPackets(n, 1, 1)}, n
	}},
	{"tcp.bulk", 60000, func(n int) (map[string]float64, int) {
		ns, allocs := tcpTransfer(n, 0, false)
		return map[string]float64{"tcp.probe.bulk_seg_ns": ns, "tcp.probe.seg_allocs": allocs}, n
	}},
	{"tcp.lossy", 40000, func(n int) (map[string]float64, int) {
		ns, _ := tcpTransfer(n, 2e-5, false)
		return map[string]float64{"tcp.probe.lossy_seg_ns": ns}, n
	}},
	{"tcp.conn_setup", 10000, func(n int) (map[string]float64, int) {
		w := experiments.NewWorld(1, 0)
		a, b := w.WiredHost(0, 0), w.WiredHost(0, 0)
		b.Stack.MustListen(80, func(c *tcp.Conn) { c.SetOnClose(func(error) {}) })
		remote := netem.Addr{IP: b.Iface.IP(), Port: 80}
		opened := 0
		ns, _ := timed(n, func() {
			for i := 0; i < n; i++ {
				c := a.Stack.MustDial(remote)
				c.SetOnEstablished(func() { opened++; c.Close() })
				w.Engine.RunFor(time.Second)
			}
		})
		return map[string]float64{"tcp.probe.conn_setup_ns": ns}, opened
	}},
	{"transport.sim_msg", 20000, func(n int) (map[string]float64, int) {
		w := experiments.NewWorld(1, 0)
		a, b := w.WiredHost(0, 0), w.WiredHost(0, 0)
		got := 0
		if _, err := b.Transport.Listen(80, func(c transport.Conn) {
			c.SetOnMessage(func(v any) { c.SendMessage(v, livePingBytes) })
		}); err != nil {
			return nil, 0
		}
		c, err := a.Transport.Dial(b.Transport.Addr(80))
		if err != nil {
			return nil, 0
		}
		ping := func() { c.SendMessage(got, livePingBytes) }
		c.SetOnEstablished(ping)
		c.SetOnMessage(func(any) {
			if got++; got < n {
				ping()
			}
		})
		ns, _ := timed(n, func() {
			for got < n && w.Engine.Pending() > 0 {
				w.Engine.RunFor(time.Minute)
			}
		})
		return map[string]float64{"transport.probe.sim_msg_ns": ns}, got
	}},
	{"transport.net_msg", 2000, func(n int) (map[string]float64, int) {
		g := transport.NewGroup(1)
		defer g.Close()
		rtts, _ := pingPong(g, n)
		if len(rtts) == 0 {
			return nil, 0
		}
		sort.Float64s(rtts)
		return map[string]float64{"transport.probe.net_msg_rtt_us_p99": rtts[len(rtts)*99/100]}, len(rtts)
	}},
	{"transport.net_dial", 300, func(n int) (map[string]float64, int) {
		us := netDials(n)
		if len(us) == 0 {
			return nil, 0
		}
		return map[string]float64{"transport.probe.net_dial_us_p50": median(us)}, len(us)
	}},
	{"transport.net_bulk", 64 << 20, func(n int) (map[string]float64, int) {
		mbs, ok := netBulk(n)
		if !ok {
			return nil, 0
		}
		return map[string]float64{"transport.probe.net_bulk_mb_s": mbs}, 1
	}},
	{"bt.tracker_announce", 20000, func(n int) (map[string]float64, int) {
		const swarm = 10000
		tr := bt.NewTracker(sim.NewEngine(sim.WithSeed(1)), bt.TrackerConfig{})
		h := bt.NewMetaInfo("probe", 1<<20, 0).InfoHash()
		reqs := make([]bt.AnnounceRequest, swarm)
		for i := range reqs {
			reqs[i] = bt.AnnounceRequest{
				InfoHash: h, PeerID: bt.PeerID(fmt.Sprintf("peer-%06d", i)),
				Addr: netem.Addr{IP: netem.IP(i + 1), Port: 6881}, Seed: i%16 == 0,
			}
			tr.HandleAnnounce(reqs[i])
		}
		ns, _ := timed(n, func() {
			for i := 0; i < n; i++ {
				tr.HandleAnnounce(reqs[i%swarm])
			}
		})
		return map[string]float64{"bt.probe.tracker_announce_ns_10k": ns}, n
	}},
	{"bt.picker_rarest", 5000, func(n int) (map[string]float64, int) {
		const pieces = 1000
		r := rand.New(rand.NewSource(1))
		ctx := &bt.PickContext{
			Have: bt.NewBitfield(pieces), Pending: bt.NewBitfield(pieces),
			PeerHas: bt.NewBitfield(pieces), Avail: make([]int, pieces), Rand: r,
		}
		ctx.PeerHas.SetAll()
		for i := range ctx.Avail {
			ctx.Avail[i] = 1 + r.Intn(8)
			if i%3 == 0 {
				ctx.Have.Set(i)
			}
		}
		picked := 0
		ns, _ := timed(n, func() {
			for i := 0; i < n; i++ {
				if (bt.RarestFirst{}).PickPiece(ctx) >= 0 {
					picked++
				}
			}
		})
		return map[string]float64{"bt.probe.picker_rarest_ns_1k": ns}, picked
	}},
	{"bt.swarm8", 1, func(n int) (map[string]float64, int) {
		done := 0
		wall := wallOf(func() { done = swarm8(n) })
		return map[string]float64{"bt.probe.swarm8_wall_ms": wall * 1e3}, done
	}},
	{"ordset.put_delete", 100000, func(n int) (map[string]float64, int) {
		s := ordset.New[int, int](10000)
		for i := 0; i < 10000; i++ {
			s.Put(i, i)
		}
		ns, _ := timed(n, func() {
			for i := 0; i < n; i++ {
				k := 10000 + i
				s.Put(k, i)
				s.Delete(k - 5000)
				s.Put(k-5000, i)
				s.Delete(k)
			}
		})
		return map[string]float64{"ordset.probe.put_delete_ns": ns / 2}, n
	}},
	{"ordset.sample50", 10000, func(n int) (map[string]float64, int) {
		s := ordset.New[int, int](10000)
		for i := 0; i < 10000; i++ {
			s.Put(i, i)
		}
		r := rand.New(rand.NewSource(1))
		drawn := 0
		ns, _ := timed(n, func() {
			for i := 0; i < n; i++ {
				drawn += s.SampleExcluding(r, 50, i%10000, func(int, int) {})
			}
		})
		return map[string]float64{"ordset.probe.sample50_ns": ns}, drawn / 50
	}},
	{"wp2p.am_filter", 40000, func(n int) (map[string]float64, int) {
		ns, _ := tcpTransfer(n, 2e-5, true)
		return map[string]float64{"wp2p.probe.am_filter_pkt_ns": ns}, n
	}},
	{"experiments.world_build", 5000, func(n int) (map[string]float64, int) {
		tor := bt.NewMetaInfo("probe", 256<<10, 0)
		ns, _ := timed(n, func() {
			w := experiments.NewWorld(1, 0)
			for i := 0; i < n; i++ {
				h := w.WiredHost(0, 0)
				bt.NewClient(w.BTConfig(h, tor))
			}
		})
		return map[string]float64{"experiments.probe.world_build_us_per_host": ns / 1e3}, n
	}},
	{"scenario.load", 100, func(n int) (map[string]float64, int) {
		data, err := specFS.ReadFile("specs/flashcrowd-hybrid.json")
		if err != nil {
			return nil, 0
		}
		loaded := 0
		ns, _ := timed(n, func() {
			for i := 0; i < n; i++ {
				spec, err := scenario.Load(data)
				if err != nil {
					return
				}
				if _, err := spec.Variant([]scenario.Override{{Path: "seed", Value: float64(i + 1)}}); err != nil {
					return
				}
				loaded++
			}
		})
		return map[string]float64{"scenario.probe.load_compile_ms": ns / 1e6}, loaded
	}},
	{"runner.speedup", 1, func(int) (map[string]float64, int) {
		const tasks = 4
		task := func(i int) float64 {
			res := experiments.Fig2aBiVsUniTCP(experiments.Fig2aConfig{
				BERs: []float64{0, 1e-5, 2e-5}, Duration: 2 * time.Minute, Runs: 1, Seed: int64(i + 1),
			})
			return res.Series[0].Y[0]
		}
		one := wallOf(func() { runner.MapWorkers(1, tasks, task) })
		two := wallOf(func() { runner.MapWorkers(2, tasks, task) })
		return map[string]float64{"runner.probe.speedup_w2": ratio(one, two)}, 2 * tasks
	}},
	{"obs.overheads", 1, func(int) (map[string]float64, int) {
		base := wallOf(func() { probeFig4a(0) })
		over := func(on, off func()) float64 {
			on()
			defer off()
			return ratio(wallOf(func() { probeFig4a(0) }), base) - 1
		}
		return map[string]float64{
			"obs.probe.check_overhead_frac": over(func() { experiments.EnableChecking(0) }, experiments.DisableChecking),
			"obs.probe.telemetry_overhead_frac": over(
				func() { experiments.EnableTelemetry(telemetry.Config{}) }, experiments.DisableTelemetry),
			"obs.probe.trace_overhead_frac": over(
				func() { experiments.EnableTracing("", 0, io.Discard) }, experiments.DisableTracing),
		}, 4
	}},
}

// scheduleFire times one schedule+fire cycle against a standing queue of
// depth pending events, so the heap sifts are as deep as a crowd's.
func scheduleFire(n, depth int) float64 {
	e := sim.NewEngine()
	fn := func() {}
	for i := 0; i < depth; i++ {
		e.Schedule(time.Duration(i+1)*time.Hour, fn)
	}
	ns, _ := timed(n, func() {
		for i := 0; i < n; i++ {
			e.Schedule(time.Microsecond, fn)
			e.Step()
		}
	})
	return ns
}

// probeFig4a runs fig4a's fast-handoff point at scale 0.05: the small mobile
// swarm the observability and sharding overheads are priced on. shards 0 is
// the single-engine path.
func probeFig4a(shards int) {
	experiments.Fig4aServerMobility(experiments.Fig4aConfig{
		Scale: 0.05, Periods: []time.Duration{30 * time.Second}, Shards: shards,
	})
}

// packetPath times pooled packets from one host to another through the
// sender's access medium (a wired link, or a WLAN channel), the cloud and the
// receiver's wired link, one at a time.
func packetPath(n int, wlan bool) (nsPerPkt, allocsPerPkt float64) {
	e := sim.NewEngine(sim.WithSeed(1))
	net := netem.NewNetwork(e, netem.NetworkConfig{CloudDelay: time.Millisecond})
	wired := func() netem.Medium {
		return netem.NewAccessLink(e, netem.AccessLinkConfig{
			UpRate: netem.MBps, DownRate: netem.MBps, Delay: time.Millisecond,
		})
	}
	src := wired()
	if wlan {
		src = netem.NewWirelessChannel(e, netem.WirelessConfig{
			Rate: netem.MBps, Delay: time.Millisecond, Overhead: experiments.DefaultWirelessOverhead,
		})
	}
	a := net.Attach(1, src, nil)
	net.Attach(2, wired(), netem.HandlerFunc(func(*netem.Packet) {}))
	send := func() {
		pkt := net.NewPacket()
		pkt.Dst = netem.Addr{IP: 2}
		pkt.Size = 1000
		a.Send(pkt)
		e.Run()
	}
	for i := 0; i < 50; i++ { // fill the pools and the route cache
		send()
	}
	return timed(n, func() {
		for i := 0; i < n; i++ {
			send()
		}
	})
}

// flowPackets times packets crossing a fluid fabric end to end from one
// source to fan destinations, burst packets per destination per drain. With
// fan 64 the source's uplink is shared by 64 streams, so every arrival and
// departure re-runs the fair-share computation over all of them.
func flowPackets(n, fan, burst int) float64 {
	e := sim.NewEngine(sim.WithSeed(1))
	net := netem.NewNetwork(e, netem.NetworkConfig{CloudDelay: time.Millisecond})
	fab := flow.NewFabric(e, net, flow.Config{EndToEnd: true})
	cfg := netem.AccessLinkConfig{UpRate: netem.MBps, DownRate: netem.MBps, Delay: time.Millisecond, QueueCap: 4096}
	src := net.Attach(1, fab.NewLink(1, cfg), nil)
	for d := 0; d < fan; d++ {
		ip := netem.IP(2 + d)
		net.Attach(ip, fab.NewLink(ip, cfg), netem.HandlerFunc(func(*netem.Packet) {}))
	}
	drain := func(rounds int) {
		for r := 0; r < rounds; r++ {
			for b := 0; b < burst; b++ {
				for d := 0; d < fan; d++ {
					pkt := net.NewPacket()
					pkt.Dst = netem.Addr{IP: netem.IP(2 + d)}
					pkt.Size = 1000
					src.Send(pkt)
				}
			}
			e.Run()
		}
	}
	drain(2)
	rounds := max(n/(fan*burst), 1)
	ns, _ := timed(rounds*fan*burst, func() { drain(rounds) })
	return ns
}

// tcpTransfer times a TCP transfer of n segments in total between a client
// and a wired server and returns host time and allocations per segment.
// With ber 0 the client is wired and sends one way; otherwise it sits behind
// a lossy WLAN channel and both ends send, the paper's bi-directional case.
// am installs wP2P's age-based-manipulation filter on the client.
func tcpTransfer(n int, ber float64, am bool) (nsPerSeg, allocsPerSeg float64) {
	w := experiments.NewWorld(1, 0)
	server := w.WiredHost(0, 0)
	client := w.WiredHost(0, 0)
	toServer, toClient := n, 0
	if ber > 0 {
		client = w.WirelessHost(netem.WirelessConfig{BER: ber})
		toServer, toClient = n/2, n-n/2
	}
	if am {
		f := wp2p.NewAMFilter(w.Engine, wp2p.AMConfig{})
		f.Track(client.Stack)
		f.Install(client.Iface)
	}
	var srv *tcp.Conn
	got := 0
	server.Stack.MustListen(80, func(c *tcp.Conn) {
		srv = c
		c.SetOnDeliver(func(k int) { got += k })
	})
	c := client.Stack.MustDial(netem.Addr{IP: server.Iface.IP(), Port: 80})
	c.SetOnDeliver(func(k int) { got += k })
	w.Engine.RunFor(2 * time.Second)
	if srv == nil {
		return 0, 0
	}
	// Open the congestion window before the stopwatch starts.
	c.Write(64 * tcp.MSS)
	w.Engine.RunFor(10 * time.Second)
	got = 0
	return timed(n, func() {
		c.Write(toServer * tcp.MSS)
		if toClient > 0 {
			srv.Write(toClient * tcp.MSS)
		}
		for horizon := 0; got < n*tcp.MSS && horizon < 3600; horizon++ {
			w.Engine.RunFor(time.Second)
		}
	})
}

// netDials opens n connections one after another on a loopback group and
// returns each dial-to-established time in microseconds.
func netDials(n int) []float64 {
	g := transport.NewGroup(1)
	defer g.Close()
	server, client := g.Host(netem.IP(1)), g.Host(netem.IP(2))
	var listenErr error
	g.Do(func() {
		_, listenErr = server.Listen(80, func(c transport.Conn) { c.SetOnClose(func(error) {}) })
	})
	if listenErr != nil {
		return nil
	}
	var us []float64
	for i := 0; i < n; i++ {
		established := make(chan time.Duration, 1)
		g.Do(func() {
			t0 := time.Now()
			c, err := client.Dial(server.Addr(80))
			if err != nil {
				established <- -1
				return
			}
			c.SetOnEstablished(func() {
				established <- time.Since(t0)
				c.Close()
			})
			c.SetOnClose(func(error) {
				select {
				case established <- -1: // closed before it was established
				default:
				}
			})
		})
		select {
		case d := <-established:
			if d >= 0 {
				us = append(us, float64(d.Nanoseconds())/1e3)
			}
		case <-time.After(10 * time.Second):
			return us
		}
	}
	return us
}

// netBulk writes n raw bytes over one loopback connection and returns the
// delivered megabytes per second.
func netBulk(n int) (float64, bool) {
	g := transport.NewGroup(1)
	defer g.Close()
	server, client := g.Host(netem.IP(1)), g.Host(netem.IP(2))
	done := make(chan time.Duration, 1)
	failed := make(chan struct{}, 2)
	g.Do(func() {
		var t0 time.Time
		got := 0
		if _, err := server.Listen(80, func(c transport.Conn) {
			c.SetOnDeliver(func(k int) {
				if got += k; got >= n {
					done <- time.Since(t0)
				}
			})
		}); err != nil {
			failed <- struct{}{}
			return
		}
		c, err := client.Dial(server.Addr(80))
		if err != nil {
			failed <- struct{}{}
			return
		}
		c.SetOnEstablished(func() {
			t0 = time.Now()
			c.Write(n)
		})
	})
	select {
	case d := <-done:
		return ratio(float64(n)/1e6, d.Seconds()), true
	case <-failed:
	case <-time.After(30 * time.Second):
	}
	return 0, false
}

// swarm8 runs one seed and seven wired leeches over a 4 MB torrent (less at
// reduced sizes) until every leech completes, and returns how many did.
func swarm8(n int) int {
	fileBytes := int64(4 << 20)
	if n < 1 {
		fileBytes = 1 << 20
	}
	w := experiments.NewWorld(1, 0)
	tor := bt.NewMetaInfo("swarm8", fileBytes, 256<<10)
	var leeches []*bt.Client
	for i := 0; i < 8; i++ {
		cfg := w.BTConfig(w.WiredHost(0, 0), tor)
		cfg.Seed = i == 0
		c := bt.NewClient(cfg)
		if c.Start() != nil {
			return 0
		}
		if i > 0 {
			leeches = append(leeches, c)
		}
	}
	done := 0
	for minute := 0; minute < 30 && done < len(leeches); minute++ {
		w.RunFor(time.Minute)
		done = 0
		for _, c := range leeches {
			if c.Complete() {
				done++
			}
		}
	}
	return done
}
