package gnutella

import (
	"testing"
	"time"

	"github.com/wp2p/wp2p/internal/mobility"
	"github.com/wp2p/wp2p/internal/netem"
	"github.com/wp2p/wp2p/internal/sim"
	"github.com/wp2p/wp2p/internal/tcp"
	"github.com/wp2p/wp2p/internal/transport"
)

type env struct {
	engine *sim.Engine
	net    *netem.Network
	nextIP netem.IP
}

func newEnv(seed int64) *env {
	e := sim.NewEngine(sim.WithSeed(seed))
	return &env{
		engine: e,
		net:    netem.NewNetwork(e, netem.NetworkConfig{CloudDelay: 15 * time.Millisecond}),
		nextIP: 10,
	}
}

func (v *env) node(cfg Config) (*Node, *netem.Iface) {
	return v.nodeUp(cfg, 1*netem.MBps)
}

func (v *env) nodeUp(cfg Config, up netem.Rate) (*Node, *netem.Iface) {
	ip := v.nextIP
	v.nextIP++
	link := netem.NewAccessLink(v.engine, netem.AccessLinkConfig{
		UpRate: up, DownRate: 1 * netem.MBps, Delay: time.Millisecond,
	})
	iface := v.net.Attach(ip, link, nil)
	cfg.Transport = transport.NewSim(tcp.NewStack(v.engine, iface))
	n := NewNode(cfg)
	if err := n.Start(); err != nil {
		panic(err)
	}
	return n, iface
}

// line builds a chain topology a—b—c—…, returning the nodes.
func (v *env) line(count int) []*Node {
	nodes := make([]*Node, count)
	for i := range nodes {
		nodes[i], _ = v.node(Config{})
	}
	v.engine.RunFor(100 * time.Millisecond)
	for i := 1; i < count; i++ {
		nodes[i].ConnectNeighbor(nodes[i-1].Addr())
	}
	v.engine.RunFor(2 * time.Second)
	return nodes
}

func TestQueryFloodFindsDistantFile(t *testing.T) {
	v := newEnv(1)
	nodes := v.line(4) // searcher at 0, file at 3: three hops < TTL 4
	nodes[3].Share(Shared{Key: "song.mp3", Size: 1 << 20})
	nodes[0].Search("song.mp3")
	v.engine.RunFor(time.Minute)
	if !nodes[0].Complete("song.mp3") {
		t.Fatalf("download incomplete: %d bytes", nodes[0].Downloaded())
	}
	if nodes[3].Uploaded() != 1<<20 {
		t.Errorf("responder uploaded %d", nodes[3].Uploaded())
	}
}

func TestTTLBoundsFlood(t *testing.T) {
	v := newEnv(2)
	nodes := v.line(6)
	nodes[5].Share(Shared{Key: "far.bin", Size: 1024})
	// TTL 4 from node 0 reaches nodes 1..4 only; node 5 never sees it.
	nodes[0].Search("far.bin")
	v.engine.RunFor(time.Minute)
	if nodes[0].Complete("far.bin") {
		t.Fatal("download succeeded beyond the TTL horizon")
	}
	if nodes[0].Downloaded() != 0 {
		t.Errorf("downloaded %d from an unreachable responder", nodes[0].Downloaded())
	}
}

func TestDuplicateQueriesSuppressed(t *testing.T) {
	// A triangle: the query reaches node 2 via both paths; it must answer
	// once, and forwarding must not loop forever.
	v := newEnv(3)
	a, _ := v.node(Config{})
	b, _ := v.node(Config{})
	c, _ := v.node(Config{})
	v.engine.RunFor(100 * time.Millisecond)
	b.ConnectNeighbor(a.Addr())
	c.ConnectNeighbor(a.Addr())
	c.ConnectNeighbor(b.Addr())
	v.engine.RunFor(2 * time.Second)
	c.Share(Shared{Key: "k", Size: 4096})
	a.Search("k")
	v.engine.RunFor(30 * time.Second)
	if !a.Complete("k") {
		t.Fatalf("incomplete: %d bytes", a.Downloaded())
	}
	if a.Downloaded() != 4096 {
		t.Errorf("downloaded %d, want exactly one copy", a.Downloaded())
	}
}

func TestFailoverToSecondSourceResumesByOffset(t *testing.T) {
	v := newEnv(4)
	searcher, _ := v.node(Config{StallTimeout: 10 * time.Second})
	src1, src1Iface := v.node(Config{})
	src2, _ := v.node(Config{})
	v.engine.RunFor(100 * time.Millisecond)
	src1.ConnectNeighbor(searcher.Addr())
	src2.ConnectNeighbor(searcher.Addr())
	v.engine.RunFor(2 * time.Second)
	const size = 8 << 20
	src1.Share(Shared{Key: "big", Size: size})
	src2.Share(Shared{Key: "big", Size: size})
	searcher.Search("big")
	// Kill whichever source is serving a few seconds in by blackholing it.
	v.engine.Schedule(6*time.Second, func() {
		v.net.Detach(src1Iface)
	})
	v.engine.RunFor(5 * time.Minute)
	if !searcher.Complete("big") {
		t.Fatalf("failover failed: %d bytes", searcher.Downloaded())
	}
	// Resume by offset: total downloaded equals the file size, no re-fetch
	// of the prefix (at most one in-flight range wasted).
	if searcher.Downloaded() > size+2*rangeLen {
		t.Errorf("downloaded %d for a %d-byte file; offset resume broken", searcher.Downloaded(), size)
	}
}

func TestMobileResponderDegradesDownload(t *testing.T) {
	// §3.7: the server-mobility problem applies to second-generation
	// networks. A responder that hands off every 45 s forces repeated
	// stall → re-search → resume cycles.
	run := func(handoff bool) time.Duration {
		v := newEnv(5)
		searcher, _ := v.node(Config{StallTimeout: 10 * time.Second})
		// Slow source uplink: the transfer spans several handoff periods.
		src, srcIface := v.nodeUp(Config{}, 50*netem.KBps)
		v.engine.RunFor(100 * time.Millisecond)
		src.ConnectNeighbor(searcher.Addr())
		v.engine.RunFor(2 * time.Second)
		src.Share(Shared{Key: "v", Size: 3 << 20})
		start := v.engine.Now()
		searcher.Search("v")
		var h *mobility.Handoff
		if handoff {
			h = mobility.NewHandoff(v.engine, v.net, srcIface, mobility.NewIPAllocator(900), 45*time.Second)
			h.Start()
		}
		for i := 0; i < 120 && !searcher.Complete("v"); i++ {
			v.engine.RunFor(10 * time.Second)
			if handoff {
				// The oblivious responder re-"announces" nothing; but the
				// searcher's re-flooded queries reach it at its NEW address
				// because overlay links... also died. Re-link it.
				if src.Neighbors() == 0 {
					src.ConnectNeighbor(searcher.Addr())
				}
			}
		}
		if !searcher.Complete("v") {
			return time.Hour // sentinel: never finished
		}
		return v.engine.Now() - start
	}
	stable := run(false)
	mobile := run(true)
	if stable >= time.Hour {
		t.Fatal("stable download never completed")
	}
	if mobile <= stable {
		t.Errorf("mobility should slow the download: stable %v vs mobile %v", stable, mobile)
	}
}

func TestNodeAccessors(t *testing.T) {
	v := newEnv(6)
	n, _ := v.node(Config{})
	if n.id == "" {
		t.Error("empty id")
	}
	if n.Complete("nope") {
		t.Error("unknown download should be empty")
	}
	n.Stop()
	n.Stop() // idempotent
}
