package tcp

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
)

func TestMessagesDeliveredInOrder(t *testing.T) {
	w := newWorld(20)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, server := connect(t, w, sa, sb, 80)
	var got []any
	server.SetOnMessage(func(v any) { got = append(got, v) })
	sizes := []int{4, 100, MSS, MSS + 1, 16*1024 + 13, 5, 4}
	for i, n := range sizes {
		client.SendMessage(fmt.Sprintf("msg-%d", i), n)
	}
	w.engine.RunFor(30 * time.Second)
	if len(got) != len(sizes) {
		t.Fatalf("delivered %d messages, want %d", len(got), len(sizes))
	}
	for i := range sizes {
		if got[i] != fmt.Sprintf("msg-%d", i) {
			t.Fatalf("message %d = %v", i, got[i])
		}
	}
}

func TestManySmallMessagesInOneSegment(t *testing.T) {
	w := newWorld(21)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, server := connect(t, w, sa, sb, 80)
	count := 0
	server.SetOnMessage(func(v any) { count++ })
	for i := 0; i < 50; i++ {
		client.SendMessage(i, 10) // 500 bytes: fits in one MSS
	}
	w.engine.RunFor(10 * time.Second)
	if count != 50 {
		t.Fatalf("delivered %d, want 50", count)
	}
}

func TestMessagesSurviveLoss(t *testing.T) {
	w := newWorld(22)
	sa := w.wiredHost(1)
	sb, _ := w.wirelessHost(2, netem.WirelessConfig{Rate: 500 * netem.KBps, BER: 4e-6})
	client, server := connect(t, w, sa, sb, 80)
	var got []any
	server.SetOnMessage(func(v any) { got = append(got, v) })
	const n = 40
	for i := 0; i < n; i++ {
		client.SendMessage(i, 8000)
	}
	w.engine.RunFor(10 * time.Minute)
	if len(got) != n {
		t.Fatalf("delivered %d messages under loss, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("message %d = %v, want %d (order broken)", i, got[i], i)
		}
	}
	if client.stats.Retransmits == 0 {
		t.Log("warning: no retransmissions occurred; loss test may be vacuous")
	}
}

func TestBidirectionalMessages(t *testing.T) {
	w := newWorld(23)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, server := connect(t, w, sa, sb, 80)
	var fromClient, fromServer int
	server.SetOnMessage(func(v any) { fromClient++ })
	client.SetOnMessage(func(v any) { fromServer++ })
	for i := 0; i < 20; i++ {
		client.SendMessage(i, 5000)
		server.SendMessage(i, 5000)
	}
	w.engine.RunFor(60 * time.Second)
	if fromClient != 20 || fromServer != 20 {
		t.Fatalf("fromClient=%d fromServer=%d, want 20 each", fromClient, fromServer)
	}
}

// Property: for arbitrary message sizes and loss seeds, every message
// arrives exactly once, in order, over a lossy wireless leg.
func TestPropertyMessagesReliableUnderLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is slow")
	}
	prop := func(seed int64, rawSizes []uint16) bool {
		if len(rawSizes) == 0 {
			return true
		}
		if len(rawSizes) > 30 {
			rawSizes = rawSizes[:30]
		}
		w := newWorld(seed)
		sa := w.wiredHost(1)
		sb, _ := w.wirelessHost(2, netem.WirelessConfig{Rate: 500 * netem.KBps, BER: 3e-6})
		b := sb
		var server *Conn
		b.MustListen(80, func(c *Conn) { server = c })
		client := sa.MustDial(netem.Addr{IP: 2, Port: 80})
		w.engine.RunFor(5 * time.Second)
		if server == nil {
			// Handshake lost repeatedly is possible but should recover.
			w.engine.RunFor(30 * time.Second)
			if server == nil {
				return false
			}
		}
		var got []any
		server.SetOnMessage(func(v any) { got = append(got, v) })
		for i, s := range rawSizes {
			client.SendMessage(i, int(s%9000)+1)
		}
		w.engine.RunFor(20 * time.Minute)
		if len(got) != len(rawSizes) {
			return false
		}
		for i := range got {
			if got[i] != i {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSendMessageOnClosedConnIsNoop(t *testing.T) {
	w := newWorld(24)
	sa, sb := w.wiredHost(1), w.wiredHost(2)
	client, _ := connect(t, w, sa, sb, 80)
	client.Abort()
	w.engine.RunFor(time.Second)
	client.SendMessage("late", 100) // must not panic or send
	w.engine.RunFor(time.Second)
	if client.state != StateClosed {
		t.Errorf("state = %v", client.state)
	}
}

func TestCollectMsgsBoundaries(t *testing.T) {
	c := &Conn{}
	c.pendingMsgs = []AppMessage{{End: 100, Val: "a"}, {End: 200, Val: "b"}, {End: 300, Val: "c"}}
	tests := []struct {
		seq, end int64
		want     []string
	}{
		{0, 100, []string{"a"}},
		{0, 99, nil},
		{99, 100, []string{"a"}},
		{100, 300, []string{"b", "c"}},
		{0, 1000, []string{"a", "b", "c"}},
		{300, 400, nil},
	}
	for _, tt := range tests {
		got := c.appendMsgs(nil, tt.seq, tt.end)
		if len(got) != len(tt.want) {
			t.Errorf("appendMsgs(%d,%d) = %v, want %v", tt.seq, tt.end, got, tt.want)
			continue
		}
		for i := range got {
			if got[i].Val != tt.want[i] {
				t.Errorf("appendMsgs(%d,%d)[%d] = %v, want %v", tt.seq, tt.end, i, got[i].Val, tt.want[i])
			}
		}
	}
}

func TestStashMsgsDedupes(t *testing.T) {
	c := &Conn{}
	c.stashMsgs([]AppMessage{{End: 100, Val: "a"}})
	c.stashMsgs([]AppMessage{{End: 100, Val: "a"}, {End: 50, Val: "z"}})
	if len(c.rcvdMsgs) != 2 {
		t.Fatalf("rcvdMsgs = %v, want 2 entries", c.rcvdMsgs)
	}
	if c.rcvdMsgs[0].End != 50 || c.rcvdMsgs[1].End != 100 {
		t.Errorf("rcvdMsgs not sorted: %v", c.rcvdMsgs)
	}
	// Messages already fired must be ignored.
	c.firedThrough = 100
	c.stashMsgs([]AppMessage{{End: 80, Val: "old"}})
	if len(c.rcvdMsgs) != 2 {
		t.Errorf("stale message was stashed")
	}
}

// TestZeroAllocStashFireCycle pins the receive-side framing queue: a steady
// stash -> fire cycle reuses the queue's backing array (fireMsgs pops by
// copy-down), so it allocates nothing per message.
func TestZeroAllocStashFireCycle(t *testing.T) {
	c := &Conn{}
	fired := 0
	c.SetOnMessage(func(any) { fired++ })
	val := any("m")
	seg := make([]AppMessage, 2)
	cycle := func() {
		// Two messages in one segment, then a third arriving out of order
		// ahead of the bytes that complete it.
		seg[0] = AppMessage{End: c.rcvNxt + 100, Val: val}
		seg[1] = AppMessage{End: c.rcvNxt + 250, Val: val}
		c.stashMsgs(seg)
		c.stashMsgs(seg[:1]) // retransmitted duplicate
		c.rcvNxt += 100
		c.fireMsgs()
		c.rcvNxt += 150
		c.fireMsgs()
	}
	cycle()
	allocs := testing.AllocsPerRun(100, cycle)
	if allocs != 0 {
		t.Errorf("stash->fire cycle allocates %.1f per op, want 0", allocs)
	}
	if fired != 2*102 {
		t.Errorf("fired = %d messages, want %d", fired, 2*102)
	}
	if len(c.rcvdMsgs) != 0 {
		t.Errorf("rcvdMsgs = %v after the last fire, want empty", c.rcvdMsgs)
	}
}

// TestFireMsgsPopsBeforeReentry: OnMessage may feed the connection again; the
// fired message must already be off the queue and its slot cleared.
func TestFireMsgsPopsBeforeReentry(t *testing.T) {
	c := &Conn{}
	var got []any
	c.SetOnMessage(func(v any) {
		got = append(got, v)
		if v == "a" {
			if len(c.rcvdMsgs) != 1 || c.rcvdMsgs[0].Val != "b" {
				t.Errorf("queue inside OnMessage(a) = %v, want only b", c.rcvdMsgs)
			}
			c.stashMsgs([]AppMessage{{End: 300, Val: "c"}})
			c.rcvNxt = 300
			c.fireMsgs()
		}
	})
	c.stashMsgs([]AppMessage{{End: 100, Val: "a"}, {End: 200, Val: "b"}})
	c.rcvNxt = 200
	c.fireMsgs()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("fired %v, want [a b c]", got)
	}
	if full := c.rcvdMsgs[:cap(c.rcvdMsgs)]; len(c.rcvdMsgs) != 0 || full[0].Val != nil || full[1].Val != nil {
		t.Errorf("vacated slots not cleared: %v", full)
	}
}

// addIntervalCopy is the allocating addInterval this package had before the
// in-place one: it builds the merged set in fresh storage.
func addIntervalCopy(set []interval, iv interval) []interval {
	out := make([]interval, 0, len(set)+1)
	i := 0
	for i < len(set) && set[i].end < iv.start {
		out = append(out, set[i])
		i++
	}
	for i < len(set) && set[i].start <= iv.end {
		if set[i].start < iv.start {
			iv.start = set[i].start
		}
		if set[i].end > iv.end {
			iv.end = set[i].end
		}
		i++
	}
	out = append(out, iv)
	return append(out, set[i:]...)
}

// TestAddIntervalInPlaceMatchesCopy: the out-of-order set reaches the stack's
// digest interval by interval, so the in-place merge must build exactly what
// the copying one did, over random arrival orders with overlaps, bridges and
// duplicates — and, once the set has grown, without allocating.
func TestAddIntervalInPlaceMatchesCopy(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got, want []interval
		for step := 0; step < 60; step++ {
			start := int64(rng.Intn(40)) * 10
			iv := interval{start, start + int64(1+rng.Intn(4))*10}
			got, want = addInterval(got, iv), addIntervalCopy(want, iv)
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: got %v, want %v", seed, step, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d step %d: got %v, want %v", seed, step, got, want)
				}
			}
		}
	}
	set := make([]interval, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		set = set[:0]
		for _, s := range []int64{50, 10, 30, 70, 20, 0, 60, 40} {
			set = addInterval(set, interval{s, s + 5})
		}
		set = addInterval(set, interval{0, 80})
	})
	if allocs != 0 || len(set) != 1 {
		t.Errorf("in-place addInterval allocates %.1f per episode and ends with %v", allocs, set)
	}
}

// TestMsgQueuesShareOneAllocation: the two framing queues are carved from one
// array by the first message, and a queue that outgrows its share moves away
// instead of writing into the other's.
func TestMsgQueuesShareOneAllocation(t *testing.T) {
	c := &Conn{}
	allocs := testing.AllocsPerRun(1, func() {
		c.pendingMsgs, c.rcvdMsgs, c.sndBufTail = nil, nil, 0
		for i := 0; i < pendingMsgsCap; i++ {
			c.SendMessage(nil, 10)
		}
		c.stashMsgs([]AppMessage{{End: 5}})
	})
	if allocs != 1 {
		t.Errorf("a connection's first %d sent and %d received messages cost %.0f allocations, want 1",
			pendingMsgsCap, rcvdMsgsCap, allocs)
	}
	c.SendMessage(nil, 10) // outgrows its share
	c.stashMsgs([]AppMessage{{End: 7}})
	if len(c.pendingMsgs) != pendingMsgsCap+1 || len(c.rcvdMsgs) != 2 ||
		c.rcvdMsgs[0].End != 5 || c.rcvdMsgs[1].End != 7 {
		t.Fatalf("queues overlap after growth: pending %v, rcvd %v", c.pendingMsgs, c.rcvdMsgs)
	}
	for i, m := range c.pendingMsgs {
		if m.End != int64(10*(i+1)) {
			t.Fatalf("pendingMsgs[%d].End = %d, want %d", i, m.End, 10*(i+1))
		}
	}
}
