package netem

import (
	"time"

	"github.com/wp2p/wp2p/internal/check"
	"github.com/wp2p/wp2p/internal/sim"
)

// Medium carries packets between attached hosts and the routing cloud.
// SendUp moves a packet from the host toward the cloud; SendDown moves a
// packet from the cloud toward the host. A medium may be shared by several
// hosts (wireless channel) or dedicated to one (access link). The deliver
// continuation is pre-bound by the caller (the Network for up, the Iface for
// down), so a hop schedules no per-packet closure.
type Medium interface {
	SendUp(pkt *Packet, deliver Deliver)
	SendDown(pkt *Packet, deliver Deliver)
}

// AccessLink is a full-duplex wired access link (e.g. cable or DSL): the
// upstream and downstream directions have independent rates and queues, so
// uploads never contend with downloads — the wired contrast the paper draws
// in Figure 3(a).
type AccessLink struct {
	up, down transmitter
}

// AccessLinkConfig parameterizes an AccessLink.
type AccessLinkConfig struct {
	UpRate   Rate          // upstream bandwidth
	DownRate Rate          // downstream bandwidth
	Delay    time.Duration // one-way propagation per direction
	QueueCap int           // per-direction buffer in packets (default 50)
}

// DefaultQueueCap is the per-direction buffer used when QueueCap is zero.
const DefaultQueueCap = 50

// NewAccessLink builds a wired access link.
func NewAccessLink(engine *sim.Engine, cfg AccessLinkConfig) *AccessLink {
	if cfg.QueueCap == 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	l := &AccessLink{
		up: transmitter{
			engine: engine, rate: cfg.UpRate, delay: cfg.Delay, queueCap: cfg.QueueCap,
		},
		down: transmitter{
			engine: engine, rate: cfg.DownRate, delay: cfg.Delay, queueCap: cfg.QueueCap,
		},
	}
	l.up.bindStats("netem.wired")
	l.down.bindStats("netem.wired")
	engine.Register(l)
	return l
}

// SetCheckEnabled arms the strict data-path assertions on both directions
// (check.Strict).
func (l *AccessLink) SetCheckEnabled(on bool) {
	l.up.checkEnabled = on
	l.down.checkEnabled = on
}

// CheckState audits byte conservation in both directions (check.Checkable).
func (l *AccessLink) CheckState(report func(invariant, detail string)) {
	l.up.checkState("netem.wired.up", report)
	l.down.checkState("netem.wired.down", report)
}

// DigestInto hashes both directions' state (check.Digestable).
func (l *AccessLink) DigestInto(d *check.Digest) {
	d.Str("netem.AccessLink")
	l.up.digestInto(d)
	l.down.digestInto(d)
}

// SendUp transmits toward the cloud at the upstream rate.
func (l *AccessLink) SendUp(pkt *Packet, deliver Deliver) {
	l.up.enqueue(pkt, deliver)
}

// SendDown transmits toward the host at the downstream rate.
func (l *AccessLink) SendDown(pkt *Packet, deliver Deliver) {
	l.down.enqueue(pkt, deliver)
}

// OnDrop registers an observer for packets discarded in either direction.
// Observers chain: each call appends, and every registered observer sees
// every drop in registration order, so tracing and per-experiment probes
// compose instead of silently replacing each other. Pass nil to remove all
// observers.
func (l *AccessLink) OnDrop(fn func(pkt *Packet, reason DropReason)) {
	if fn == nil {
		l.up.dropObs = nil
		l.down.dropObs = nil
		return
	}
	l.up.dropObs = append(l.up.dropObs, fn)
	l.down.dropObs = append(l.down.dropObs, fn)
}

// SetRate changes the link's bandwidth from now on — a mid-run rate-limit
// change (ISP shaping, congestion policy, scenario fault injection). The
// packet being serialized finishes at the old rate. A zero direction keeps
// its current rate.
func (l *AccessLink) SetRate(up, down Rate) {
	if up > 0 {
		l.up.setRate(up)
	}
	if down > 0 {
		l.down.setRate(down)
	}
}

// WirelessChannel is a half-duplex shared medium: every packet — uplink or
// downlink, from any attached station — serializes through the same
// transmitter, so uploads and downloads contend for one bandwidth budget
// (the mechanism behind Figures 3(b) and 8(c)). Each packet is independently
// corrupted with probability PER = 1−(1−BER)^(8·size) (Figures 2(a), 8(a)).
type WirelessChannel struct {
	x   transmitter
	ber float64
}

// WirelessConfig parameterizes a WirelessChannel.
type WirelessConfig struct {
	Rate     Rate          // shared channel bandwidth
	Delay    time.Duration // one-way propagation (small for WLAN)
	QueueCap int           // shared buffer in packets (default 50)
	BER      float64       // bit error rate applied per packet
	// Overhead is the fixed per-packet channel-access cost (preamble,
	// DIFS/SIFS, MAC acknowledgement). It is why a 40-byte pure TCP ACK
	// consumes a substantial share of the airtime a full data packet does
	// on 802.11 — the economics behind both the value of piggybacking and
	// the damage of DUPACK storms. Zero means none.
	Overhead time.Duration
}

// NewWirelessChannel builds a shared wireless channel.
func NewWirelessChannel(engine *sim.Engine, cfg WirelessConfig) *WirelessChannel {
	if cfg.QueueCap == 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	c := &WirelessChannel{ber: cfg.BER}
	c.x = transmitter{
		engine:   engine,
		rate:     cfg.Rate,
		delay:    cfg.Delay,
		overhead: cfg.Overhead,
		queueCap: cfg.QueueCap,
	}
	c.x.lossProb = func(size int) float64 { return PacketErrorRate(c.ber, size) }
	c.x.bindStats("netem.wireless")
	engine.Register(c)
	return c
}

// SetCheckEnabled arms the strict data-path assertions (check.Strict).
func (c *WirelessChannel) SetCheckEnabled(on bool) { c.x.checkEnabled = on }

// CheckState audits byte conservation on the shared channel
// (check.Checkable).
func (c *WirelessChannel) CheckState(report func(invariant, detail string)) {
	c.x.checkState("netem.wireless", report)
}

// DigestInto hashes the channel state (check.Digestable).
func (c *WirelessChannel) DigestInto(d *check.Digest) {
	d.Str("netem.WirelessChannel")
	d.F64(c.ber)
	c.x.digestInto(d)
}

// SendUp transmits a station's packet toward the cloud over the shared
// channel.
func (c *WirelessChannel) SendUp(pkt *Packet, deliver Deliver) {
	c.x.enqueue(pkt, deliver)
}

// SendDown transmits a packet from the cloud toward a station over the same
// shared channel.
func (c *WirelessChannel) SendDown(pkt *Packet, deliver Deliver) {
	c.x.enqueue(pkt, deliver)
}

// SetBER changes the channel's bit error rate, affecting packets transmitted
// from now on.
func (c *WirelessChannel) SetBER(ber float64) { c.ber = ber }

// SetRate changes the shared channel bandwidth from now on — a station
// renegotiating its PHY rate as signal quality shifts. The packet being
// serialized finishes at the old rate; r must be positive.
func (c *WirelessChannel) SetRate(r Rate) {
	if r <= 0 {
		panic("netem: WirelessChannel.SetRate requires a positive rate")
	}
	c.x.setRate(r)
}

// BER returns the current bit error rate.
func (c *WirelessChannel) BER() float64 { return c.ber }

// InFlight reports packets queued or being serialized on the channel — the
// "number of packets on the wireless leg" traced in Figure 2(b,c).
func (c *WirelessChannel) InFlight() int { return c.x.inFlight() }

// OnDrop registers an observer for discarded packets (buffer drops and
// corruption). Observers chain: each call appends, and every registered
// observer sees every drop in registration order. Pass nil to remove all
// observers.
func (c *WirelessChannel) OnDrop(fn func(pkt *Packet, reason DropReason)) {
	if fn == nil {
		c.x.dropObs = nil
		return
	}
	c.x.dropObs = append(c.x.dropObs, fn)
}
