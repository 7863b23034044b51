// Package scenario is the declarative workload engine: a versioned JSON
// spec (wp2p.scenario.v1) describes a topology of wired/wireless peers, a
// protocol workload, and a timed schedule of churn and fault-injection
// events — peer arrivals and departures, handoff storms, BER steps and
// ramps, link partitions, rate-limit changes — and the engine compiles it
// onto the experiments/sim/netem/mobility stack and runs it.
//
// Where internal/experiments hard-codes the paper's Georgia Tech testbed
// conditions one figure at a time, a scenario is data: the same simulator
// core re-runs under any mobility mix, loss profile, or churn pattern
// without new Go. Runs are deterministic — the spec's seed fixes every RNG
// draw, and the sweep grid is reduced in index order — so a scenario is
// also a reproducible artifact: same spec + same seed ⇒ byte-identical
// wp2p.result.v1 JSON, at any -parallel setting.
package scenario

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/wp2p/wp2p/internal/netem"
)

// SchemaVersion identifies the JSON layout Load accepts. Bump only with a
// deliberate format change; the loader rejects every other value so a stale
// file fails loudly instead of half-parsing.
const SchemaVersion = "wp2p.scenario.v1"

// Duration is a time.Duration that marshals as a human-readable string
// ("90s", "2m", "1.5h" — time.ParseDuration syntax).
type Duration time.Duration

// D returns the underlying time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// UnmarshalJSON parses a duration string.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"90s\" or \"2m\", got %s", b)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("bad duration %q: %w", s, err)
	}
	*d = Duration(v)
	return nil
}

// MarshalJSON renders the duration as its canonical string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Rate is a netem.Rate that marshals as a human-readable string: "300KBps",
// "1MBps", "64Bps" (bytes per second) or "512Kbps", "2Mbps" (bits per
// second). A bare JSON number is bytes per second.
type Rate netem.Rate

// R returns the underlying netem.Rate.
func (r Rate) R() netem.Rate { return netem.Rate(r) }

// ParseRate parses the rate syntax above.
func ParseRate(s string) (Rate, error) {
	suffixes := []struct {
		suffix string
		mult   float64
	}{
		{"KBps", 1000}, {"MBps", 1000 * 1000},
		{"Kbps", 1000.0 / 8}, {"Mbps", 1000 * 1000.0 / 8},
		{"Bps", 1},
	}
	for _, u := range suffixes {
		if strings.HasSuffix(s, u.suffix) {
			num := strings.TrimSuffix(s, u.suffix)
			v, err := strconv.ParseFloat(num, 64)
			if err != nil || v < 0 {
				return 0, fmt.Errorf("bad rate %q: want <number>%s", s, u.suffix)
			}
			return Rate(v * u.mult), nil
		}
	}
	return 0, fmt.Errorf("bad rate %q: want a number with a KBps/MBps/Bps/Kbps/Mbps suffix", s)
}

// UnmarshalJSON parses a rate string or bare byte-per-second number.
func (r *Rate) UnmarshalJSON(b []byte) error {
	var n int64
	if err := json.Unmarshal(b, &n); err == nil {
		if n < 0 {
			return fmt.Errorf("rate must be non-negative, got %d", n)
		}
		*r = Rate(n)
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("rate must be a string like \"300KBps\" or a bytes/s number, got %s", b)
	}
	v, err := ParseRate(s)
	if err != nil {
		return err
	}
	*r = v
	return nil
}

// MarshalJSON renders the rate in KB/s.
func (r Rate) MarshalJSON() ([]byte, error) {
	return json.Marshal(netem.Rate(r).String())
}

// Spec is one declarative scenario. Zero-valued optional fields take the
// defaults documented per field; Load validates everything and reports
// errors by JSON path.
type Spec struct {
	// Schema must be SchemaVersion.
	Schema string `json:"schema"`
	// Name identifies the scenario; it becomes the Result ID and the
	// -json export filename.
	Name string `json:"name"`
	// Title is the human-readable headline (default: Name).
	Title string `json:"title,omitempty"`
	// Seed is the base RNG seed (default 1). Run r of a grid cell uses
	// Seed + r*101, mirroring the registry experiments' run striding.
	Seed int64 `json:"seed,omitempty"`
	// Runs averages this many independently seeded runs per grid cell
	// (default 1).
	Runs int `json:"runs,omitempty"`

	// Duration is the measurement horizon. The CLI's -scale multiplies it
	// (floored at DurationFloor), exactly like the registry experiments
	// scale their horizons; event times stretch or shrink proportionally.
	Duration Duration `json:"duration"`
	// DurationFloor bounds how far scale can shrink Duration (0 = no
	// floor).
	DurationFloor Duration `json:"duration_floor,omitempty"`
	// AnnounceInterval is the tracker announce period (0 = bt default).
	AnnounceInterval Duration `json:"announce_interval,omitempty"`

	Network  NetworkSpec  `json:"network,omitempty"`
	Workload WorkloadSpec `json:"workload"`
	Peers    []PeerGroup  `json:"peers"`
	Events   []Event      `json:"events,omitempty"`
	Measure  MeasureSpec  `json:"measure"`

	// Sweep turns the scenario into a figure: one run (per series variant)
	// for each value of the swept parameter.
	Sweep *SweepSpec `json:"sweep,omitempty"`
	// Series are spec variants plotted as separate lines; each applies its
	// overrides on top of the base spec. Empty means one unlabeled series.
	Series []SeriesSpec `json:"series,omitempty"`

	// raw is the decoded JSON tree the spec was loaded from; overrides
	// (sweep values, series sets) are applied to a clone of it and
	// re-decoded, so the path syntax is uniform for every field.
	raw map[string]any
}

// NetworkSpec shapes the routing cloud between access media.
type NetworkSpec struct {
	// CloudDelay is the one-way core delay; zero takes the world builder's
	// (experiments.NewWorldSharded), the value every registry experiment
	// runs with.
	CloudDelay Duration `json:"cloud_delay,omitempty"`
	// Jitter adds a uniform random extra delay in [0, Jitter) per crossing.
	Jitter Duration `json:"jitter,omitempty"`
}

// Workload protocols.
const (
	ProtoBT       = "bt"
	ProtoEd2k     = "ed2k"
	ProtoGnutella = "gnutella"
)

// WorkloadSpec selects the protocol and the content being distributed.
type WorkloadSpec struct {
	// Protocol is "bt" (full support, incl. per-group wp2p toggles),
	// "ed2k", or "gnutella" (topology/churn/fault support; no wp2p
	// toggles).
	Protocol string      `json:"protocol"`
	Torrent  TorrentSpec `json:"torrent"`
}

// TorrentSpec is the distributed file: also the ed2k File and the gnutella
// shared key, so every protocol reads the same content description. Its
// pieces (ed2k: chunks) are bt.DefaultPieceLen long.
type TorrentSpec struct {
	// Name keys the content (default: the scenario name).
	Name string `json:"name,omitempty"`
	// SizeBytes is the file length; -scale multiplies it, floored at
	// SizeFloor.
	SizeBytes int64 `json:"size_bytes"`
	// SizeFloor bounds how far scale can shrink SizeBytes (0 = no floor).
	SizeFloor int64 `json:"size_floor,omitempty"`
}

// Peer roles.
const (
	RoleSeed  = "seed"
	RoleLeech = "leech"
)

// Fidelity levels for a peer group's transport model. Packet fidelity
// simulates every packet crossing the access link; flow fidelity models a
// wired group's bulk transfers as fluid flows whose rates are max-min
// shared per link, collapsing the per-packet event stream to one delivery
// event per packet.
const (
	FidelityPacket = "packet"
	FidelityFlow   = "flow"
)

// PeerGroup declares Count identically-configured peers. Instance i of a
// group is addressable by events ("peers": name, "index": i) and inherits
// the group's link, mobility, and protocol settings.
type PeerGroup struct {
	Name string `json:"name"`
	// Count is the number of instances (default 1).
	Count int `json:"count,omitempty"`
	// Role is "seed" (full content) or "leech" (default).
	Role string   `json:"role,omitempty"`
	Link LinkSpec `json:"link"`
	// Fidelity selects the group's transport model: "packet" (default) or
	// "flow" (fluid flows on the wired core). Flow fidelity requires a
	// wired link and no mobility block — handoffs rebind addresses, which
	// the flow fabric's per-IP link table cannot follow.
	Fidelity string `json:"fidelity,omitempty"`

	// StartAt delays the instances' start; instance i starts at
	// StartAt + i·ArrivalInterval (a flash crowd is a group with a short
	// ArrivalInterval). Zero starts at time 0. Hosts are attached to the
	// network at build time regardless, so address allocation does not
	// depend on the schedule.
	StartAt         Duration `json:"start_at,omitempty"`
	ArrivalInterval Duration `json:"arrival_interval,omitempty"`
	// Deferred builds the instances but never auto-starts them; a "join"
	// event brings them up.
	Deferred bool `json:"deferred,omitempty"`

	// UploadLimit caps each instance's upload (0 = uncapped). bt only.
	UploadLimit Rate `json:"upload_limit,omitempty"`
	// UnchokeSlots overrides the bt unchoke-slot count (ed2k: upload
	// slots). 0 = protocol default.
	UnchokeSlots int `json:"unchoke_slots,omitempty"`
	// InitialHave pre-populates roughly this fraction of pieces (chunks for
	// ed2k) from the world RNG — a peer that joined earlier. Leeches only.
	InitialHave float64 `json:"initial_have,omitempty"`

	// WP2P enables wP2P components on these peers (protocol bt only).
	WP2P *WP2PSpec `json:"wp2p,omitempty"`
	// Mobility gives these peers IP-handoff machinery.
	Mobility *MobilitySpec `json:"mobility,omitempty"`
}

// LinkSpec is a group's access medium. Wired instances each get a private
// full-duplex link; wireless instances each get their own half-duplex
// channel (shared-cell contention is out of scope for v1 — the paper's
// testbed gives each station its own WLAN leg to the wired network), whose
// per-packet MAC overhead is experiments.DefaultWirelessOverhead.
type LinkSpec struct {
	// Kind is "wired" or "wireless".
	Kind string `json:"kind"`
	// Up/Down are the wired rates (0 = 1MBps, the netem default).
	Up   Rate `json:"up,omitempty"`
	Down Rate `json:"down,omitempty"`
	// Rate is the wireless channel rate (0 = netem's 802.11b default).
	Rate Rate `json:"rate,omitempty"`
	// Delay is the one-way access-medium delay (0 = netem default).
	Delay Duration `json:"delay,omitempty"`
	// QueueCap bounds the drop-tail queue in packets (0 = netem default).
	QueueCap int `json:"queue,omitempty"`
	// BER is the wireless bit error rate.
	BER float64 `json:"ber,omitempty"`
}

// WP2PSpec toggles the wP2P components per peer group, mirroring
// wp2p.Config.
type WP2PSpec struct {
	// AM enables Age-based Manipulation with its paper defaults.
	AM bool `json:"am,omitempty"`
	// LIHD enables upload-rate control; Umax is required when set.
	LIHD *LIHDSpec `json:"lihd,omitempty"`
	// MF enables mobility-aware fetching (progress-based schedule).
	MF bool `json:"mf,omitempty"`
	// RR enables the role-reversal watchdog.
	RR bool `json:"rr,omitempty"`
	// RetainIdentity keeps the peer-id across task re-initiations.
	RetainIdentity bool `json:"retain_identity,omitempty"`
}

// LIHDSpec parameterizes LIHD (zero fields = wp2p defaults); its steps are
// the paper's, 10 KB/s.
type LIHDSpec struct {
	Umax   Rate     `json:"umax"`
	Period Duration `json:"period,omitempty"`
}

// Mobility reactions.
const (
	ReactOblivious = "oblivious"
	ReactRestart   = "restart"
)

// MobilitySpec arms a group's instances with periodic (or event-driven) IP
// handoffs.
type MobilitySpec struct {
	// Period between handoffs. Zero disables the periodic schedule: the
	// instances still own handoff machinery, so "handoff" and
	// "handoff_storm" events can drive them.
	Period Duration `json:"period,omitempty"`
	// Jitter randomizes each gap to period±jitter (engine RNG; must be
	// < period).
	Jitter Duration `json:"jitter,omitempty"`
	// First applies mobility only to the first N instances of the group
	// (0 = all).
	First int `json:"first,omitempty"`
	// IPBase/IPStride place instance i's fresh-address allocator at
	// IPBase + i·IPStride (stride default 1000). Keep the ranges clear of
	// the world's own allocations (which grow up from 10).
	IPBase   uint32 `json:"ip_base"`
	IPStride uint32 `json:"ip_stride,omitempty"`
	// Reaction is the client's response to an address change: "restart"
	// (default — the paper's default client re-initiates the task after
	// DetectionDelay: a bt or ed2k client under a fresh identity, a wP2P
	// client through its one reaction, so beside wp2p.retain_identity it
	// keeps its id; not on gnutella), or "oblivious" (connections die by
	// timeout, the swarm relearns the address from announces; a wP2P group
	// with wp2p.rr notices the move through its own watchdog).
	Reaction string `json:"reaction,omitempty"`
	// DetectionDelay overrides the restart reaction's user-notices lag
	// (omitted: mobility.DetectionDelay, 15s; "0s": at the handoff itself).
	DetectionDelay *Duration `json:"detection_delay,omitempty"`
}

// Event actions.
const (
	ActJoin         = "join"
	ActLeave        = "leave"
	ActHandoff      = "handoff"
	ActHandoffStorm = "handoff_storm"
	ActSetBER       = "set_ber"
	ActRampBER      = "ramp_ber"
	ActSetRate      = "set_rate"
	ActDisconnect   = "disconnect"
	ActPartition    = "partition"
)

// Event is one timed entry of the fault/churn schedule. At (and the other
// durations here) stretch with -scale in proportion to the horizon, so a
// schedule keeps its shape at every scale.
type Event struct {
	At     Duration `json:"at"`
	Action string   `json:"action"`

	// Peers selects the target group for peer-scoped actions; Index picks
	// one instance (default: all instances).
	Peers string `json:"peers,omitempty"`
	Index *int   `json:"index,omitempty"`

	// Count bounds join/leave/handoff_storm: how many instances join or
	// leave (default: all eligible), or how many handoffs a storm fires
	// per instance (default 3).
	Count int `json:"count,omitempty"`

	// Period/Jitter space a storm's handoffs (period default 10s).
	Period Duration `json:"period,omitempty"`
	Jitter Duration `json:"jitter,omitempty"`

	// For bounds disconnect (radio-off time, default 30s) and partition
	// (0 = to the end of the run).
	For Duration `json:"for,omitempty"`

	// BER is set_ber's new rate and ramp_ber's start (ramp default: the
	// link's configured BER); ToBER is ramp_ber's target, reached in Steps
	// equal steps (default 10) over Over.
	BER   *float64 `json:"ber,omitempty"`
	ToBER *float64 `json:"to_ber,omitempty"`
	Steps int      `json:"steps,omitempty"`
	Over  Duration `json:"over,omitempty"`

	// Up/Down retune a wired group's access link; RateV a wireless
	// group's channel. Zero keeps the current value.
	Up    Rate `json:"up,omitempty"`
	Down  Rate `json:"down,omitempty"`
	RateV Rate `json:"rate,omitempty"`

	// A/B name the two groups a partition separates (every instance pair,
	// at their addresses as of the event time).
	A string `json:"a,omitempty"`
	B string `json:"b,omitempty"`
}

// Measure metrics.
const (
	MetricDownloadKBps = "download_kbps"
	MetricUploadKBps   = "upload_kbps"
	MetricDownloadedMB = "downloaded_mb"
	MetricCompletionS  = "completion_s"
	MetricCompleted    = "completed_frac"
)

// MeasureSpec selects what one run reports: a metric over the instances of
// one group, averaged across them (completed_frac: the complete fraction).
// Every export also carries the world's counters, mobility.handoffs among
// them.
type MeasureSpec struct {
	Peers  string `json:"peers"`
	Metric string `json:"metric"`
	// Sample turns the run into a time series sampled at this period
	// (x = seconds). Mutually exclusive with a sweep.
	Sample Duration `json:"sample,omitempty"`
}

// yLabel names the metric axis.
func (m MeasureSpec) yLabel() string {
	switch m.Metric {
	case MetricDownloadKBps:
		return "download throughput (KB/s)"
	case MetricUploadKBps:
		return "upload throughput (KB/s)"
	case MetricDownloadedMB:
		return "downloaded (MB)"
	case MetricCompletionS:
		return "completion time (s)"
	case MetricCompleted:
		return "completed fraction"
	default:
		return m.Metric
	}
}

// SweepSpec fans the scenario over one parameter: Param is an override path
// into the spec ("peers[0].mobility.period"), Values its JSON values, and X
// the plotted x-axis (default: the values when numeric, a duration's
// seconds, else indices).
type SweepSpec struct {
	Param  string    `json:"param"`
	XLabel string    `json:"x_label,omitempty"`
	Values []any     `json:"values"`
	X      []float64 `json:"x,omitempty"`
}

// SeriesSpec is one plotted line: the base spec with Set's override paths
// applied.
type SeriesSpec struct {
	Label string         `json:"label"`
	Set   map[string]any `json:"set,omitempty"`
}

// groupByName returns the named peer group, or nil.
func (s *Spec) groupByName(name string) *PeerGroup {
	for i := range s.Peers {
		if s.Peers[i].Name == name {
			return &s.Peers[i]
		}
	}
	return nil
}
