package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Load parses and validates a wp2p.scenario.v1 document. Errors name the
// offending field by JSON path ("peers[2].link.kind: …"); a document that
// loads cleanly is guaranteed to compile and run.
func Load(data []byte) (*Spec, error) {
	s, err := parse(data)
	if err != nil {
		return nil, err
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadFile is Load over a file's contents.
func LoadFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Load(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// parse strictly decodes the document, keeping the raw JSON tree for
// override application.
func parse(data []byte) (*Spec, error) {
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("scenario: not a JSON object: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s.raw = raw
	return &s, nil
}

// errs accumulates path-prefixed validation failures.
type errs []string

func (e *errs) add(path, format string, args ...any) {
	*e = append(*e, path+": "+fmt.Sprintf(format, args...))
}

func (e errs) err() error {
	switch len(e) {
	case 0:
		return nil
	case 1:
		return fmt.Errorf("scenario: %s", e[0])
	default:
		return fmt.Errorf("scenario: %d problems:\n  %s", len(e), strings.Join(e, "\n  "))
	}
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// validate checks every cross-field rule the compiler depends on.
func (s *Spec) validate() error {
	var e errs
	if s.Schema != SchemaVersion {
		e.add("schema", "got %q, this loader reads %q", s.Schema, SchemaVersion)
	}
	if !nameRe.MatchString(s.Name) {
		e.add("name", "%q must match %s (it becomes the result id and export filename)", s.Name, nameRe)
	}
	if s.Duration <= 0 {
		e.add("duration", "must be positive, got %v", s.Duration.D())
	}
	if s.DurationFloor < 0 || s.DurationFloor > s.Duration {
		e.add("duration_floor", "must be within [0, duration], got %v", s.DurationFloor.D())
	}
	if s.Runs < 0 {
		e.add("runs", "must be ≥ 0, got %d", s.Runs)
	}

	switch s.Workload.Protocol {
	case ProtoBT, ProtoEd2k, ProtoGnutella:
	default:
		e.add("workload.protocol", "unknown protocol %q (want %q, %q, or %q)",
			s.Workload.Protocol, ProtoBT, ProtoEd2k, ProtoGnutella)
	}
	tor := s.Workload.Torrent
	if tor.SizeBytes <= 0 {
		e.add("workload.torrent.size_bytes", "must be positive, got %d", tor.SizeBytes)
	}
	if tor.SizeFloor < 0 || tor.SizeFloor > tor.SizeBytes {
		e.add("workload.torrent.size_floor", "must be within [0, size_bytes], got %d", tor.SizeFloor)
	}
	if tor.PieceBytes < 0 {
		e.add("workload.torrent.piece_bytes", "must be ≥ 0, got %d", tor.PieceBytes)
	}

	if len(s.Peers) == 0 {
		e.add("peers", "at least one peer group is required")
	}
	seen := map[string]bool{}
	for i := range s.Peers {
		s.validateGroup(&e, fmt.Sprintf("peers[%d]", i), &s.Peers[i], seen)
	}
	for i := range s.Events {
		s.validateEvent(&e, fmt.Sprintf("events[%d]", i), &s.Events[i])
	}
	s.validateMeasure(&e)
	s.validateGrid(&e)
	return e.err()
}

func (s *Spec) validateGroup(e *errs, path string, g *PeerGroup, seen map[string]bool) {
	if !nameRe.MatchString(g.Name) {
		e.add(path+".name", "%q must match %s", g.Name, nameRe)
	} else if seen[g.Name] {
		e.add(path+".name", "duplicate group name %q", g.Name)
	}
	seen[g.Name] = true
	if g.Count < 0 {
		e.add(path+".count", "must be ≥ 0, got %d", g.Count)
	}
	switch g.Role {
	case "", RoleSeed, RoleLeech:
	default:
		e.add(path+".role", "unknown role %q (want %q or %q)", g.Role, RoleSeed, RoleLeech)
	}

	lp := path + ".link"
	switch g.Link.Kind {
	case "wired":
		if g.Link.Rate != 0 {
			e.add(lp+".rate", "is wireless-only; wired links use up/down")
		}
		if g.Link.BER != 0 {
			e.add(lp+".ber", "is wireless-only")
		}
		if g.Link.Overhead != 0 {
			e.add(lp+".overhead", "is wireless-only")
		}
	case "wireless":
		if g.Link.Up != 0 || g.Link.Down != 0 {
			e.add(lp+".up", "up/down are wired-only; wireless links use rate")
		}
		if g.Link.BER < 0 || g.Link.BER >= 1 {
			e.add(lp+".ber", "must be within [0, 1), got %g", g.Link.BER)
		}
	default:
		e.add(lp+".kind", "unknown kind %q (want \"wired\" or \"wireless\")", g.Link.Kind)
	}
	if g.Link.QueueCap < 0 {
		e.add(lp+".queue", "must be ≥ 0, got %d", g.Link.QueueCap)
	}

	switch g.Fidelity {
	case "", FidelityPacket:
	case FidelityFlow:
		if g.Link.Kind == "wireless" {
			e.add(path+".fidelity", "%q requires a wired link; group %q is wireless (the WLAN leg is always packet-level)", FidelityFlow, g.Name)
		}
		if g.Mobility != nil {
			e.add(path+".fidelity", "%q is incompatible with a mobility block: handoffs rebind addresses, which the flow fabric cannot follow", FidelityFlow)
		}
	default:
		e.add(path+".fidelity", "unknown fidelity %q (want %q or %q)", g.Fidelity, FidelityPacket, FidelityFlow)
	}

	if g.InitialHave < 0 || g.InitialHave > 1 {
		e.add(path+".initial_have", "must be within [0, 1], got %g", g.InitialHave)
	}
	if g.Role == RoleSeed && g.InitialHave != 0 {
		e.add(path+".initial_have", "seeds already have everything")
	}
	if g.Deferred && (g.StartAt != 0 || g.ArrivalInterval != 0) {
		e.add(path+".deferred", "deferred groups start only via join events; drop start_at/arrival_interval")
	}

	if g.WP2P != nil {
		if s.Workload.Protocol != ProtoBT {
			e.add(path+".wp2p", "wP2P components require protocol %q, scenario uses %q", ProtoBT, s.Workload.Protocol)
		}
		if l := g.WP2P.LIHD; l != nil && l.Umax <= 0 {
			e.add(path+".wp2p.lihd.umax", "must be positive, got %v", l.Umax.R())
		}
	}
	if m := g.Mobility; m != nil {
		mp := path + ".mobility"
		if m.IPBase == 0 {
			e.add(mp+".ip_base", "is required (address 0 means \"unset\" in netem)")
		}
		if m.Period < 0 {
			e.add(mp+".period", "must be ≥ 0, got %v", m.Period.D())
		}
		if m.Jitter < 0 || (m.Period > 0 && m.Jitter >= m.Period) {
			e.add(mp+".jitter", "must be within [0, period), got %v", m.Jitter.D())
		}
		if m.First < 0 || m.First > g.Count && g.Count > 0 {
			e.add(mp+".first", "must be within [0, count], got %d", m.First)
		}
		switch m.Reaction {
		case "", ReactOblivious, ReactRestart:
		case ReactWP2P:
			if g.WP2P == nil {
				e.add(mp+".reaction", "%q requires the group to enable wp2p", ReactWP2P)
			}
		default:
			e.add(mp+".reaction", "unknown reaction %q (want %q, %q, or %q)",
				m.Reaction, ReactOblivious, ReactRestart, ReactWP2P)
		}
	}
}

func (s *Spec) validateEvent(e *errs, path string, ev *Event) {
	if ev.At < 0 {
		e.add(path+".at", "must be ≥ 0, got %v", ev.At.D())
	}
	group := func(field, name string) *PeerGroup {
		if name == "" {
			e.add(path+"."+field, "is required for %q", ev.Action)
			return nil
		}
		g := s.groupByName(name)
		if g == nil {
			e.add(path+"."+field, "unknown peer group %q", name)
		}
		return g
	}
	target := func() *PeerGroup {
		g := group("peers", ev.Peers)
		if g != nil && ev.Index != nil && (*ev.Index < 0 || *ev.Index >= g.Count) {
			e.add(path+".index", "must be within [0, %d), got %d", g.Count, *ev.Index)
		}
		return g
	}
	wireless := func() {
		if g := target(); g != nil && g.Link.Kind != "wireless" {
			e.add(path+".peers", "%q targets wired group %q; it needs a wireless link", ev.Action, ev.Peers)
		}
	}
	needMobility := func() {
		if g := target(); g != nil && g.Mobility == nil {
			e.add(path+".peers", "%q targets group %q, which has no mobility block", ev.Action, ev.Peers)
		}
	}

	switch ev.Action {
	case ActJoin, ActLeave:
		target()
		if ev.Count < 0 {
			e.add(path+".count", "must be ≥ 0, got %d", ev.Count)
		}
	case ActHandoff:
		needMobility()
	case ActHandoffStorm:
		needMobility()
		if ev.Count < 0 {
			e.add(path+".count", "must be ≥ 0, got %d", ev.Count)
		}
		if ev.Period < 0 {
			e.add(path+".period", "must be ≥ 0, got %v", ev.Period.D())
		}
		if p := ev.Period; ev.Jitter < 0 || (p > 0 && ev.Jitter >= p) || (p == 0 && ev.Jitter >= 10e9) {
			e.add(path+".jitter", "must be within [0, period), got %v", ev.Jitter.D())
		}
	case ActSetBER:
		wireless()
		if ev.BER == nil || *ev.BER < 0 || *ev.BER >= 1 {
			e.add(path+".ber", "a value within [0, 1) is required")
		}
	case ActRampBER:
		wireless()
		if ev.ToBER == nil || *ev.ToBER < 0 || *ev.ToBER >= 1 {
			e.add(path+".to_ber", "a value within [0, 1) is required")
		}
		if ev.BER != nil && (*ev.BER < 0 || *ev.BER >= 1) {
			e.add(path+".ber", "must be within [0, 1)")
		}
		if ev.Over <= 0 {
			e.add(path+".over", "a positive ramp length is required")
		}
		if ev.Steps < 0 {
			e.add(path+".steps", "must be ≥ 0, got %d", ev.Steps)
		}
	case ActSetRate:
		if g := target(); g != nil {
			switch g.Link.Kind {
			case "wired":
				if ev.RateV != 0 {
					e.add(path+".rate", "is wireless-only; wired set_rate uses up/down")
				}
				if ev.Up == 0 && ev.Down == 0 {
					e.add(path+".up", "set_rate on a wired group needs up and/or down")
				}
			case "wireless":
				if ev.Up != 0 || ev.Down != 0 {
					e.add(path+".up", "up/down are wired-only; wireless set_rate uses rate")
				}
				if ev.RateV <= 0 {
					e.add(path+".rate", "a positive rate is required")
				}
			}
		}
	case ActDisconnect:
		target()
		if ev.For < 0 {
			e.add(path+".for", "must be ≥ 0, got %v", ev.For.D())
		}
	case ActPartition, ActHeal:
		group("a", ev.A)
		group("b", ev.B)
		if ev.A != "" && ev.A == ev.B {
			e.add(path+".b", "partition endpoints must differ, both are %q", ev.A)
		}
		if ev.Action == ActHeal && ev.For != 0 {
			e.add(path+".for", "heal is instantaneous")
		}
	default:
		e.add(path+".action", "unknown action %q", ev.Action)
	}
}

func (s *Spec) validateMeasure(e *errs) {
	if s.groupByName(s.Measure.Peers) == nil {
		e.add("measure.peers", "unknown peer group %q", s.Measure.Peers)
	}
	switch s.Measure.Metric {
	case MetricDownloadKBps, MetricUploadKBps, MetricDownloadedMB,
		MetricCompletionS, MetricCompleted, MetricHandoffs:
	default:
		e.add("measure.metric", "unknown metric %q", s.Measure.Metric)
	}
	if s.Measure.Sample < 0 {
		e.add("measure.sample", "must be ≥ 0, got %v", s.Measure.Sample.D())
	}
	if s.Measure.Sample > 0 && s.Sweep != nil {
		e.add("measure.sample", "a sampled time series and a sweep are mutually exclusive")
	}
	if s.Measure.Sample > 0 && s.Measure.Sample > s.Duration {
		e.add("measure.sample", "sampling period %v exceeds the %v horizon", s.Measure.Sample.D(), s.Duration.D())
	}
}

func (s *Spec) validateGrid(e *errs) {
	if s.Sweep != nil {
		if _, err := parsePath(s.Sweep.Param); err != nil {
			e.add("sweep.param", "%v", err)
		}
		if len(s.Sweep.Values) == 0 {
			e.add("sweep.values", "at least one value is required")
		}
		if len(s.Sweep.X) > 0 && len(s.Sweep.X) != len(s.Sweep.Values) {
			e.add("sweep.x", "got %d x-values for %d swept values", len(s.Sweep.X), len(s.Sweep.Values))
		}
	}
	labels := map[string]bool{}
	for i, sv := range s.Series {
		p := fmt.Sprintf("series[%d]", i)
		if sv.Label == "" {
			e.add(p+".label", "is required")
		} else if labels[sv.Label] {
			e.add(p+".label", "duplicate label %q", sv.Label)
		}
		labels[sv.Label] = true
		for _, path := range sortedKeys(sv.Set) {
			if _, err := parsePath(path); err != nil {
				e.add(p+".set", "%v", err)
			}
		}
	}
}

// --- override machinery ---

// An Override rewrites one field of the raw spec by path before re-decoding:
// the mechanism behind sweeps, series variants, and the CLI's -sweep flag.
type Override struct {
	Path  string
	Value any
}

// Variant clones the spec, applies the overrides in order, and re-validates.
// The returned spec is fully independent of the receiver.
func (s *Spec) Variant(overrides []Override) (*Spec, error) {
	raw, ok := cloneJSON(s.raw).(map[string]any)
	if !ok {
		return nil, fmt.Errorf("scenario: spec has no raw document to override")
	}
	for _, o := range overrides {
		if err := setPath(raw, o.Path, o.Value); err != nil {
			return nil, fmt.Errorf("scenario: override %s: %w", o.Path, err)
		}
	}
	data, err := json.Marshal(raw)
	if err != nil {
		return nil, fmt.Errorf("scenario: re-encoding overridden spec: %w", err)
	}
	return Load(data)
}

// seriesOverrides flattens a series' Set map into deterministic order.
func seriesOverrides(set map[string]any) []Override {
	out := make([]Override, 0, len(set))
	for _, k := range sortedKeys(set) {
		out = append(out, Override{Path: k, Value: set[k]})
	}
	return out
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// cloneJSON deep-copies a decoded JSON tree.
func cloneJSON(v any) any {
	switch t := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(t))
		for k, vv := range t {
			out[k] = cloneJSON(vv)
		}
		return out
	case []any:
		out := make([]any, len(t))
		for i, vv := range t {
			out[i] = cloneJSON(vv)
		}
		return out
	default:
		return v
	}
}

// seg is one step of an override path: a key, then zero or more indices.
type seg struct {
	key     string
	indices []int
}

var segRe = regexp.MustCompile(`^([A-Za-z_][A-Za-z0-9_]*)((?:\[\d+\])*)$`)

// parsePath parses "peers[0].mobility.period" into segments.
func parsePath(path string) ([]seg, error) {
	if path == "" {
		return nil, fmt.Errorf("empty override path")
	}
	parts := strings.Split(path, ".")
	segs := make([]seg, 0, len(parts))
	for _, p := range parts {
		m := segRe.FindStringSubmatch(p)
		if m == nil {
			return nil, fmt.Errorf("bad override path segment %q (want key or key[i])", p)
		}
		sg := seg{key: m[1]}
		for _, idx := range strings.Split(m[2], "]") {
			if idx == "" {
				continue
			}
			n, err := strconv.Atoi(strings.TrimPrefix(idx, "["))
			if err != nil {
				return nil, fmt.Errorf("bad index in path segment %q", p)
			}
			sg.indices = append(sg.indices, n)
		}
		segs = append(segs, sg)
	}
	return segs, nil
}

// setPath writes val at path inside the raw JSON tree. Intermediate
// containers must exist; the final key may be new (so overrides can add
// optional fields).
func setPath(root map[string]any, path string, val any) error {
	segs, err := parsePath(path)
	if err != nil {
		return err
	}
	var cur any = root
	for i, sg := range segs {
		last := i == len(segs)-1
		obj, ok := cur.(map[string]any)
		if !ok {
			return fmt.Errorf("%s is not an object", strings.Join(pathPrefix(segs, i), "."))
		}
		if last && len(sg.indices) == 0 {
			obj[sg.key] = val
			return nil
		}
		next, ok := obj[sg.key]
		if !ok {
			return fmt.Errorf("%s does not exist", strings.Join(pathPrefix(segs, i+1), "."))
		}
		for j, idx := range sg.indices {
			arr, ok := next.([]any)
			if !ok {
				return fmt.Errorf("%s is not an array", strings.Join(pathPrefix(segs, i+1), "."))
			}
			if idx < 0 || idx >= len(arr) {
				return fmt.Errorf("%s: index %d out of range (%d elements)",
					strings.Join(pathPrefix(segs, i+1), "."), idx, len(arr))
			}
			if last && j == len(sg.indices)-1 {
				arr[idx] = val
				return nil
			}
			next = arr[idx]
		}
		cur = next
	}
	return nil
}

// pathPrefix renders the first n segments for error messages.
func pathPrefix(segs []seg, n int) []string {
	out := make([]string, 0, n)
	for _, sg := range segs[:min(n, len(segs))] {
		p := sg.key
		for _, idx := range sg.indices {
			p += fmt.Sprintf("[%d]", idx)
		}
		out = append(out, p)
	}
	return out
}
