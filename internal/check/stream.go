package check

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// StreamHeader is the first line of the digest interchange format.
const StreamHeader = "wp2p.digest.v1"

// Stream is one run's digest records plus an optional flight-recorder tail,
// the unit Bisect compares. A multi-world experiment writes one stream per
// world.
type Stream struct {
	Label   string   // identifies the run, e.g. "seed=42"
	Records []Record // digest samples in event order
	Tail    []string // flight-recorder tail lines captured at Finish
}

// WriteStreams writes streams in the wp2p.digest.v1 text format:
//
//	wp2p.digest.v1
//	= <label> records=<n>
//	r <event> <now_ns> <sum_hex>
//	t <flight recorder line>
//
// Labels must be newline-free; record lines carry the fired-event count,
// the virtual clock in nanoseconds, and the 64-bit state sum in hex.
func WriteStreams(w io.Writer, streams []Stream) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, StreamHeader)
	for _, s := range streams {
		fmt.Fprintf(bw, "= %s records=%d\n", s.Label, len(s.Records))
		for _, r := range s.Records {
			fmt.Fprintf(bw, "r %d %d %016x\n", r.Event, int64(r.Now), r.Sum)
		}
		for _, line := range s.Tail {
			fmt.Fprintf(bw, "t %s\n", line)
		}
	}
	return bw.Flush()
}

// ParseStreams reads the format WriteStreams emits.
func ParseStreams(r io.Reader) ([]Stream, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("check: empty digest stream")
	}
	if got := strings.TrimSpace(sc.Text()); got != StreamHeader {
		return nil, fmt.Errorf("check: bad header %q, want %q", got, StreamHeader)
	}
	var streams []Stream
	var cur *Stream
	line := 1
	for sc.Scan() {
		line++
		text := sc.Text()
		switch {
		case strings.HasPrefix(text, "= "):
			body := strings.TrimPrefix(text, "= ")
			i := strings.LastIndex(body, " records=")
			if i < 0 {
				return nil, fmt.Errorf("check: line %d: malformed stream header %q", line, text)
			}
			streams = append(streams, Stream{Label: body[:i]})
			cur = &streams[len(streams)-1]
		case strings.HasPrefix(text, "r "):
			if cur == nil {
				return nil, fmt.Errorf("check: line %d: record before stream header", line)
			}
			fields := strings.Fields(text[2:])
			if len(fields) != 3 {
				return nil, fmt.Errorf("check: line %d: malformed record %q", line, text)
			}
			ev, err1 := strconv.ParseInt(fields[0], 10, 64)
			now, err2 := strconv.ParseInt(fields[1], 10, 64)
			sum, err3 := strconv.ParseUint(fields[2], 16, 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("check: line %d: malformed record %q", line, text)
			}
			cur.Records = append(cur.Records, Record{Event: ev, Now: time.Duration(now), Sum: sum})
		case strings.HasPrefix(text, "t "):
			if cur == nil {
				return nil, fmt.Errorf("check: line %d: tail before stream header", line)
			}
			cur.Tail = append(cur.Tail, strings.TrimPrefix(text, "t "))
		case strings.TrimSpace(text) == "":
			// blank lines tolerated
		default:
			return nil, fmt.Errorf("check: line %d: unrecognized line %q", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return streams, nil
}

// SortStreams puts streams into canonical order — by label, then by record
// content — so collections gathered in worker-completion order under
// -parallel serialize byte-identically to sequential runs. Seeds collide
// across experiment cells, so the label alone is not a key.
func SortStreams(streams []Stream) {
	sort.SliceStable(streams, func(i, j int) bool {
		return compareStreams(&streams[i], &streams[j]) < 0
	})
}

func compareStreams(a, b *Stream) int {
	if a.Label != b.Label {
		if a.Label < b.Label {
			return -1
		}
		return 1
	}
	n := len(a.Records)
	if len(b.Records) < n {
		n = len(b.Records)
	}
	for k := 0; k < n; k++ {
		ra, rb := a.Records[k], b.Records[k]
		switch {
		case ra.Event != rb.Event:
			if ra.Event < rb.Event {
				return -1
			}
			return 1
		case ra.Now != rb.Now:
			if ra.Now < rb.Now {
				return -1
			}
			return 1
		case ra.Sum != rb.Sum:
			if ra.Sum < rb.Sum {
				return -1
			}
			return 1
		}
	}
	return len(a.Records) - len(b.Records)
}

// FirstDivergence binary-searches two record sequences for the first index
// where they disagree (by event count, clock, or sum). It returns
// (index, true) on divergence — index len(shorter) when one stream is a
// strict prefix of the other — or (len, false) when the streams are
// identical.
//
// The binary search assumes divergence is monotone: once two deterministic
// runs diverge, their state digests stay different, because the engine
// state a digest hashes includes monotone progress counters (clock, event
// seq) that can never re-converge after a fork. An "identical" verdict is
// still verified with one linear pass, so hand-edited or non-deterministic
// inputs that violate the assumption can never be misreported as equal.
func FirstDivergence(a, b []Record) (int, bool) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := sort.Search(n, func(i int) bool { return a[i] != b[i] })
	if i == n {
		for k := 0; k < n; k++ {
			if a[k] != b[k] {
				i = k
				break
			}
		}
	}
	if i < n {
		return i, true
	}
	if len(a) != len(b) {
		return n, true
	}
	return n, false
}

// Bisect compares two runs' streams (`wp2p bisect A.digest B.digest`) and
// reports to w, returning whether they are digest-identical. Streams are
// matched pairwise after canonical sorting (which reorders a and b); for the
// first pair that disagrees the report gives the last matching record, both
// diverging records, the event window the fork happened in — which bounds
// where nondeterminism, or a behaviour change, entered the event stream —
// and both flight-recorder tails when present.
func Bisect(w io.Writer, nameA, nameB string, a, b []Stream) bool {
	if len(a) != len(b) {
		fmt.Fprintf(w, "stream count differs: %s has %d, %s has %d\n", nameA, len(a), nameB, len(b))
		return false
	}
	SortStreams(a)
	SortStreams(b)
	for i := range a {
		sa, sb := &a[i], &b[i]
		if sa.Label != sb.Label {
			fmt.Fprintf(w, "stream %d label differs: %q vs %q\n", i, sa.Label, sb.Label)
			return false
		}
		if idx, diverged := FirstDivergence(sa.Records, sb.Records); diverged {
			reportDivergence(w, sa, sb, idx)
			return false
		}
	}
	fmt.Fprintf(w, "identical: %d stream(s), digests match\n", len(a))
	return true
}

// reportDivergence prints the divergence window for one stream pair: the last
// agreed sample, both sides' first differing samples, and the recorder tails.
func reportDivergence(w io.Writer, a, b *Stream, idx int) {
	fmt.Fprintf(w, "diverged: stream %q\n", a.Label)
	lo := int64(0)
	if idx > 0 {
		r := a.Records[idx-1]
		lo = r.Event
		fmt.Fprintf(w, "  last match:  event %d  now %v  sum %016x\n", r.Event, r.Now, r.Sum)
	} else {
		fmt.Fprintf(w, "  last match:  none (streams differ from the first sample)\n")
	}
	hi := int64(-1)
	for i, s := range []*Stream{a, b} {
		if idx < len(s.Records) {
			r := s.Records[idx]
			hi = max(hi, r.Event)
			fmt.Fprintf(w, "  first diff %c: event %d  now %v  sum %016x\n", "AB"[i], r.Event, r.Now, r.Sum)
		} else {
			fmt.Fprintf(w, "  first diff %c: stream ends (%d records)\n", "AB"[i], len(s.Records))
		}
	}
	if hi >= 0 {
		fmt.Fprintf(w, "  divergence window: events (%d, %d]\n", lo, hi)
	} else {
		fmt.Fprintf(w, "  divergence window: events > %d (one stream truncated)\n", lo)
	}
	for i, s := range []*Stream{a, b} {
		if len(s.Tail) > 0 {
			fmt.Fprintf(w, "  -- %c flight-recorder tail (%d lines) --\n", "AB"[i], len(s.Tail))
		}
		for _, line := range s.Tail {
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
}
