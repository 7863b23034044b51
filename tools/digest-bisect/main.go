// Command digest-bisect compares two wp2p.digest.v1 determinism-digest
// streams (see internal/check, and the -digest flag of wp2p run, figures
// and scenario) and localizes the first diverging digest
// window. Two same-seed runs of a deterministic simulation must produce
// byte-identical digests; when they do not, the divergence point bounds
// where nondeterminism (or a behaviour change) entered the event stream.
//
// Usage:
//
//	digest-bisect A.digest B.digest
//
// Streams are matched pairwise after canonical sorting. For the first pair
// that disagrees, the tool prints the last matching record, both diverging
// records, the event window the fork happened in, and both streams'
// flight-recorder tails when present.
//
// Exit status: 0 when the files are digest-identical, 1 on divergence,
// 2 on usage or parse errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/wp2p/wp2p/internal/check"
)

func main() {
	os.Exit(run())
}

func run() int {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: digest-bisect A.digest B.digest\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		return 2
	}

	a, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "digest-bisect: %v\n", err)
		return 2
	}
	b, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "digest-bisect: %v\n", err)
		return 2
	}

	if len(a) != len(b) {
		fmt.Printf("stream count differs: %s has %d, %s has %d\n",
			flag.Arg(0), len(a), flag.Arg(1), len(b))
		return 1
	}

	check.SortStreams(a)
	check.SortStreams(b)
	for i := range a {
		sa, sb := &a[i], &b[i]
		if sa.Label != sb.Label {
			fmt.Printf("stream %d label differs: %q vs %q\n", i, sa.Label, sb.Label)
			return 1
		}
		idx, diverged := check.FirstDivergence(sa.Records, sb.Records)
		if !diverged {
			continue
		}
		report(sa, sb, idx)
		return 1
	}
	fmt.Printf("identical: %d stream(s), digests match\n", len(a))
	return 0
}

func load(path string) ([]check.Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return check.ParseStreams(f)
}

// report prints the divergence window for one stream pair: the last agreed
// sample, both sides' first differing samples, and the recorder tails.
func report(a, b *check.Stream, idx int) {
	fmt.Printf("diverged: stream %q\n", a.Label)
	if idx > 0 {
		r := a.Records[idx-1]
		fmt.Printf("  last match:  event %d  now %v  sum %016x\n", r.Event, r.Now, r.Sum)
	} else {
		fmt.Printf("  last match:  none (streams differ from the first sample)\n")
	}
	printSide := func(name string, recs []check.Record) {
		if idx < len(recs) {
			r := recs[idx]
			fmt.Printf("  %s: event %d  now %v  sum %016x\n", name, r.Event, r.Now, r.Sum)
		} else {
			fmt.Printf("  %s: stream ends (%d records)\n", name, len(recs))
		}
	}
	printSide("first diff A", a.Records)
	printSide("first diff B", b.Records)
	lo := int64(0)
	if idx > 0 {
		lo = a.Records[idx-1].Event
	}
	hi := int64(-1)
	if idx < len(a.Records) {
		hi = a.Records[idx].Event
	}
	if idx < len(b.Records) && b.Records[idx].Event > hi {
		hi = b.Records[idx].Event
	}
	if hi >= 0 {
		fmt.Printf("  divergence window: events (%d, %d]\n", lo, hi)
	} else {
		fmt.Printf("  divergence window: events > %d (one stream truncated)\n", lo)
	}
	dumpTail("A", a)
	dumpTail("B", b)
}

func dumpTail(name string, s *check.Stream) {
	if len(s.Tail) == 0 {
		return
	}
	fmt.Printf("  -- %s flight-recorder tail (%d lines) --\n", name, len(s.Tail))
	for _, line := range s.Tail {
		fmt.Printf("  %s\n", line)
	}
}
