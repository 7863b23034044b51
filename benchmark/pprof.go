package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes just enough of the pprof wire format (a gzipped
// protobuf, google/pprof proto/profile.proto) to attribute CPU samples to
// this repo's layers, so the harness needs no dependency beyond the
// standard library.

const modulePrefix = "github.com/wp2p/wp2p/internal/"

// cpuBuckets are the cpu.*_frac shares, in catalogue order.
var cpuBuckets = []string{
	"sim", "netem", "flow", "tcp", "bt", "ordset", "transport", "wp2p",
	"mobility", "world", "obs", "gc", "runtime_other", "syscall",
}

// bucketOfPackage maps an internal package to its cpu bucket. Packages with
// their own share map to themselves; the observability packages fold into
// obs; everything else that builds or drives a world folds into world.
func bucketOfPackage(pkg string) string {
	switch pkg {
	case "sim", "netem", "flow", "tcp", "bt", "ordset", "transport", "wp2p", "mobility":
		return pkg
	case "stats", "telemetry", "check", "trace", "metrics":
		return "obs"
	default: // scenario, experiments, runner, media, ...
		return "world"
	}
}

// bucketOfStack attributes one sample. frames are function names, leaf
// first. Kernel time (a syscall at the leaf) and collector time (any GC
// worker or assist frame) are split out first; otherwise the sample belongs
// to the package of its leaf-most in-module frame, and to runtime_other when
// no frame is in the module.
func bucketOfStack(frames []string) string {
	if len(frames) > 0 {
		leaf := frames[0]
		if strings.HasPrefix(leaf, "syscall.") || strings.Contains(leaf, "runtime/syscall.") ||
			strings.HasPrefix(leaf, "runtime.futex") || strings.HasPrefix(leaf, "runtime.epollwait") ||
			strings.HasPrefix(leaf, "runtime.usleep") {
			return "syscall"
		}
	}
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "runtime.gcBgMarkWorker"),
			strings.HasPrefix(f, "runtime.gcAssistAlloc"),
			strings.HasPrefix(f, "runtime.gcDrain"),
			strings.HasPrefix(f, "runtime.bgsweep"),
			strings.HasPrefix(f, "runtime.bgscavenge"),
			strings.HasPrefix(f, "runtime.gcStart"),
			strings.HasPrefix(f, "runtime.gcMarkTermination"):
			return "gc"
		}
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				rest = rest[:i]
			}
			return bucketOfPackage(rest)
		}
	}
	return "runtime_other"
}

// cpuShares decodes a CPU profile and returns each bucket's share of the
// sampled CPU time (summing to 1) and the number of samples.
func cpuShares(profile []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}

	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string table index
		strtab    []string
	)
	err = eachField(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var values []uint64
			if err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, data)
				case 2:
					values = appendVarints(values, v, data)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 { // CPU profiles carry [samples, cpu ns]
				s.value = int64(values[len(values)-1])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			if err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = funcs
		case 5: // Function
			var id, name uint64
			if err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strtab = append(strtab, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}

	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = 0
	}
	var total float64
	var frames []string
	for _, s := range samples {
		frames = frames[:0]
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strtab)) {
					frames = append(frames, strtab[idx])
				}
			}
		}
		shares[bucketOfStack(frames)] += float64(s.value)
		total += float64(s.value)
	}
	for b := range shares {
		shares[b] = ratio(shares[b], total) // all zero for a rep too short to be sampled
	}
	return shares, len(samples), nil
}

// eachField walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func eachField(msg []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			data = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: the packed form
// when data is set, otherwise the single value v.
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
