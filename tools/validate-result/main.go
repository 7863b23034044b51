// Command validate-result structurally validates wp2p.result.v1 JSON files
// exported by the -json flag of wp2p run, figures and scenario. It is the
// CI gate that keeps the exported schema honest beyond the byte-level golden
// test: every file must carry the expected schema tag, a non-empty id,
// well-formed series (equal x/y lengths), and an internally consistent stats
// snapshot (histogram counts equal to the sum of their bucket counts, bucket
// slices one longer than their bounds).
//
// Usage:
//
//	validate-result [-schema wp2p.result.v1] file.json...
//
// Exits non-zero on the first malformed file, naming the violated rule.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type result struct {
	Schema string `json:"schema"`
	ID     string `json:"id"`
	Title  string `json:"title"`
	Series []struct {
		Label string    `json:"label"`
		X     []float64 `json:"x"`
		Y     []float64 `json:"y"`
	} `json:"series"`
	Stats *struct {
		Runs     int64 `json:"runs"`
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
		Gauges []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"gauges"`
		Histograms []struct {
			Name   string  `json:"name"`
			Bounds []int64 `json:"bounds"`
			Counts []int64 `json:"counts"`
			Count  int64   `json:"count"`
		} `json:"histograms"`
	} `json:"stats"`
}

func validate(path, wantSchema string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var r result
	if err := json.Unmarshal(raw, &r); err != nil {
		return fmt.Errorf("%s: not valid JSON: %w", path, err)
	}
	if r.Schema != wantSchema {
		return fmt.Errorf("%s: schema = %q, want %q", path, r.Schema, wantSchema)
	}
	if r.ID == "" {
		return fmt.Errorf("%s: empty id", path)
	}
	if len(r.Series) == 0 {
		return fmt.Errorf("%s: no series", path)
	}
	for _, s := range r.Series {
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("%s: series %q has %d x values but %d y values",
				path, s.Label, len(s.X), len(s.Y))
		}
	}
	if r.Stats != nil {
		if r.Stats.Runs <= 0 {
			return fmt.Errorf("%s: stats present but runs = %d", path, r.Stats.Runs)
		}
		for _, c := range r.Stats.Counters {
			if c.Name == "" {
				return fmt.Errorf("%s: unnamed counter", path)
			}
		}
		for _, h := range r.Stats.Histograms {
			if len(h.Counts) != len(h.Bounds)+1 {
				return fmt.Errorf("%s: histogram %q has %d bounds but %d buckets (want bounds+1)",
					path, h.Name, len(h.Bounds), len(h.Counts))
			}
			var sum int64
			for _, b := range h.Counts {
				sum += b
			}
			if sum != h.Count {
				return fmt.Errorf("%s: histogram %q count %d != bucket sum %d",
					path, h.Name, h.Count, sum)
			}
		}
	}
	return nil
}

func main() {
	schema := flag.String("schema", "wp2p.result.v1", "required schema tag")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: validate-result [-schema tag] file.json...")
		os.Exit(2)
	}
	for _, path := range flag.Args() {
		if err := validate(path, *schema); err != nil {
			fmt.Fprintf(os.Stderr, "validate-result: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("ok %s\n", path)
	}
}
