package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// SchemaVersion identifies the JSON layout WriteJSON emits and ReadResult
// accepts. Downstream plotting scripts key on it; bump it only with a
// deliberate format change (and regenerate the golden file in testdata/).
const SchemaVersion = "wp2p.result.v1"

// resultEnvelope wraps a Result with the schema tag, for WriteJSON and
// ReadResult alike: the document's shape is declared once, by the types that
// produce it. The schema field must marshal first so a human (or a stream
// parser) sees the version before anything else.
type resultEnvelope struct {
	Schema string `json:"schema"`
	*Result
}

// WriteJSON writes the result as indented wp2p.result.v1 JSON. The encoding
// is deterministic: field order is fixed by the struct, and every list
// inside (series, notes, stats sections) is already in a stable order.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(resultEnvelope{Schema: SchemaVersion, Result: r})
}

// ReadResult parses a wp2p.result.v1 document and checks every rule of the
// format, naming the first one broken: the schema tag, a non-empty id, at
// least one series, as many y as x values in each, and — when a stats
// snapshot is present — a positive run count, named counters, and histograms
// with one more bucket than bounds whose buckets sum to their count.
func ReadResult(r io.Reader) (*Result, error) {
	env := resultEnvelope{Result: &Result{}}
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("experiments: not valid JSON: %w", err)
	}
	if env.Schema != SchemaVersion {
		return nil, fmt.Errorf("experiments: schema %q, want %q", env.Schema, SchemaVersion)
	}
	if err := env.Result.validate(); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return env.Result, nil
}

func (r *Result) validate() error {
	if r.ID == "" {
		return fmt.Errorf("empty id")
	}
	if len(r.Series) == 0 {
		return fmt.Errorf("no series")
	}
	for _, s := range r.Series {
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("series %q has %d x values but %d y values", s.Label, len(s.X), len(s.Y))
		}
	}
	if r.Stats == nil {
		return nil
	}
	if r.Stats.Runs <= 0 {
		return fmt.Errorf("stats present but runs = %d", r.Stats.Runs)
	}
	for _, c := range r.Stats.Counters {
		if c.Name == "" {
			return fmt.Errorf("unnamed counter")
		}
	}
	for _, h := range r.Stats.Histograms {
		if len(h.Counts) != len(h.Bounds)+1 {
			return fmt.Errorf("histogram %q has %d bounds but %d buckets (want bounds+1)", h.Name, len(h.Bounds), len(h.Counts))
		}
		var sum int64
		for _, b := range h.Counts {
			sum += b
		}
		if sum != h.Count {
			return fmt.Errorf("histogram %q count %d != bucket sum %d", h.Name, h.Count, sum)
		}
	}
	return nil
}

// ExportJSON writes the result to <dir>/<id>.json, creating dir if needed.
// It returns the written path.
func (r *Result) ExportJSON(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, r.ID+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, f.Close()
}
