// Package benchfmt defines the shared shape of the BENCH_*.json artifacts:
// a metadata header stamped into every bench result so tooling can tell
// what configuration produced a file, plus a structural differ that
// compares two results leaf by leaf — the engine behind `tracectl bench
// compare` and the CI perf gate.
//
// The header exists so comparisons can *refuse* to run across mismatched
// configurations: diffing an n=10k run against an n=100k run, or a lossy
// transport against a perfect one, produces numbers that look like
// regressions but are noise. CompatibleWith is strict by design; the CLI
// exposes a -force escape hatch.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
)

// SchemaVersion is the current header schema. Bump on incompatible
// changes to the bench result shapes.
const SchemaVersion = 1

// Meta is the configuration header of one bench artifact. Zero-valued
// fields mean "not applicable to this bench" (e.g. a single-size bench
// has N set and Sizes empty; a sweep has the reverse) and only compare
// against the other file's same field.
type Meta struct {
	Schema    int    `json:"schema"`
	Bench     string `json:"bench"`
	Topology  string `json:"topology,omitempty"`
	Seed      int64  `json:"seed"`
	N         int    `json:"n,omitempty"`
	Sizes     []int  `json:"sizes,omitempty"`
	Workers   int    `json:"workers,omitempty"`
	Shards    int    `json:"shards,omitempty"`
	Transport string `json:"transport,omitempty"`
	Quick     bool   `json:"quick,omitempty"`
}

// NewMeta returns a header for the named bench at the current schema.
func NewMeta(bench string) Meta {
	return Meta{Schema: SchemaVersion, Bench: bench}
}

// CompatibleWith reports why two headers must not be compared, or nil.
// Every populated field has to match: same bench, same topology, same
// seed, same sizes, same executor shape, same transport.
func (m Meta) CompatibleWith(o Meta) error {
	var bad []string
	check := func(field string, a, b any) {
		if !equalField(a, b) {
			bad = append(bad, fmt.Sprintf("%s %v vs %v", field, a, b))
		}
	}
	check("schema", m.Schema, o.Schema)
	check("bench", m.Bench, o.Bench)
	check("topology", m.Topology, o.Topology)
	check("seed", m.Seed, o.Seed)
	check("n", m.N, o.N)
	check("sizes", m.Sizes, o.Sizes)
	check("workers", m.Workers, o.Workers)
	check("shards", m.Shards, o.Shards)
	check("transport", m.Transport, o.Transport)
	check("quick", m.Quick, o.Quick)
	if len(bad) > 0 {
		return fmt.Errorf("incompatible bench configs: %s", strings.Join(bad, "; "))
	}
	return nil
}

func equalField(a, b any) bool {
	if as, ok := a.([]int); ok {
		bs := b.([]int)
		if len(as) != len(bs) {
			return false
		}
		for i := range as {
			if as[i] != bs[i] {
				return false
			}
		}
		return true
	}
	return a == b
}

// File is one loaded bench artifact: its header plus the full decoded
// JSON document for structural comparison.
type File struct {
	Meta Meta
	Doc  map[string]any
}

// Load reads and decodes one BENCH_*.json. A file without a meta header
// (pre-schema artifacts) loads with a zero Meta; callers decide whether
// to refuse it.
func Load(path string) (File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return File{}, fmt.Errorf("%s: %w", path, err)
	}
	var hdr struct {
		Meta Meta `json:"meta"`
	}
	if err := json.Unmarshal(raw, &hdr); err != nil {
		return File{}, fmt.Errorf("%s: meta header: %w", path, err)
	}
	return File{Meta: hdr.Meta, Doc: doc}, nil
}

// Delta is one numeric leaf present in both documents. Booleans compare
// as 0/1, so a converged->not-converged flip shows up as a full-scale
// delta.
type Delta struct {
	Path string  // dotted JSON path, e.g. "runs[2].speedup"
	Old  float64 // value in the baseline document
	New  float64 // value in the candidate document
	// Rel is |new-old| normalized by max(|old|, 1e-12), signed by the
	// direction of change (positive = increased).
	Rel float64
}

// Changed reports whether the leaf moved at all.
func (d Delta) Changed() bool { return d.Old != d.New }

// Diff compares two decoded documents leaf by leaf and returns every
// numeric/boolean leaf they share, sorted by path, plus the paths present
// in only one of them ("meta" subtrees are skipped — CompatibleWith
// already adjudicated them).
func Diff(old, new map[string]any) (deltas []Delta, onlyOld, onlyNew []string) {
	ol := map[string]float64{}
	nl := map[string]float64{}
	collect("", old, ol)
	collect("", new, nl)
	for path, ov := range ol {
		nv, ok := nl[path]
		if !ok {
			onlyOld = append(onlyOld, path)
			continue
		}
		d := Delta{Path: path, Old: ov, New: nv}
		diff := nv - ov
		denom := math.Abs(ov)
		if denom < 1e-12 {
			denom = 1e-12
		}
		if diff != 0 {
			d.Rel = diff / denom
		}
		deltas = append(deltas, d)
	}
	for path := range nl {
		if _, ok := ol[path]; !ok {
			onlyNew = append(onlyNew, path)
		}
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Path < deltas[j].Path })
	sort.Strings(onlyOld)
	sort.Strings(onlyNew)
	return deltas, onlyOld, onlyNew
}

// collect flattens numeric and boolean leaves into path -> value.
func collect(prefix string, v any, out map[string]float64) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			if prefix == "" && k == "meta" {
				continue
			}
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			collect(p, child, out)
		}
	case []any:
		for i, child := range x {
			collect(fmt.Sprintf("%s[%d]", prefix, i), child, out)
		}
	case float64:
		out[prefix] = x
	case bool:
		if x {
			out[prefix] = 1
		} else {
			out[prefix] = 0
		}
	}
}

// DefaultGate matches the machine-independent result fields the CI perf
// gate judges: round counts, activation totals and the boundary share.
// Wall-clock fields (seconds, speedups) vary with the host and stay
// informational.
const DefaultGate = `(^|\.)(rounds|interior_activations|boundary_activations|activations|boundary_share|converged|equal_graphs|final_edges)$`

// Regressions filters deltas down to the ones the gate fails on: path
// matches the gate pattern and the relative change exceeds tol in
// magnitude. A nil gate matches every path.
func Regressions(deltas []Delta, gate *regexp.Regexp, tol float64) []Delta {
	var out []Delta
	for _, d := range deltas {
		if !d.Changed() {
			continue
		}
		if gate != nil && !gate.MatchString(d.Path) {
			continue
		}
		if math.Abs(d.Rel) > tol {
			out = append(out, d)
		}
	}
	return out
}
