package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/phys"
	"repro/internal/rel"
	"repro/internal/sim"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// tiny shrinks a workload to a size the self-test runs in about a second;
// a run of tinyRun measures two instances.
func tiny(w workload) workload {
	w.instanceS = 1
	if w.ssr {
		w.n = 40
		if w.routes > 0 {
			w.routes = 40
		}
	} else {
		w.n = 300
	}
	return w
}

const tinyRun = 2 * time.Second

// TestEveryMetricPrinted runs each workload at tiny n, untraced and traced,
// on the default and the held-out seed, and checks that the last output
// line carries every metric BENCHMARK.json names, with its unit, and that
// every check passed.
func TestEveryMetricPrinted(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for _, fw := range f.Workloads {
		w, ok := findWorkload(fw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is unknown to the program", fw.Name)
		}
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			for _, traced := range []bool{false, true} {
				want := f.EndToEnd
				if traced {
					want = f.PerLayer
				}
				var out, errOut bytes.Buffer
				spans := filepath.Join(t.TempDir(), "spans.jsonl.gz")
				ok := bench(tiny(w), seed, tinyRun, traced, spans, &out, &errOut)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("%s seed %d traced=%v: last line is not the result: %v\n%s", w.name, seed, traced, err, out.String())
				}
				if !ok || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s seed %d traced=%v: checks failed\n%s%s", w.name, seed, traced, out.String(), errOut.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("%s traced=%v: metric %s printed as %+v (present %v), want unit %q", w.name, traced, m.Name, got, ok, m.Unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
					}
				}
				if traced {
					if _, err := os.Stat(spans); err != nil {
						t.Errorf("%s: spans not written: %v", w.name, err)
					}
				}
			}
		}
	}
}

// TestTracedTransportKeepsFailureDetector pins that wrapping the reliable
// transport keeps the capability ssr subscribes leases through, so the
// traced run takes the same protocol path as the untraced one.
func TestTracedTransportKeepsFailureDetector(t *testing.T) {
	g, err := graph.Generate(graph.TopoUnitDisk, 8, graph.RandomIDs, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	raw := phys.NewNetwork(sim.NewEngine(defaultSeed), g)
	if _, ok := newTracer().wrap(rel.New(raw, rel.DefaultConfig())).(phys.FailureDetector); !ok {
		t.Fatal("traced reliable transport lost phys.FailureDetector")
	}
	if _, ok := newTracer().wrap(raw).(phys.FailureDetector); ok {
		t.Fatal("traced raw transport gained phys.FailureDetector")
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--trace", "0"},
		{"--workload", "lin-lsn", "--trace", "2"},
		{"--workload", "lin-lsn", "--seconds", "-1", "--trace", "0"},
		{"--workload", "lin-lsn", "--seconds", "NaN", "--trace", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
