package exp

// This file is the scale benchmark behind `ssrsim -mode scale` and
// `make bench-scale`: it times the sharded parallel round executor against
// its own sequential (Workers=1) schedule on large node counts, verifies
// that both modes produce the identical final virtual graph, and renders
// the result both as a Report table and as the machine-readable
// ScaleResult that results/BENCH_scale.json records.
//
// The sequential comparator is the same sharded executor at Workers=1 —
// the same schedule, so the ratio isolates the worker pool. The speedup
// criterion (2x at the largest size) is only meaningful on a machine with
// enough cores; the JSON records NumCPU and GOMAXPROCS so a one-core CI
// run is an honest "not applicable" rather than a false failure.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/graph"
	"repro/internal/linearize"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// ScaleRun is one (size, variant) measurement.
type ScaleRun struct {
	N                   int     `json:"n"`
	Variant             string  `json:"variant"`
	Shards              int     `json:"shards"`
	Workers             int     `json:"workers"`
	SeqSeconds          float64 `json:"seq_seconds"`
	ParSeconds          float64 `json:"par_seconds"`
	Speedup             float64 `json:"speedup"`
	Rounds              int     `json:"rounds"`
	Converged           bool    `json:"converged"`
	FinalEdges          int     `json:"final_edges"`
	EqualGraphs         bool    `json:"equal_graphs"`
	InteriorActivations int64   `json:"interior_activations"`
	BoundaryActivations int64   `json:"boundary_activations"`
}

// ScaleCriteria is the acceptance envelope the JSON records.
type ScaleCriteria struct {
	TargetSpeedup float64 `json:"target_speedup"`
	AtN           int     `json:"at_n"`
	MinCores      int     `json:"min_cores"`
	// Met is whether any variant reached the target at AtN. Only
	// meaningful when the machine has at least MinCores cores; Note says
	// so when it does not.
	Met  bool   `json:"met"`
	Note string `json:"note,omitempty"`
}

// ScaleResult is the machine-readable scale-bench record.
type ScaleResult struct {
	Meta       benchfmt.Meta `json:"meta"`
	Bench      string        `json:"bench"`
	Topology   string        `json:"topology"`
	Seed       int64         `json:"seed"`
	NumCPU     int           `json:"num_cpu"`
	GoMaxProcs int           `json:"go_max_procs"`
	Runs       []ScaleRun    `json:"runs"`
	Criteria   ScaleCriteria `json:"criteria"`
}

// scaleRounds bounds each variant's run: the bench measures round
// throughput and equivalence, not convergence, and Pure needs Θ(n) rounds
// at these sizes. Quick mode (the CI smoke) tightens everything.
func scaleRounds(v linearize.Variant, quick bool) int {
	if quick {
		return 6
	}
	switch v {
	case linearize.Pure:
		return 16
	case linearize.Memory:
		return 48
	default:
		return 96
	}
}

// ScaleBench measures parallel vs sequential executor throughput at the
// given sizes. workers <= 0 means GOMAXPROCS; shards <= 0 auto-scales.
// The sequential comparator runs the same partition at Workers=1, so the
// speedup and the equivalence check isolate the worker pool.
func ScaleBench(sizes []int, topo graph.Topology, workers, shards int, seed int64, quick bool) (Report, ScaleResult) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	meta := benchfmt.NewMeta("scale")
	meta.Topology, meta.Seed, meta.Sizes = string(topo), seed, sizes
	meta.Workers, meta.Shards, meta.Quick = workers, shards, quick
	res := ScaleResult{
		Meta:       meta,
		Bench:      "scale",
		Topology:   string(topo),
		Seed:       seed,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	rep := Report{ID: "E15", Title: fmt.Sprintf("sharded executor scale bench on %s graphs (workers=%d)", topo, workers)}
	tab := metrics.NewTable("variant", "n", "shards", "seq s", "par s", "speedup", "rounds", "converged", "equal")

	maxN := 0
	for _, n := range sizes {
		if n > maxN {
			maxN = n
		}
		g := topoOrDie(topo, n, seed)
		for _, v := range linearize.Variants() {
			cfg := linearize.Config{
				Variant:   v,
				Scheduler: sim.Synchronous,
				MaxRounds: scaleRounds(v, quick),
				CloseRing: true,
				Executor:  sim.ExecutorConfig{Shards: shards},
			}
			cfg.Executor.Workers = 1
			seqStart := time.Now()
			seqStats, seqGraph := linearize.Run(g, cfg)
			seqDur := time.Since(seqStart)

			cfg.Executor.Workers = workers
			parStart := time.Now()
			parStats, parGraph := linearize.Run(g, cfg)
			parDur := time.Since(parStart)

			run := ScaleRun{
				N:                   n,
				Variant:             v.String(),
				Shards:              parStats.Par.Shards,
				Workers:             parStats.Par.Workers,
				SeqSeconds:          seqDur.Seconds(),
				ParSeconds:          parDur.Seconds(),
				Rounds:              parStats.Rounds,
				Converged:           parStats.Converged,
				FinalEdges:          parStats.FinalEdges,
				EqualGraphs:         parGraph.Equal(seqGraph) && parStats.Rounds == seqStats.Rounds,
				InteriorActivations: parStats.Par.InteriorActivations,
				BoundaryActivations: parStats.Par.BoundaryActivations,
			}
			if run.ParSeconds > 0 {
				run.Speedup = run.SeqSeconds / run.ParSeconds
			}
			res.Runs = append(res.Runs, run)
			tab.AddRow(run.Variant, n, run.Shards,
				fmt.Sprintf("%.3f", run.SeqSeconds), fmt.Sprintf("%.3f", run.ParSeconds),
				fmt.Sprintf("%.2fx", run.Speedup), run.Rounds, run.Converged, run.EqualGraphs)
		}
	}

	crit := ScaleCriteria{TargetSpeedup: 2.0, AtN: maxN, MinCores: 8}
	for _, r := range res.Runs {
		if r.N == maxN && r.Speedup >= crit.TargetSpeedup {
			crit.Met = true
		}
	}
	if res.NumCPU < crit.MinCores {
		crit.Note = fmt.Sprintf("criterion requires >= %d cores; this machine has %d, so the ratio mostly reflects scheduling overhead", crit.MinCores, res.NumCPU)
	}
	res.Criteria = crit
	rep.Table = tab
	for _, r := range res.Runs {
		if !r.EqualGraphs {
			rep.Notes = append(rep.Notes, fmt.Sprintf("EQUIVALENCE FAILURE: %s n=%d parallel != sequential", r.Variant, r.N))
		}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("num_cpu=%d gomaxprocs=%d workers=%d", res.NumCPU, res.GoMaxProcs, workers))
	if crit.Note != "" {
		rep.Notes = append(rep.Notes, crit.Note)
	}
	return rep, res
}

// WriteScaleJSON writes the scale record to path, creating the directory.
func WriteScaleJSON(path string, res ScaleResult) error {
	return writeBenchJSON(path, res)
}
