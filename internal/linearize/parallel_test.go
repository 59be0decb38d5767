package linearize

// Seed-for-seed equivalence suite for the sharded parallel executor. The
// determinism contract has three layers, each pinned by a test:
//
//  1. For any fixed shard partition, the outcome is identical for every
//     worker count — including stats and the full trace stream.
//  2. Memory (Jacobi) is bit-identical to the legacy staged executor for
//     every shard count; Pure/LSN with Shards=1 are bit-identical to the
//     legacy Gauss-Seidel executor.
//  3. The worker pool is race-free (hammer test, effective under -race).

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
)

// captureTracer records every event for stream comparison.
type captureTracer struct{ events []trace.Event }

func (c *captureTracer) Emit(e trace.Event) { c.events = append(c.events, e) }

// sansShardEvents drops the executor-accounting events that only the
// sharded executor emits, leaving the protocol-level stream.
func sansShardEvents(evs []trace.Event) []trace.Event {
	out := make([]trace.Event, 0, len(evs))
	for _, e := range evs {
		if e.Type == trace.EvShardRound {
			continue
		}
		if e.Type == trace.EvGauge && len(e.Kind) >= 9 && e.Kind[:9] == "parallel/" {
			continue
		}
		out = append(out, e)
	}
	return out
}

func sameEvents(t *testing.T, label string, a, b []trace.Event) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: event counts differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: event %d differs:\n  %s\n  %s", label, i, a[i], b[i])
		}
	}
}

// sameStats compares run statistics ignoring the executor-shape field.
func sameStats(t *testing.T, label string, a, b Stats) {
	t.Helper()
	a.Par, b.Par = ParallelStats{}, ParallelStats{}
	if a != b {
		t.Fatalf("%s: stats differ:\n  %s\n  %s", label, a, b)
	}
}

func runOnce(g *graph.Graph, cfg Config) (Stats, *graph.Graph, []trace.Event) {
	cap := &captureTracer{}
	cfg.Tracer = cap
	e := NewEngine(g, cfg)
	st := e.Run()
	return st, e.Graph(), cap.events
}

// TestParallelIndependentOfWorkers pins layer 1: with the shard partition
// held fixed, every worker count produces the same final graph, the same
// stats and the same trace stream (shard accounting included).
func TestParallelIndependentOfWorkers(t *testing.T) {
	g := randomConnected(400, 7)
	for _, v := range Variants() {
		for _, closeRing := range []bool{false, true} {
			base := Config{Variant: v, Scheduler: sim.Synchronous, CloseRing: closeRing,
				Executor: sim.ExecutorConfig{Workers: 1, Shards: 8}}
			refStats, refGraph, refEvents := runOnce(g, base)
			for _, workers := range []int{2, 4, 8} {
				cfg := base
				cfg.Executor.Workers = workers
				st, fg, evs := runOnce(g, cfg)
				label := v.String()
				if closeRing {
					label += "/ring"
				}
				if !fg.Equal(refGraph) {
					t.Fatalf("%s workers=%d: final graph differs from workers=1", label, workers)
				}
				sameStats(t, label, st, refStats)
				sameEvents(t, label, refEvents, evs)
			}
		}
	}
}

// TestJacobiShardedMatchesLegacy pins layer 2 for Memory: the parallel
// Jacobi executor reproduces the legacy staged executor bit for bit —
// graph, stats and protocol-level event stream — for every shard count.
func TestJacobiShardedMatchesLegacy(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		g := randomConnected(300, seed)
		for _, closeRing := range []bool{false, true} {
			legacy := Config{Variant: Memory, Scheduler: sim.Synchronous, CloseRing: closeRing}
			lStats, lGraph, lEvents := runOnce(g, legacy)
			if !lStats.Converged {
				t.Fatalf("legacy memory run did not converge")
			}
			for _, shards := range []int{1, 3, 8, 64} {
				cfg := legacy
				cfg.Executor = sim.ExecutorConfig{Workers: 4, Shards: shards}
				st, fg, evs := runOnce(g, cfg)
				label := "memory"
				if closeRing {
					label += "/ring"
				}
				if !fg.Equal(lGraph) {
					t.Fatalf("%s shards=%d: final graph differs from legacy", label, shards)
				}
				sameStats(t, label, st, lStats)
				sameEvents(t, label, lEvents, sansShardEvents(evs))
			}
		}
	}
}

// TestAtomicShardOneMatchesLegacy pins layer 2 for Pure and LSN: a single
// shard degenerates to exactly the legacy Gauss-Seidel schedule.
func TestAtomicShardOneMatchesLegacy(t *testing.T) {
	for _, v := range []Variant{Pure, LSN} {
		g := randomConnected(200, 17)
		for _, closeRing := range []bool{false, true} {
			legacy := Config{Variant: v, Scheduler: sim.Synchronous, CloseRing: closeRing}
			lStats, lGraph, lEvents := runOnce(g, legacy)
			cfg := legacy
			cfg.Executor = sim.ExecutorConfig{Workers: 4, Shards: 1}
			st, fg, evs := runOnce(g, cfg)
			label := v.String()
			if closeRing {
				label += "/ring"
			}
			if !fg.Equal(lGraph) {
				t.Fatalf("%s: final graph differs from legacy", label)
			}
			sameStats(t, label, st, lStats)
			sameEvents(t, label, lEvents, sansShardEvents(evs))
		}
	}
}

// TestParallelConvergesAllVariants checks that the multi-shard schedule
// still reaches the variant's goal state and preserves the line invariant.
func TestParallelConvergesAllVariants(t *testing.T) {
	for _, v := range Variants() {
		for _, closeRing := range []bool{false, true} {
			g := randomConnected(250, 23)
			cfg := Config{Variant: v, Scheduler: sim.Synchronous, CloseRing: closeRing,
				Executor: sim.ExecutorConfig{Workers: 4, Shards: 6}}
			st, fg, _ := runOnce(g, cfg)
			if !st.Converged {
				t.Fatalf("%s close=%v: did not converge: %s", v, closeRing, st)
			}
			if !fg.SupersetOfLine() {
				t.Fatalf("%s close=%v: final graph misses line edges", v, closeRing)
			}
			if closeRing && !fg.HasEdge(fg.Nodes()[0], fg.Nodes()[fg.NumNodes()-1]) {
				t.Fatalf("%s: wrap edge missing", v)
			}
			if v == Pure && closeRing && !fg.IsSortedRing() {
				t.Fatalf("pure/ring must end on the sorted ring")
			}
			if st.Par.Workers == 0 || st.Par.Shards != 6 {
				t.Fatalf("%s: executor shape not recorded: %+v", v, st.Par)
			}
		}
	}
}

// TestParallelSequentialDaemonFallsBack: the random-sequential daemon is
// inherently serial; Workers must not change its behavior.
func TestParallelSequentialDaemonFallsBack(t *testing.T) {
	g := randomConnected(120, 5)
	ref := Config{Variant: LSN, Scheduler: sim.RandomSequential, Seed: 9}
	rStats, rGraph, rEvents := runOnce(g, ref)
	cfg := ref
	cfg.Executor = sim.ExecutorConfig{Workers: 8, Shards: 8}
	st, fg, evs := runOnce(g, cfg)
	if !fg.Equal(rGraph) {
		t.Fatal("sequential daemon result changed under Workers")
	}
	if st.Par != (ParallelStats{}) {
		t.Fatalf("sequential daemon must not record a parallel shape: %+v", st.Par)
	}
	sameStats(t, "daemon", st, rStats)
	sameEvents(t, "daemon", rEvents, evs)
}

// TestParallelEquivalence10k is the acceptance-criteria check at n=10_000:
// parallel and sequential (Workers=1) modes of the sharded executor produce
// bit-identical virtual graphs on all three variants. Rounds are capped —
// equivalence must hold round for round, convergence is not required here.
func TestParallelEquivalence10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node equivalence sweep skipped in -short mode")
	}
	r := rand.New(rand.NewSource(77))
	nodes := graph.MakeIDs(10_000, graph.RandomIDs, r)
	g := graph.RandomRegular(nodes, 4, r)
	for _, v := range Variants() {
		cfg := Config{Variant: v, Scheduler: sim.Synchronous, CloseRing: true,
			MaxRounds: 12, Executor: sim.ExecutorConfig{Workers: 1}}
		seqStats, seqGraph, _ := runOnce(g, cfg)
		cfg.Executor.Workers = 4
		parStats, parGraph, _ := runOnce(g, cfg)
		if !parGraph.Equal(seqGraph) {
			t.Fatalf("%s: 10k-node parallel run diverged from sequential", v)
		}
		sameStats(t, v.String(), parStats, seqStats)
	}
}

// TestParallelRaceHammer drives the worker pool hard on all variants; its
// value is under `go test -race` (the Makefile race target), where any
// violation of the shard-confinement discipline becomes a report.
func TestParallelRaceHammer(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	nodes := graph.MakeIDs(1200, graph.RandomIDs, r)
	g := graph.ErdosRenyi(nodes, 0.02, r)
	for _, v := range Variants() {
		for _, shards := range []int{4, 16} {
			cfg := Config{Variant: v, Scheduler: sim.Synchronous, CloseRing: true,
				Executor: sim.ExecutorConfig{Workers: 8, Shards: shards}, MaxRounds: 20}
			e := NewEngine(g, cfg)
			st := e.Run()
			if fg := e.Graph(); !fg.Connected() {
				t.Fatalf("%s shards=%d: connectivity lost (rounds=%d)", v, shards, st.Rounds)
			}
		}
	}
}
