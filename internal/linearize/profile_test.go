package linearize

// Determinism regression suite for the performance profiler (DESIGN.md
// §12): profiling is a side channel, so a profiled run and an unprofiled
// run of the same seed must produce byte-identical final graphs, stats
// and — after stripping EvSpan — identical trace streams.

import (
	"testing"

	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/trace"
)

// sansSpans strips the profiler side channel from a trace stream.
func sansSpans(evs []trace.Event) []trace.Event {
	out := make([]trace.Event, 0, len(evs))
	for _, e := range evs {
		if e.Type != trace.EvSpan {
			out = append(out, e)
		}
	}
	return out
}

// TestProfiledRunIsSideEffectFree pins the profiler determinism contract
// for every variant on the sharded executor: same graph, same stats, and
// the profiled trace minus spans equals the unprofiled trace.
func TestProfiledRunIsSideEffectFree(t *testing.T) {
	g := randomConnected(400, 7)
	for _, v := range Variants() {
		for _, closeRing := range []bool{false, true} {
			cfg := Config{Variant: v, Scheduler: sim.Synchronous, CloseRing: closeRing,
				Executor: sim.ExecutorConfig{Workers: 2, Shards: 4}}
			plainStats, plainGraph, plainEvents := runOnce(g.Clone(), cfg)

			profCap := &captureTracer{}
			profCfg := cfg
			profCfg.Tracer = profCap
			profCfg.Prof = perf.New(profCap)
			e := NewEngine(g.Clone(), profCfg)
			profStats := e.Run()

			label := v.String()
			if closeRing {
				label += "/ring"
			}
			if !e.Graph().Equal(plainGraph) {
				t.Fatalf("%s: profiled final graph differs from unprofiled", label)
			}
			sameStats(t, label, profStats, plainStats)
			sameEvents(t, label, sansSpans(profCap.events), plainEvents)

			spans := 0
			for _, ev := range profCap.events {
				if ev.Type == trace.EvSpan {
					spans++
				}
			}
			if spans == 0 {
				t.Fatalf("%s: profiled run emitted no spans", label)
			}
		}
	}
}

// TestProfiledTraceFoldsIntoPerfReport pins the live-analysis path: a
// profiled sharded run teed into an Analysis yields a PerfReport with
// phase spans, per-shard attribution and the boundary-vs-interior
// activation split the ROADMAP asks for.
func TestProfiledTraceFoldsIntoPerfReport(t *testing.T) {
	g := randomConnected(400, 7)
	an := trace.NewAnalysis()
	cfg := Config{Variant: LSN, Scheduler: sim.Synchronous, CloseRing: true,
		Executor: sim.ExecutorConfig{Workers: 2, Shards: 4}, Tracer: an, Prof: perf.New(an)}
	st, _ := Run(g, cfg)
	if !st.Converged {
		t.Fatalf("run did not converge: %s", st)
	}

	p := an.Perf()
	if p.Empty() {
		t.Fatal("PerfReport is empty on a profiled run")
	}
	want := map[string]bool{"phase/begin": true, "phase/prepare": true,
		"phase/execute": true, "phase/finish": true, "phase/end": true}
	for _, s := range p.Spans {
		delete(want, s.Name)
		if s.Count <= 0 {
			t.Errorf("span %s has count %d", s.Name, s.Count)
		}
	}
	for name := range want {
		t.Errorf("missing span %s", name)
	}
	if len(p.Shards) != 4 {
		t.Fatalf("got %d shard rows, want 4", len(p.Shards))
	}
	acts := p.ActivationTotals()
	var total int64
	for _, phase := range []string{"interior", "boundary"} {
		total += acts[phase]
	}
	if got := st.Par.InteriorActivations + st.Par.BoundaryActivations; total != got {
		t.Fatalf("activation attribution %d != executor total %d", total, got)
	}
	if acts["boundary"] != st.Par.BoundaryActivations {
		t.Fatalf("boundary attribution %d != stats %d", acts["boundary"], st.Par.BoundaryActivations)
	}
	if c := p.AmdahlCeiling(); c < 1 {
		t.Fatalf("Amdahl ceiling %g < 1", c)
	}
	if s := p.SpeedupAt(4); s <= 0 || s > p.AmdahlCeiling()+1e-9 {
		t.Fatalf("SpeedupAt(4)=%g outside (0, ceiling=%g]", s, p.AmdahlCeiling())
	}
}
