package linearize

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/sim"
)

// sameAsGraph fails unless a and g hold the same nodes and edges, row by
// row in ascending identifier order.
func sameAsGraph(t *testing.T, label string, a *adjacency, g *graph.Graph) {
	t.Helper()
	if a.numEdges() != g.NumEdges() {
		t.Fatalf("%s: %d edges, graph has %d", label, a.numEdges(), g.NumEdges())
	}
	var row []ids.ID
	for i, v := range a.nodes {
		row = row[:0]
		for _, j := range a.rows[i] {
			row = append(row, a.nodes[j])
		}
		if want := g.NeighborsSorted(v); !slices.Equal(row, want) || a.degree(int32(i)) != g.Degree(v) {
			t.Fatalf("%s: neighbors of %s = %v, graph has %v", label, v, row, want)
		}
	}
}

// TestAdjacencyMatchesGraph runs random edge operations — self-loops,
// duplicate adds and removals of absent edges included — on the dense
// adjacency and on a graph.Graph side by side, and requires the same
// answers and the same state after every operation.
func TestAdjacencyMatchesGraph(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(12)
		g := graph.NewWithNodes(graph.MakeIDs(n, graph.RandomIDs, r)...)
		for k := r.Intn(2 * n); k > 0; k-- {
			g.AddEdge(g.Nodes()[r.Intn(n)], g.Nodes()[r.Intn(n)])
		}
		a := newAdjacency(g)
		sameAsGraph(t, "initial", &a, g)
		for op := 0; op < 300; op++ {
			i, j := int32(r.Intn(n)), int32(r.Intn(n))
			u, v := a.nodes[i], a.nodes[j]
			label := fmt.Sprintf("trial %d op %d", trial, op)
			switch r.Intn(3) {
			case 0:
				if got, want := a.add(i, j), g.AddEdge(u, v); got != want {
					t.Fatalf("%s: add(%s,%s) = %v, graph says %v", label, u, v, got, want)
				}
			case 1:
				if got, want := a.remove(i, j), g.RemoveEdge(u, v); got != want {
					t.Fatalf("%s: remove(%s,%s) = %v, graph says %v", label, u, v, got, want)
				}
			default:
				if got, want := a.has(i, j), g.HasEdge(u, v); got != want {
					t.Fatalf("%s: has(%s,%s) = %v, graph says %v", label, u, v, got, want)
				}
			}
			sameAsGraph(t, label, &a, g)
			if a.supersetOfLine() != g.SupersetOfLine() || a.isLinearized() != g.IsLinearized() ||
				a.isSortedRing() != g.IsSortedRing() || a.maxDegree() != g.MaxDegree() {
				t.Fatalf("%s: shape predicates disagree with the graph", label)
			}
		}
		if !a.graph().Equal(g) {
			t.Fatalf("trial %d: materialized graph differs", trial)
		}
	}
}

// benchGraph is a random graph on n nodes with mean degree about deg, plus
// a list of probe pairs of which about half are edges.
func benchGraph(n, deg int) (*graph.Graph, [][2]ids.ID) {
	r := rand.New(rand.NewSource(1))
	nodes := graph.MakeIDs(n, graph.RandomIDs, r)
	g := graph.NewWithNodes(nodes...)
	for m := 0; m < n*deg/2; {
		if g.AddEdge(nodes[r.Intn(n)], nodes[r.Intn(n)]) {
			m++
		}
	}
	probes := make([][2]ids.ID, 4096)
	for k := range probes {
		u := nodes[r.Intn(n)]
		v := nodes[r.Intn(n)]
		if k%2 == 0 {
			nb := g.NeighborsSorted(u)
			v = nb[r.Intn(len(nb))]
		}
		probes[k] = [2]ids.ID{u, v}
	}
	return g, probes
}

// benchDegrees are the mean degrees of the per-op benchmarks: LSN's
// steady state (lin-lsn peaks near 80) and Memory's (lin-memory near 230).
var benchDegrees = []int{80, 230}

const benchNodes = 4096

// benchSink keeps the compiler from discarding a benchmarked result.
var benchSink int

// BenchmarkHasEdge is one membership test on the dense rows and on the
// map graph.
func BenchmarkHasEdge(b *testing.B) {
	for _, deg := range benchDegrees {
		g, probes := benchGraph(benchNodes, deg)
		a := newAdjacency(g)
		dense := make([][2]int32, len(probes))
		for k, p := range probes {
			dense[k] = [2]int32{a.index(p[0]), a.index(p[1])}
		}
		b.Run(fmt.Sprintf("dense/deg=%d", deg), func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				p := dense[i%len(dense)]
				if a.has(p[0], p[1]) {
					hits++
				}
			}
			benchSink = hits
		})
		b.Run(fmt.Sprintf("map/deg=%d", deg), func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				p := probes[i%len(probes)]
				if g.HasEdge(p[0], p[1]) {
					hits++
				}
			}
			benchSink = hits
		})
	}
}

// BenchmarkAddEdge adds an absent edge and removes it again, so degrees
// stay put: one op is one AddEdge plus one RemoveEdge.
func BenchmarkAddEdge(b *testing.B) {
	for _, deg := range benchDegrees {
		g, probes := benchGraph(benchNodes, deg)
		var absent [][2]ids.ID
		for _, p := range probes {
			if p[0] != p[1] && !g.HasEdge(p[0], p[1]) {
				absent = append(absent, p)
			}
		}
		a := newAdjacency(g)
		dense := make([][2]int32, len(absent))
		for k, p := range absent {
			dense[k] = [2]int32{a.index(p[0]), a.index(p[1])}
		}
		b.Run(fmt.Sprintf("dense/deg=%d", deg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := dense[i%len(dense)]
				a.add(p[0], p[1])
				a.remove(p[0], p[1])
			}
		})
		b.Run(fmt.Sprintf("map/deg=%d", deg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := absent[i%len(absent)]
				g.AddEdge(p[0], p[1])
				g.RemoveEdge(p[0], p[1])
			}
		})
	}
}

// BenchmarkNeighborsSorted copies one node's neighbors in ascending order
// into a reused buffer: a row copy on the dense form, an iteration plus a
// sort on the map graph.
func BenchmarkNeighborsSorted(b *testing.B) {
	for _, deg := range benchDegrees {
		g, _ := benchGraph(benchNodes, deg)
		a := newAdjacency(g)
		nodes := g.Nodes()
		b.Run(fmt.Sprintf("dense/deg=%d", deg), func(b *testing.B) {
			b.ReportAllocs()
			var buf []int32
			for i := 0; i < b.N; i++ {
				buf = append(buf[:0], a.rows[i%len(nodes)]...)
			}
			benchSink = len(buf)
		})
		b.Run(fmt.Sprintf("map/deg=%d", deg), func(b *testing.B) {
			b.ReportAllocs()
			var buf []ids.ID
			for i := 0; i < b.N; i++ {
				buf = g.NeighborsSortedInto(nodes[i%len(nodes)], buf[:0])
			}
			benchSink = len(buf)
		})
	}
}

// BenchmarkRun is one whole run in the repo benchmark's round-engine
// configuration: LSN on a 4-regular graph of 10k nodes and Memory on one of
// 20k, ring closure on, sharded executor with two workers.
func BenchmarkRun(b *testing.B) {
	for _, c := range []struct {
		v Variant
		n int
	}{{LSN, 10000}, {Memory, 20000}} {
		g, err := graph.Generate(graph.TopoRegular, c.n, graph.RandomIDs, 1)
		if err != nil {
			b.Fatal(err)
		}
		cfg := Config{Variant: c.v, Scheduler: sim.Synchronous, CloseRing: true,
			Executor: sim.ExecutorConfig{Workers: 2}}
		b.Run(fmt.Sprintf("%s/n=%d", c.v, c.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if st, _ := Run(g, cfg); !st.Converged {
					b.Fatal("no convergence")
				}
			}
		})
	}
}
