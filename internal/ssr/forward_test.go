package ssr

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/trace"
)

// hopRecorder keeps the physical hops of data frames, in send order.
type hopRecorder struct{ hops [][2]ids.ID }

func (h *hopRecorder) Emit(e trace.Event) {
	if e.Type == trace.EvMsgSend && e.Kind == KindData {
		h.hops = append(h.hops, [2]ids.ID{e.Node, e.Peer})
	}
}

// TestGreedyForwardingDeterministic: greedy data forwarding must not depend
// on map iteration order. Two clusters built from the same seed route the
// same pairs and must send every data frame over the same physical hops —
// ties between equally good cached candidates are broken by a total order.
func TestGreedyForwardingDeterministic(t *testing.T) {
	const n, seed, pairs = 160, 3, 400
	topo, err := graph.Generate(graph.TopoUnitDisk, n, graph.RandomIDs, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{CacheMode: cache.Bounded, CloseRing: true, BothDirections: true}
	nodes := topo.Nodes()
	run := func() ([][][2]ids.ID, []RouteResult) {
		net, c := bootstrapped(t, topo, cfg, seed, 1<<22)
		c.Stop()
		rec := &hopRecorder{}
		net.SetTracer(rec)
		r := rand.New(rand.NewSource(seed))
		var paths [][][2]ids.ID
		var results []RouteResult
		for i := 0; i < pairs; i++ {
			src, dst := nodes[r.Intn(n)], nodes[r.Intn(n)]
			if src == dst {
				continue
			}
			rec.hops = nil
			results = append(results, c.RouteData(src, dst, 8192))
			paths = append(paths, rec.hops)
		}
		return paths, results
	}
	pathsA, resA := run()
	pathsB, resB := run()
	for i := range resA {
		if !resA[i].Delivered {
			t.Fatalf("route %d %v->%v not delivered", i, resA[i].Src, resA[i].Dst)
		}
		if !reflect.DeepEqual(pathsA[i], pathsB[i]) || resA[i] != resB[i] {
			t.Fatalf("route %d %v->%v differs between same-seed runs:\n  %v\n  %v",
				i, resA[i].Src, resA[i].Dst, pathsA[i], pathsB[i])
		}
	}
}
