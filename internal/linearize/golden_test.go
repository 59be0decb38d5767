package linearize

// Golden pin of the engine's observable behaviour. The values below were
// produced by the map-based engine that preceded the dense adjacency, so
// this test is the one check that ties today's engine to that reference:
// the other equivalence tests compare one executor of the current engine
// with another. A change that moves any value here changed behaviour.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
)

// goldenResult is what one pinned run must reproduce.
type goldenResult struct {
	Rounds                 int
	Added, Dropped         int64
	PeakDegree, FinalEdges int
	Interior, Boundary     int64
	EdgesSHA               string // SHA-256 of the canonical Edges() list
}

func (g goldenResult) String() string {
	return fmt.Sprintf("{%d, %d, %d, %d, %d, %d, %d, %q}",
		g.Rounds, g.Added, g.Dropped, g.PeakDegree, g.FinalEdges, g.Interior, g.Boundary, g.EdgesSHA)
}

// goldenN is the pinned instance size: three default shards, so the middle
// shard has a boundary on both sides.
const goldenN = 1536

var goldenTopologies = []graph.Topology{graph.TopoRegular, graph.TopoPowerLaw, graph.TopoUnitDisk}

// goldenExecutors are the three execution paths: the legacy single-threaded
// round executor, the sharded executor and the random sequential daemon.
var goldenExecutors = []struct {
	name string
	sch  sim.Scheduler
	ex   sim.ExecutorConfig
}{
	{"legacy", sim.Synchronous, sim.ExecutorConfig{}},
	{"sharded", sim.Synchronous, sim.ExecutorConfig{Workers: 2}},
	{"randseq", sim.RandomSequential, sim.ExecutorConfig{}},
}

// goldenCloseRing alternates ring closure across topologies so both the
// line-only and the wrap-edge paths are pinned.
func goldenCloseRing(topo graph.Topology) bool { return topo != graph.TopoPowerLaw }

var golden = map[string]goldenResult{
	"pure/legacy/regular":     {1016, 74857, 76391, 26, 1536, 0, 0, "50be9ce4dde5332534332ed3c36eb0dcb5606885275ff30a78282ed1b3acb4fc"},
	"pure/sharded/regular":    {1016, 67021, 68555, 26, 1536, 36092, 22434, "50be9ce4dde5332534332ed3c36eb0dcb5606885275ff30a78282ed1b3acb4fc"},
	"pure/randseq/regular":    {228, 25409, 26943, 28, 1536, 0, 0, "50be9ce4dde5332534332ed3c36eb0dcb5606885275ff30a78282ed1b3acb4fc"},
	"memory/legacy/regular":   {7, 42755, 0, 98, 45825, 0, 0, "7ba1465d195f77bbd7f9eb719aaccc0b9dc9bbb29dac983168759a8dcc4f8e5a"},
	"memory/sharded/regular":  {7, 42755, 0, 98, 45825, 8044, 1, "7ba1465d195f77bbd7f9eb719aaccc0b9dc9bbb29dac983168759a8dcc4f8e5a"},
	"memory/randseq/regular":  {5, 36414, 0, 106, 39484, 0, 0, "0abe6834447d8da0225d98a4639853e6a4398e4b528960ac167d9ae6179db563"},
	"lsn/legacy/regular":      {13, 163171, 151890, 53, 14351, 0, 0, "67414660f9e64b7cf2da7b391966ac178ef5d40c751063b4c9989c71cbd1dfe5"},
	"lsn/sharded/regular":     {12, 154706, 143278, 57, 14498, 3395, 14842, "a71102dc55565c90eabf7a6f307d88b7b17f5f28add8e61cf68ce1596f48d8b8"},
	"lsn/randseq/regular":     {6, 78109, 67053, 66, 14126, 0, 0, "4ef8185eebb21cf1d0d98ce569f3b9071a0ff3fe6b798f1d71e017629428aff8"},
	"pure/legacy/powerlaw":    {1433, 91911, 94232, 414, 1535, 0, 0, "a1acc9b537c58ee738a2eca00558281e8c1d7256a30d063b3a0c228dd27b71af"},
	"pure/sharded/powerlaw":   {1433, 87007, 89328, 412, 1535, 47416, 34399, "a1acc9b537c58ee738a2eca00558281e8c1d7256a30d063b3a0c228dd27b71af"},
	"pure/randseq/powerlaw":   {812, 33818, 36139, 412, 1535, 0, 0, "a1acc9b537c58ee738a2eca00558281e8c1d7256a30d063b3a0c228dd27b71af"},
	"memory/legacy/powerlaw":  {9, 16276, 0, 594, 20132, 0, 0, "310b4abe67f4785a959b82c5e8b9e13928142c259a9e07dae47547f03c79b2bd"},
	"memory/sharded/powerlaw": {9, 16276, 0, 594, 20132, 5109, 0, "310b4abe67f4785a959b82c5e8b9e13928142c259a9e07dae47547f03c79b2bd"},
	"memory/randseq/powerlaw": {5, 13079, 0, 586, 16935, 0, 0, "051b0ed9b71f5836a088d37d3e18ca88583ab9dd711506a890281bb4db558fe1"},
	"lsn/legacy/powerlaw":     {14, 92017, 86371, 414, 9502, 0, 0, "b3ae70ad46321bc1364b368decd9b3dc54f0e06070112dcca241b966af9dd600"},
	"lsn/sharded/powerlaw":    {14, 91341, 85790, 412, 9407, 9619, 8570, "d9c5909ddfb77c85528fda29de9ed15b3a7f4d1c78bf8a1735e11c82a48c4664"},
	"lsn/randseq/powerlaw":    {8, 51381, 46437, 432, 8800, 0, 0, "7942e4458db69466e4a65bd7aa867f12f0754da05ba471c39a1342b44c3df7d7"},
	"pure/legacy/unitdisk":    {647, 14082, 30265, 47, 1536, 0, 0, "50be9ce4dde5332534332ed3c36eb0dcb5606885275ff30a78282ed1b3acb4fc"},
	"pure/sharded/unitdisk":   {647, 14082, 30265, 47, 1536, 4654, 1913, "50be9ce4dde5332534332ed3c36eb0dcb5606885275ff30a78282ed1b3acb4fc"},
	"pure/randseq/unitdisk":   {207, 20258, 36441, 47, 1536, 0, 0, "50be9ce4dde5332534332ed3c36eb0dcb5606885275ff30a78282ed1b3acb4fc"},
	"memory/legacy/unitdisk":  {10, 16583, 0, 77, 34302, 0, 0, "a3b99e80bacbc4a71d1ac2034a3cd74d66357608fa884f301bd04c02041237e3"},
	"memory/sharded/unitdisk": {10, 16583, 0, 77, 34302, 8228, 1, "a3b99e80bacbc4a71d1ac2034a3cd74d66357608fa884f301bd04c02041237e3"},
	"memory/randseq/unitdisk": {5, 15999, 0, 81, 33718, 0, 0, "e1f8795f5df63249393a09fe012ec80b23944a3fe3c1e68b48aa3f9eecbcd514"},
	"lsn/legacy/unitdisk":     {11, 142668, 145564, 57, 14823, 0, 0, "729582945591ad56a480d116ef4873d623c7172eb2147453ff5c5ab31f6046c6"},
	"lsn/sharded/unitdisk":    {11, 143623, 146414, 57, 14928, 2563, 14217, "fdd6e0f96b578e30016d308123691c65eeaf7777eb057d9fc9fa87fd4ba94c4b"},
	"lsn/randseq/unitdisk":    {6, 72357, 75581, 65, 14495, 0, 0, "a7d12fe23af915150056987713f478ae19b730cea670c667baf053a8d7edcaab"},
}

// goldenTraces pins the full event stream of one LSN and one Memory run.
var goldenTraces = map[string]string{
	"lsn/sharded/regular":     "be20cd0e8170c6714958ddd1e61061f2bfe6731ff1a9f12fa7b2c7ec320c05d6",
	"memory/sharded/unitdisk": "275d74381663efc67689f569e4e4b6ad860c9c16903b155cb271b24da96b2b65",
}

func goldenConfig(v Variant, topo graph.Topology, sch sim.Scheduler, ex sim.ExecutorConfig) Config {
	return Config{Variant: v, Scheduler: sch, Executor: ex, Seed: 1, CloseRing: goldenCloseRing(topo)}
}

func edgesSHA(g *graph.Graph) string {
	h := sha256.New()
	for _, e := range g.Edges() {
		fmt.Fprintf(h, "%d %d\n", e.U, e.V)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func eventsSHA(evs []trace.Event) string {
	h := sha256.New()
	for _, e := range evs {
		fmt.Fprintf(h, "%d %d %d %d %q %q %v\n", e.T, e.Type, e.Node, e.Peer, e.Kind, e.Aux, e.Value)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenRuns(t *testing.T) {
	for _, topo := range goldenTopologies {
		g, err := graph.Generate(topo, goldenN, graph.RandomIDs, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range Variants() {
			for _, x := range goldenExecutors {
				key := fmt.Sprintf("%s/%s/%s", v, x.name, topo)
				st, final := Run(g, goldenConfig(v, topo, x.sch, x.ex))
				if !st.Converged {
					t.Errorf("%s: did not converge in %d rounds", key, st.Rounds)
				}
				got := goldenResult{
					Rounds: st.Rounds, Added: st.EdgesAdded, Dropped: st.EdgesDropped,
					PeakDegree: st.PeakDegree, FinalEdges: st.FinalEdges,
					Interior: st.Par.InteriorActivations, Boundary: st.Par.BoundaryActivations,
					EdgesSHA: edgesSHA(final),
				}
				if want, ok := golden[key]; !ok || got != want {
					t.Errorf("%s:\n  got  %s\n  want %s\n  %q: %s,", key, got, want, key, got)
				}
			}
		}
	}
}

func TestGoldenTraces(t *testing.T) {
	for _, c := range []struct {
		v    Variant
		topo graph.Topology
	}{{LSN, graph.TopoRegular}, {Memory, graph.TopoUnitDisk}} {
		g, err := graph.Generate(c.topo, goldenN, graph.RandomIDs, 1)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("%s/sharded/%s", c.v, c.topo)
		_, _, evs := runOnce(g, goldenConfig(c.v, c.topo, sim.Synchronous, sim.ExecutorConfig{Workers: 2}))
		if got, want := eventsSHA(evs), goldenTraces[key]; got != want {
			t.Errorf("%s: %d events\n  got  %s\n  want %s\n  %q: %q,", key, len(evs), got, want, key, got)
		}
	}
}
