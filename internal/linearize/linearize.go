// Package linearize implements the paper's primary contribution: graph
// linearization as a self-stabilizing bootstrap for the virtual ring of SSR
// and VRR.
//
// Three algorithm variants from §2 (after Onus, Richa, Scheideler) are
// provided:
//
//   - Pure linearization (Algorithm 1): every node v sorts its neighbors
//     u_1 < … < u_k < v < u_{k+1} < … < u_n and *replaces* its edges with the
//     consecutive chain {u_1,u_2}, …, {u_k,v}, {v,u_{k+1}}, …, {u_{n-1},u_n}.
//     Converges, but may need many rounds.
//   - Linearization with memory: the chain edges are *added* and nothing is
//     removed. Average convergence drops to polylogarithmic, at the price of
//     unbounded per-node state.
//   - Linearization with shortcut neighbors (LSN): like memory, but every
//     node keeps at most one neighbor per exponentially growing identifier
//     interval per direction (always including the closest neighbor on each
//     side). Polylogarithmic convergence with O(log |space|) state.
//
// Two execution disciplines are supported (package sim): the synchronous
// round model that the literature's bounds are stated in, and a random
// sequential daemon in which one node at a time atomically applies its
// operation (the classic central-daemon model). A self-stabilizing
// algorithm must converge under both; the ablation benches compare them.
//
// Two semantics subtleties, reproduced deliberately:
//
// First, execution atomicity. For Memory — which only ever adds edges — a
// synchronous round is Jacobi-style: every node reads the round-start graph
// and all additions apply together (additions commute). For the edge-removing
// variants (Pure, LSN), fully simultaneous replacement is known not to
// converge (crossing chords regenerate each other forever; cf. Gall, Jacob,
// Richa, Scheideler, "A Note on the Parallel Runtime of Self-Stabilizing
// Graph Linearization"). Onus et al.'s model assumes atomic operations, so
// Pure and LSN apply node operations atomically — in identifier order
// within a synchronous round (Gauss-Seidel), in random order under the
// sequential daemon. A round still activates every node exactly once, so
// round counts remain comparable across variants.
//
// Second, forgetting must be *delegation*, not deletion. All three variants
// share one step shape: add Algorithm 1's chain edges, then drop the edges
// to neighbors outside the variant's keep set (Pure keeps only the closest
// neighbor per side; LSN the closest per exponential interval per side;
// Memory everything). Because the chain has already connected every dropped
// neighbor w to its consecutive predecessor — a strictly closer node — each
// removal is a delegation: the edge migrates toward w's true position
// rather than vanishing. Deleting edges outright (e.g. "drop unless some
// endpoint retains it") admits wrong stable fixed points in which a node is
// pruned out of everyone's view and can never be re-introduced; this
// implementation hit exactly that on power-law graphs before adopting the
// delegation semantics.
//
// Every variant preserves connectedness of the virtual graph — the property
// that makes local consistency equal global consistency on the line (§3) —
// and the tests verify this invariant on every round.
//
// Ring closure (§4's clockwise/counter-clockwise discovery messages between
// the nodes with empty left/right neighbor sets) is modeled by the
// CloseRing option. The wrap edge it establishes connects the extremal
// nodes of the identifier space and is deliberately *exempt* from
// linearization and pruning: linearization works on the line view, where
// the leftmost node simply has an empty left set — the wrap edge is ring
// state, not a line neighbor.
//
// The message-level version of the protocol (§4's neighbor notification /
// acknowledgment / teardown exchange over source routes) lives in package
// ssr; this package is the transport-independent algorithmic core.
package linearize

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Variant selects the linearization algorithm.
type Variant int

const (
	// Pure is Algorithm 1: edges are replaced.
	Pure Variant = iota
	// Memory adds chain edges and never removes any.
	Memory
	// LSN adds chain edges and prunes to one neighbor per exponential
	// interval per direction (keeping the closest neighbor on each side).
	LSN
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case Pure:
		return "pure"
	case Memory:
		return "memory"
	case LSN:
		return "lsn"
	default:
		return "unknown"
	}
}

// Variants lists all algorithm variants, for sweeps.
func Variants() []Variant { return []Variant{Pure, Memory, LSN} }

// Config parameterizes a run.
type Config struct {
	Variant   Variant
	Scheduler sim.Scheduler
	// MaxRounds bounds the run (<=0: generous default scaled to n²).
	MaxRounds int
	// Seed drives the random-sequential daemon's activation order.
	Seed int64
	// CloseRing also establishes the wrap edge between the smallest and
	// largest node once the line is in place (§4's discovery step,
	// abstracted). The wrap edge is exempt from linearization.
	CloseRing bool
	// Executor configures the sharded parallel executor for the Synchronous
	// scheduler: pool width and partition size (see sim.ExecutorConfig).
	// Workers 0 keeps the single-threaded legacy executor; k >= 1 runs the
	// sharded executor with a pool of k goroutines (see parallel.go). The
	// final graph and stats are a pure function of the partition size —
	// identical for every Workers >= 1. Shards is part of the schedule:
	// Pure and LSN activate shard-interior nodes before cross-shard nodes,
	// so different partitions may take different (equally valid)
	// trajectories; Executor.Shards=1 reproduces the legacy executor's
	// schedule exactly, and Memory is Jacobi-style and matches the legacy
	// executor under every partition. The RandomSequential daemon is
	// inherently serial and ignores Executor entirely.
	Executor sim.ExecutorConfig
	// OnRound, if set, is called after every round with the round number
	// and the current virtual graph. The graph is built from the engine's
	// dense state for the call (shared with Probe), so setting OnRound
	// costs one graph build per round. Used for Figure 3 traces.
	OnRound func(round int, g *graph.Graph)
	// Tracer, if set, receives structured events: RoundStart/RoundEnd,
	// per-activation NodeActivate (with the keep-set size), per-change
	// EdgeAdd/EdgeDelegate, and RingClosed. Nil disables tracing at zero
	// cost; event timestamps are round indices.
	Tracer trace.Tracer
	// Probe, if set, observes the virtual graph after every round — the
	// invariant monitor that watches connectivity and left/right-set
	// cardinality round by round and records the distance-to-linearized
	// series (it also feeds Tracer when its own Tracer field is set).
	Probe *trace.Probe
	// Prof, if set, instruments the sharded executor with the
	// deterministic-safe performance profiler: per-phase and per-shard wall
	// time, load imbalance and allocation deltas, emitted as EvSpan events
	// on a side channel (see package perf). Only observed by the sharded
	// executor (Executor.Workers > 0, Synchronous); purely observational —
	// the result is identical with or without it.
	Prof *perf.Profiler
}

// Stats aggregates what a run did — the raw material for experiments E5,
// E6 and E8.
type Stats struct {
	Variant      Variant
	Scheduler    sim.Scheduler
	Rounds       int
	Converged    bool
	EdgesAdded   int64 // edge insertions ≈ neighbor notifications needed
	EdgesDropped int64 // edge removals ≈ teardowns needed
	PeakDegree   int   // maximum node degree ever observed (state bound)
	FinalEdges   int   // edges at the fixed point
	// Par describes the sharded executor's run shape when it ran
	// (Config.Executor.Workers > 0 under the synchronous scheduler); the zero value
	// means the single-threaded legacy executor.
	Par ParallelStats
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("%s/%s: rounds=%d converged=%v +%d -%d peakdeg=%d final=%d",
		s.Variant, s.Scheduler, s.Rounds, s.Converged,
		s.EdgesAdded, s.EdgesDropped, s.PeakDegree, s.FinalEdges)
}

// Engine runs a linearization variant over a virtual graph until the goal
// state. Create with NewEngine, drive with Run.
//
// The virtual graph lives in one dense adjacency (adj.go) for every
// executor. Identifiers appear only at the API edge: NewEngine converts the
// input once, and a *graph.Graph is built from the dense rows only when a
// caller asks for one (Graph, Run's result, OnRound, Probe).
type Engine struct {
	cfg      Config
	adj      adjacency
	stats    Stats
	curRound int // current round index, for event timestamps
}

// NewEngine initializes a run on the given virtual graph. Per §4 the
// virtual edge set is initialized from the physical one (E_v := E_p): pass
// the physical graph (it is converted, not mutated).
func NewEngine(virtual *graph.Graph, cfg Config) *Engine {
	e := &Engine{cfg: cfg, adj: newAdjacency(virtual)}
	e.stats.Variant = cfg.Variant
	e.stats.Scheduler = cfg.Scheduler
	e.stats.PeakDegree = e.adj.maxDegree()
	return e
}

// Graph returns the current virtual graph, built afresh from the engine's
// state on every call.
func (e *Engine) Graph() *graph.Graph { return e.adj.graph() }

// Stats returns the accumulated run statistics.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.FinalEdges = e.adj.numEdges()
	return s
}

// ringed reports whether ring closure applies: CloseRing over at least
// three nodes. The extremal nodes are then index 0 and last().
func (e *Engine) ringed() bool { return e.cfg.CloseRing && len(e.adj.nodes) >= 3 }

func (e *Engine) last() int32 { return int32(len(e.adj.nodes) - 1) }

// isWrapEdge reports whether {v,u} is the ring-closure edge, which is
// exempt from linearization and pruning.
func (e *Engine) isWrapEdge(v, u int32) bool {
	if !e.ringed() {
		return false
	}
	return (v == 0 && u == e.last()) || (v == e.last() && u == 0)
}

// ringDue reports whether the wrap edge is missing while the line is in
// place: the precondition of ring closure.
func (e *Engine) ringDue() bool {
	return e.ringed() && !e.adj.has(0, e.last()) && e.adj.supersetOfLine()
}

// Done reports whether the goal state is reached: the sorted line (Pure) or
// a superset of it (Memory, LSN — their fixed points retain extra shortcut
// edges by design), plus the wrap edge when CloseRing is set.
func (e *Engine) Done() bool {
	a := &e.adj
	if e.ringed() {
		if !a.has(0, e.last()) {
			return false
		}
		if e.cfg.Variant == Pure {
			return a.isSortedRing()
		}
		return a.supersetOfLine()
	}
	if e.cfg.Variant == Pure {
		return a.isLinearized()
	}
	return a.supersetOfLine()
}

// Run drives the engine to the goal or the round bound and returns stats.
func (e *Engine) Run() Stats {
	max := e.cfg.MaxRounds
	if max <= 0 {
		max = 16 * len(e.adj.nodes)
		if max < 1024 {
			max = 1024
		}
	}
	if e.cfg.Executor.Workers > 0 && e.cfg.Scheduler == sim.Synchronous {
		return e.runSharded(max)
	}
	rng := rand.New(rand.NewSource(e.cfg.Seed))
	root := &opSink{e: e, direct: true}
	var begin, end func(int)
	var activate func(i int) bool
	if e.cfg.Scheduler == sim.Synchronous && e.cfg.Variant == Memory {
		// Jacobi: every node proposes against the round-start graph, which
		// nothing writes until the proposals merge at the end of the round.
		var props []propEdge
		var due bool
		begin = func(int) {
			props = props[:0]
			due = e.ringDue()
		}
		activate = func(i int) bool {
			before := len(props)
			props = e.propose(int32(i), props, root)
			return len(props) > before || (i == 0 && due)
		}
		end = func(int) { e.mergeProposals([][]propEdge{props}, due, root) }
	} else {
		activate = func(i int) bool { return e.stepInPlace(int32(i), root) }
	}
	rr := &sim.RoundRunner{
		Scheduler: e.cfg.Scheduler,
		MaxRounds: max,
		NodeCount: func() int { return len(e.adj.nodes) },
		Activate:  activate,
		Done:      e.Done,
		BeginRound: func(round int) {
			e.beginRound(round)
			if begin != nil {
				begin(round)
			}
		},
		EndRound: func(round int) {
			if end != nil {
				end(round)
			}
			e.endRound(round, nil)
		},
	}
	res := rr.Run(rng)
	e.stats.Rounds = res.Rounds
	e.stats.Converged = res.Converged
	return e.Stats()
}

// beginRound stamps the round index and emits the round-start event.
func (e *Engine) beginRound(round int) {
	e.curRound = round
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.Emit(trace.Event{
			T: int64(round), Type: trace.EvRoundStart,
			Aux: e.cfg.Variant.String(), Value: float64(e.adj.numEdges()),
		})
	}
}

// endRound is every executor's sequential round tail: the OnRound hook,
// the executor's own accounting events (account, if set), the round-end
// event, then the probe. The graph OnRound and the probe receive is built
// once, and only when one of them is set.
func (e *Engine) endRound(round int, account func()) {
	var g *graph.Graph
	if e.cfg.OnRound != nil || e.cfg.Probe != nil {
		g = e.Graph()
	}
	if e.cfg.OnRound != nil {
		e.cfg.OnRound(round, g)
	}
	if e.cfg.Tracer != nil {
		if account != nil {
			account()
		}
		e.cfg.Tracer.Emit(trace.Event{
			T: int64(round), Type: trace.EvRoundEnd,
			Aux: e.cfg.Variant.String(), Value: float64(e.adj.numEdges()),
		})
	}
	if e.cfg.Probe != nil {
		e.cfg.Probe.Observe(round, g)
	}
}

// lineNeighborsInto appends v's current neighbors in the line view — all
// neighbors except a wrap-edge partner — in ascending order to dst,
// reusing its capacity, and returns the extended slice.
func (e *Engine) lineNeighborsInto(v int32, dst []int32) []int32 {
	for _, u := range e.adj.rows[v] {
		if !e.isWrapEdge(v, u) {
			dst = append(dst, u)
		}
	}
	return dst
}

// opSink collects the side effects of node operations — stat deltas and
// trace events. The legacy single-threaded executor uses one direct sink
// that writes straight into the engine's stats and tracer; the sharded
// executor gives each shard a buffering sink whose contents are merged in
// shard order during the sequential Finish phase, so the observable stream
// is deterministic regardless of worker scheduling.
type opSink struct {
	e       *Engine
	direct  bool // write through to e.stats / e.cfg.Tracer immediately
	added   int64
	dropped int64
	peak    int
	events  []trace.Event

	// Per-activation scratch buffers, reused across activations. A sink is
	// only ever driven by one goroutine at a time (per-shard sinks by their
	// shard's worker, the root sink by the sequential phases), so the
	// scratch needs no locking.
	nbrs  []int32
	keep  []int32
	chain [][2]int32
}

func (s *opSink) addEdge() {
	if s.direct {
		s.e.stats.EdgesAdded++
	} else {
		s.added++
	}
}

func (s *opSink) dropEdge() {
	if s.direct {
		s.e.stats.EdgesDropped++
	} else {
		s.dropped++
	}
}

// observe folds the current degree of a touched node into the peak-degree
// statistic — O(1) per touched endpoint instead of a full-graph rescan.
func (s *opSink) observe(v int32) {
	d := s.e.adj.degree(v)
	if s.direct {
		if d > s.e.stats.PeakDegree {
			s.e.stats.PeakDegree = d
		}
	} else if d > s.peak {
		s.peak = d
	}
}

func (s *opSink) emit(ev trace.Event) {
	if s.e.cfg.Tracer == nil {
		return
	}
	if s.direct {
		s.e.cfg.Tracer.Emit(ev)
		return
	}
	s.events = append(s.events, ev)
}

func (s *opSink) traceEdge(t trace.EventType, u, v int32) {
	if s.e.cfg.Tracer != nil {
		n := s.e.adj.nodes
		s.emit(trace.Event{T: int64(s.e.curRound), Type: t, Node: n[u], Peer: n[v]})
	}
}

func (s *opSink) reset() {
	s.added, s.dropped, s.peak = 0, 0, 0
	s.events = s.events[:0]
}

// flush merges a buffering sink into the engine's stats and tracer. Only
// called from sequential contexts (the Finish phase).
func (s *opSink) flush() {
	e := s.e
	e.stats.EdgesAdded += s.added
	e.stats.EdgesDropped += s.dropped
	if s.peak > e.stats.PeakDegree {
		e.stats.PeakDegree = s.peak
	}
	if e.cfg.Tracer != nil {
		for _, ev := range s.events {
			e.cfg.Tracer.Emit(ev)
		}
	}
	s.reset()
}

// propEdge is one staged Jacobi addition: the chain edge {u,v} proposed by
// node idx. Proposals merge in (idx, proposal) order.
type propEdge struct {
	idx, u, v int32
}

// propose appends v's Jacobi proposals for the synchronous Memory model to
// buf: the chain edges through v's line neighborhood that the graph lacks.
// It only reads the adjacency, so proposers may run concurrently while
// nothing writes; sink provides scratch only.
func (e *Engine) propose(v int32, buf []propEdge, sink *opSink) []propEdge {
	nbrs := e.adj.rows[v]
	if e.ringed() && (v == 0 || v == e.last()) {
		sink.nbrs = e.lineNeighborsInto(v, sink.nbrs[:0])
		nbrs = sink.nbrs
	}
	sink.chain = appendChainEdges(sink.chain[:0], v, nbrs)
	for _, c := range sink.chain {
		if !e.adj.has(c[0], c[1]) {
			buf = append(buf, propEdge{idx: v, u: c[0], v: c[1]})
		}
	}
	return buf
}

// mergeProposals applies a round's Jacobi proposals, given in global node
// order, to the graph. Duplicate proposals resolve to the first proposer.
// Ring closure, when due at round start, happens at the smallest node's
// slot: after its own proposals, before anyone else's. It reports whether
// the wrap edge was added.
func (e *Engine) mergeProposals(props [][]propEdge, due bool, sink *opSink) bool {
	closed, slotted := false, false
	closeRing := func() {
		slotted = true
		if !due || !e.adj.add(0, e.last()) {
			return
		}
		closed = true
		sink.addEdge()
		sink.observe(0)
		sink.observe(e.last())
		sink.emit(trace.Event{
			T: int64(e.curRound), Type: trace.EvRingClosed,
			Node: e.adj.nodes[0], Peer: e.adj.nodes[e.last()],
		})
	}
	for _, ps := range props {
		for _, pr := range ps {
			if !slotted && pr.idx > 0 {
				closeRing()
			}
			if e.adj.add(pr.u, pr.v) {
				sink.addEdge()
				sink.observe(pr.u)
				sink.observe(pr.v)
				sink.traceEdge(trace.EvEdgeAdd, pr.u, pr.v)
			}
		}
	}
	if !slotted {
		closeRing()
	}
	return closed
}

// stepInPlace atomically applies v's operation on the live graph: add the
// chain edges, then delegate away the neighbors outside v's keep set (the
// chain has just connected each of them to a strictly closer node, so no
// removal loses information). It reports whether any edge changed. All side
// effects flow through sink; when run from a shard worker, every touched
// edge has both endpoints inside the shard's interval (the interior
// contract of the parallel executor), so only rows of the shard's own
// nodes are written even though shards run concurrently.
func (e *Engine) stepInPlace(v int32, sink *opSink) bool {
	// The neighbor list is copied into the sink's scratch before any
	// mutation: the removals below would otherwise invalidate the
	// iteration. All per-activation buffers come from the sink, so an
	// activation allocates only when a row outgrows its capacity.
	sink.nbrs = e.lineNeighborsInto(v, sink.nbrs[:0])
	nbrs := sink.nbrs
	sink.chain = appendChainEdges(sink.chain[:0], v, nbrs)
	changed := false
	for _, c := range sink.chain {
		if e.adj.add(c[0], c[1]) {
			sink.addEdge()
			changed = true
			sink.observe(c[0])
			sink.observe(c[1])
			sink.traceEdge(trace.EvEdgeAdd, c[0], c[1])
		}
	}
	if e.cfg.Variant != Memory {
		sink.keep = e.keepFor(v, nbrs, sink.keep[:0])
		keep := sink.keep
		if e.cfg.Tracer != nil {
			sink.emit(trace.Event{
				T: int64(e.curRound), Type: trace.EvNodeActivate,
				Node: e.adj.nodes[v], Aux: e.cfg.Variant.String(), Value: float64(len(keep)),
			})
		}
		for _, w := range nbrs {
			if _, kept := slices.BinarySearch(keep, w); kept {
				continue
			}
			if e.adj.remove(v, w) {
				sink.dropEdge()
				changed = true
				sink.traceEdge(trace.EvEdgeDelegate, v, w)
			}
		}
	}
	if e.closeRingStep(v, sink) {
		sink.addEdge()
		changed = true
	}
	return changed
}

// keepFor appends the neighbors v retains under the configured variant to
// dst (reusing its capacity), ascending: Pure keeps only the closest
// neighbor per side (Algorithm 1); LSN keeps the closest neighbor within
// each occupied exponential interval per side. nbrs is v's current sorted
// line neighborhood.
func (e *Engine) keepFor(v int32, nbrs []int32, dst []int32) []int32 {
	if e.cfg.Variant == Pure {
		split, _ := slices.BinarySearch(nbrs, v)
		if split > 0 {
			dst = append(dst, nbrs[split-1])
		}
		if split < len(nbrs) {
			dst = append(dst, nbrs[split])
		}
		return dst
	}
	return e.keepSet(v, dst)
}

// closeRingStep abstracts §4's discovery messages: an extremal node whose
// line is in place establishes the wrap edge.
func (e *Engine) closeRingStep(v int32, sink *opSink) bool {
	if (v != 0 && v != e.last()) || !e.ringDue() {
		return false
	}
	e.adj.add(0, e.last())
	sink.emit(trace.Event{
		T: int64(e.curRound), Type: trace.EvRingClosed,
		Node: e.adj.nodes[0], Peer: e.adj.nodes[e.last()],
	})
	return true
}

// keepSet appends the neighbors of v that v's LSN policy retains to dst
// (reusing its capacity), ascending: per direction, the closest neighbor
// within each occupied exponential interval (which automatically includes
// the overall closest neighbor on each side). Wrap-edge partners are always
// retained. The result is O(log |space|) in size.
//
// The row is sorted, so scanning outward from v on each side meets the
// neighbors in order of increasing distance, and the first neighbor seen in
// an interval is that interval's closest.
func (e *Engine) keepSet(v int32, dst []int32) []int32 {
	row := e.adj.rows[v]
	id := e.adj.nodes[v]
	split, _ := slices.BinarySearch(row, v)
	start := len(dst)
	dst = e.appendClosestPerInterval(dst, v, id, row, split-1, -1)
	slices.Reverse(dst[start:])
	return e.appendClosestPerInterval(dst, v, id, row, split, 1)
}

// appendClosestPerInterval walks row from index k in direction step and
// appends the first neighbor of each new interval, and every wrap partner.
func (e *Engine) appendClosestPerInterval(dst []int32, v int32, id ids.ID, row []int32, k, step int) []int32 {
	last := -1
	for ; k >= 0 && k < len(row); k += step {
		u := row[k]
		if e.isWrapEdge(v, u) {
			dst = append(dst, u)
			continue
		}
		if iv := ids.IntervalIndex(ids.LineDist(id, e.adj.nodes[u])); iv != last {
			dst = append(dst, u)
			last = iv
		}
	}
	return dst
}

// appendChainEdges appends the chain through v's sorted neighborhood to
// dst (reusing its capacity): with u_1 < … < u_k < v < u_{k+1} < … < u_n
// the edges {u_1,u_2}, …, {u_k,v}, {v,u_{k+1}}, …, {u_{n-1},u_n}
// (Algorithm 1), each as an ascending pair. An empty neighborhood
// contributes nothing; a neighborhood entirely on one side still chains v
// to its closest member. The engine chains dense indices; the order, and
// hence the chain, is the same on identifiers.
func appendChainEdges[T int32 | ids.ID](dst [][2]T, v T, sortedNbrs []T) [][2]T {
	if len(sortedNbrs) == 0 {
		return dst
	}
	prev := v
	placed := false
	first := true
	for _, u := range sortedNbrs {
		if !placed && v < u {
			if !first {
				dst = append(dst, [2]T{prev, v})
			}
			prev, first, placed = v, false, true
		}
		if !first {
			dst = append(dst, [2]T{prev, u})
		}
		prev, first = u, false
	}
	if !placed {
		dst = append(dst, [2]T{prev, v})
	}
	return dst
}

// Run is the one-shot convenience entry point: linearize the virtual graph
// (initialized from the given physical graph per §4) and return the stats
// and the final virtual graph.
func Run(physical *graph.Graph, cfg Config) (Stats, *graph.Graph) {
	e := NewEngine(physical, cfg)
	stats := e.Run()
	return stats, e.Graph()
}
