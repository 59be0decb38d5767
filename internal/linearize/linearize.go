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
// synchronous round is Jacobi-style: every node reads the same snapshot and
// all additions apply together (additions commute). For the edge-removing
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
	// and the current virtual graph (read-only). Used for Figure 3 traces.
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
	// time, snapshot-rebuild cost, load imbalance and allocation deltas,
	// emitted as EvSpan events on a side channel (see package perf). Only
	// observed by the sharded executor (Executor.Workers > 0,
	// Synchronous); purely observational — the result is identical with or
	// without it.
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
type Engine struct {
	cfg      Config
	g        *graph.Graph
	nodes    []ids.ID // ascending
	stats    Stats
	curRound int // current round index, for event timestamps
}

// NewEngine initializes a run on the given virtual graph. Per §4 the
// virtual edge set is initialized from the physical one (E_v := E_p): pass
// the physical graph (it is cloned, not mutated).
func NewEngine(virtual *graph.Graph, cfg Config) *Engine {
	e := &Engine{
		cfg:   cfg,
		g:     virtual.Clone(),
		nodes: virtual.Nodes(),
	}
	e.stats.Variant = cfg.Variant
	e.stats.Scheduler = cfg.Scheduler
	e.observeDegrees(e.g)
	return e
}

// Graph exposes the current virtual graph (read-only by convention).
func (e *Engine) Graph() *graph.Graph { return e.g }

// Stats returns the accumulated run statistics.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.FinalEdges = e.g.NumEdges()
	return s
}

func (e *Engine) extremes() (min, max ids.ID, ok bool) {
	if len(e.nodes) < 3 {
		return 0, 0, false
	}
	return e.nodes[0], e.nodes[len(e.nodes)-1], true
}

// isWrapEdge reports whether {v,u} is the ring-closure edge, which is
// exempt from linearization and pruning.
func (e *Engine) isWrapEdge(v, u ids.ID) bool {
	if !e.cfg.CloseRing {
		return false
	}
	min, max, ok := e.extremes()
	if !ok {
		return false
	}
	return (v == min && u == max) || (v == max && u == min)
}

// Done reports whether the goal state is reached: the sorted line (Pure) or
// a superset of it (Memory, LSN — their fixed points retain extra shortcut
// edges by design), plus the wrap edge when CloseRing is set.
func (e *Engine) Done() bool {
	if e.cfg.CloseRing {
		if min, max, ok := e.extremes(); ok {
			if !e.g.HasEdge(min, max) {
				return false
			}
			if e.cfg.Variant == Pure {
				return e.g.IsSortedRing()
			}
			return e.g.SupersetOfLine()
		}
	}
	if e.cfg.Variant == Pure {
		return e.g.IsLinearized()
	}
	return e.g.SupersetOfLine()
}

// Run drives the engine to the goal or the round bound and returns stats.
func (e *Engine) Run() Stats {
	max := e.cfg.MaxRounds
	if max <= 0 {
		max = 16 * len(e.nodes)
		if max < 1024 {
			max = 1024
		}
	}
	if e.cfg.Executor.Workers > 0 && e.cfg.Scheduler == sim.Synchronous {
		return e.runSharded(max)
	}
	rng := rand.New(rand.NewSource(e.cfg.Seed))
	root := &opSink{e: e, direct: true}
	rr := &sim.RoundRunner{
		Scheduler: e.cfg.Scheduler,
		MaxRounds: max,
		NodeCount: func() int { return len(e.nodes) },
		Done:      e.Done,
	}
	if e.cfg.Scheduler == sim.Synchronous && e.cfg.Variant == Memory {
		var staged *graph.Graph
		rr.BeginRound = func(int) {
			staged = e.g.Clone()
		}
		rr.Activate = func(i int) bool {
			return e.proposeInto(staged, e.nodes[i], root)
		}
		rr.EndRound = func(round int) {
			e.g = staged
			e.observeDegrees(staged)
			if e.cfg.OnRound != nil {
				e.cfg.OnRound(round, e.g)
			}
		}
	} else {
		rr.Activate = func(i int) bool {
			return e.stepInPlace(e.nodes[i], root)
		}
		if e.cfg.OnRound != nil {
			rr.EndRound = func(round int) { e.cfg.OnRound(round, e.g) }
		}
	}
	// Observability wrapping is layered over whichever hooks the execution
	// model installed, so the round events bracket the model's own work.
	if e.cfg.Tracer != nil || e.cfg.Probe != nil {
		prevBegin, prevEnd := rr.BeginRound, rr.EndRound
		rr.BeginRound = func(round int) {
			e.curRound = round
			if e.cfg.Tracer != nil {
				e.cfg.Tracer.Emit(trace.Event{
					T: int64(round), Type: trace.EvRoundStart,
					Aux: e.cfg.Variant.String(), Value: float64(e.g.NumEdges()),
				})
			}
			if prevBegin != nil {
				prevBegin(round)
			}
		}
		rr.EndRound = func(round int) {
			if prevEnd != nil {
				prevEnd(round)
			}
			if e.cfg.Tracer != nil {
				e.cfg.Tracer.Emit(trace.Event{
					T: int64(round), Type: trace.EvRoundEnd,
					Aux: e.cfg.Variant.String(), Value: float64(e.g.NumEdges()),
				})
			}
			if e.cfg.Probe != nil {
				e.cfg.Probe.Observe(round, e.g)
			}
		}
	}
	res := rr.Run(rng)
	e.stats.Rounds = res.Rounds
	e.stats.Converged = res.Converged
	return e.Stats()
}

// lineNeighborsInto appends v's current neighbors in the line view — all
// neighbors except a wrap-edge partner — in ascending order to dst,
// reusing its capacity, and returns the extended slice. The per-round hot
// paths call this once per activation, so it must not allocate when dst's
// capacity suffices.
func (e *Engine) lineNeighborsInto(g *graph.Graph, v ids.ID, dst []ids.ID) []ids.ID {
	dst = g.NeighborsSortedInto(v, dst)
	out := dst[:0]
	for _, u := range dst {
		if !e.isWrapEdge(v, u) {
			out = append(out, u)
		}
	}
	return out
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
	nbrs  []ids.ID
	keep  []ids.ID
	chain []graph.Edge
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
func (s *opSink) observe(v ids.ID) {
	d := s.e.g.Degree(v)
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

func (s *opSink) traceEdge(t trace.EventType, u, v ids.ID) {
	if s.e.cfg.Tracer != nil {
		s.emit(trace.Event{T: int64(s.e.curRound), Type: t, Node: u, Peer: v})
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

// proposeInto applies v's linearization proposal (reading the snapshot e.g,
// writing adds into staged) for the synchronous model of the monotone
// variants (Memory, LSN). It reports whether v's proposal differs from the
// snapshot state.
func (e *Engine) proposeInto(staged *graph.Graph, v ids.ID, sink *opSink) bool {
	sink.nbrs = e.lineNeighborsInto(e.g, v, sink.nbrs[:0])
	sink.chain = appendChainEdges(sink.chain[:0], v, sink.nbrs)
	changed := false
	for _, c := range sink.chain {
		if staged.AddEdge(c.U, c.V) {
			sink.addEdge()
			sink.traceEdge(trace.EvEdgeAdd, c.U, c.V)
		}
		if !e.g.HasEdge(c.U, c.V) {
			changed = true
		}
	}
	if e.closeRingStep(e.g, staged, v, sink) {
		sink.addEdge()
		changed = true
	}
	return changed
}

// stepInPlace atomically applies v's operation on the live graph: add the
// chain edges, then delegate away the neighbors outside v's keep set (the
// chain has just connected each of them to a strictly closer node, so no
// removal loses information). It reports whether any edge changed. All side
// effects flow through sink; when run from a shard worker, every touched
// edge has both endpoints inside the shard's identifier interval (the
// interior contract of the parallel executor), so the graph mutation is
// single-writer even though shards run concurrently.
func (e *Engine) stepInPlace(v ids.ID, sink *opSink) bool {
	// The neighbor list is copied into the sink's scratch before any
	// mutation: the removals below would otherwise invalidate the
	// iteration. All per-activation buffers come from the sink, so the
	// steady-state hot path allocates nothing.
	sink.nbrs = e.lineNeighborsInto(e.g, v, sink.nbrs[:0])
	nbrs := sink.nbrs
	sink.chain = appendChainEdges(sink.chain[:0], v, nbrs)
	changed := false
	for _, c := range sink.chain {
		if e.g.AddEdge(c.U, c.V) {
			sink.addEdge()
			changed = true
			sink.observe(c.U)
			sink.observe(c.V)
			sink.traceEdge(trace.EvEdgeAdd, c.U, c.V)
		}
	}
	if e.cfg.Variant != Memory {
		sink.keep = e.keepFor(v, nbrs, sink.keep[:0])
		keepNbrs := sink.keep
		if e.cfg.Tracer != nil {
			sink.emit(trace.Event{
				T: int64(e.curRound), Type: trace.EvNodeActivate,
				Node: v, Aux: e.cfg.Variant.String(), Value: float64(len(keepNbrs)),
			})
		}
		sortIDs(keepNbrs)
		for _, w := range nbrs {
			if containsID(keepNbrs, w) {
				continue
			}
			if e.g.RemoveEdge(v, w) {
				sink.dropEdge()
				changed = true
				sink.traceEdge(trace.EvEdgeDelegate, v, w)
			}
		}
	}
	if e.closeRingStep(e.g, e.g, v, sink) {
		sink.addEdge()
		changed = true
	}
	return changed
}

// keepFor appends the neighbors v retains under the configured variant to
// dst (reusing its capacity): Pure keeps only the closest neighbor per
// side (Algorithm 1); LSN keeps the closest neighbor within each occupied
// exponential interval per side. nbrs is v's current sorted line
// neighborhood.
func (e *Engine) keepFor(v ids.ID, nbrs []ids.ID, dst []ids.ID) []ids.ID {
	if e.cfg.Variant == Pure {
		// nbrs ascending: closest left is the last one below v, closest
		// right the first one above.
		for i := len(nbrs) - 1; i >= 0; i-- {
			if nbrs[i] < v {
				dst = append(dst, nbrs[i])
				break
			}
		}
		for _, u := range nbrs {
			if u > v {
				dst = append(dst, u)
				break
			}
		}
		return dst
	}
	return e.keepSet(e.g, v, dst)
}

// closeRingStep abstracts §4's discovery messages: an extremal node whose
// line is in place establishes the wrap edge. snapshot is consulted for the
// precondition; the edge is written into dst.
func (e *Engine) closeRingStep(snapshot, dst *graph.Graph, v ids.ID, sink *opSink) bool {
	if !e.cfg.CloseRing {
		return false
	}
	min, max, ok := e.extremes()
	if !ok || (v != min && v != max) {
		return false
	}
	if snapshot.HasEdge(min, max) || !snapshot.SupersetOfLine() {
		return false
	}
	if !dst.AddEdge(min, max) {
		return false
	}
	sink.emit(trace.Event{
		T: int64(e.curRound), Type: trace.EvRingClosed, Node: min, Peer: max,
	})
	return true
}

func (e *Engine) observeDegrees(g *graph.Graph) {
	if d := g.MaxDegree(); d > e.stats.PeakDegree {
		e.stats.PeakDegree = d
	}
}

// keepSet appends the neighbors of v that v's LSN policy retains to dst
// (reusing its capacity): per direction, the closest neighbor within each
// occupied exponential interval (which automatically includes the overall
// closest neighbor on each side). Wrap-edge partners are always retained.
// The result is O(log |space|) in size.
func (e *Engine) keepSet(g *graph.Graph, v ids.ID, dst []ids.ID) []ids.ID {
	var best [2][ids.NumIntervals]ids.ID
	var has [2][ids.NumIntervals]bool
	out := dst
	for u := range g.Neighbors(v) {
		if e.isWrapEdge(v, u) {
			out = append(out, u)
			continue
		}
		d := 0
		if ids.DirOf(v, u) == ids.Right {
			d = 1
		}
		k := ids.IntervalIndex(ids.LineDist(v, u))
		if k < 0 {
			continue
		}
		if !has[d][k] {
			best[d][k] = u
			has[d][k] = true
			continue
		}
		inc := best[d][k]
		dU, dInc := ids.LineDist(v, u), ids.LineDist(v, inc)
		if dU < dInc || (dU == dInc && u < inc) {
			best[d][k] = u
		}
	}
	for d := 0; d < 2; d++ {
		for k := 0; k < ids.NumIntervals; k++ {
			if has[d][k] {
				out = append(out, best[d][k])
			}
		}
	}
	return out
}

// appendChainEdges appends the chain through v's sorted neighborhood to
// dst (reusing its capacity): with u_1 < … < u_k < v < u_{k+1} < … < u_n
// the edges {u_1,u_2}, …, {u_k,v}, {v,u_{k+1}}, …, {u_{n-1},u_n}
// (Algorithm 1). An empty neighborhood contributes nothing; a neighborhood
// entirely on one side still chains v to its closest member.
func appendChainEdges(dst []graph.Edge, v ids.ID, sortedNbrs []ids.ID) []graph.Edge {
	if len(sortedNbrs) == 0 {
		return dst
	}
	prev := v
	placed := false
	first := true
	for _, u := range sortedNbrs {
		if !placed && v < u {
			if !first {
				dst = append(dst, graph.NewEdge(prev, v))
			}
			prev, first, placed = v, false, true
		}
		if !first {
			dst = append(dst, graph.NewEdge(prev, u))
		}
		prev, first = u, false
	}
	if !placed {
		dst = append(dst, graph.NewEdge(prev, v))
	}
	return dst
}

// chainEdges is the allocating convenience form of appendChainEdges; the
// hot paths use the append form with pooled buffers.
func chainEdges(v ids.ID, sortedNbrs []ids.ID) []graph.Edge {
	return appendChainEdges(nil, v, sortedNbrs)
}

// sortIDs sorts a small identifier slice in place by insertion sort —
// allocation-free, unlike sort.Slice, and the keep sets it serves are
// O(log |space|) long.
func sortIDs(a []ids.ID) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// containsID reports whether x occurs in the ascending slice sorted.
func containsID(sorted []ids.ID, x ids.ID) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sorted[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] == x
}

// Run is the one-shot convenience entry point: linearize the virtual graph
// (initialized from the given physical graph per §4) and return the stats
// and the final virtual graph.
func Run(physical *graph.Graph, cfg Config) (Stats, *graph.Graph) {
	e := NewEngine(physical, cfg)
	stats := e.Run()
	return stats, e.Graph()
}
