package linearize

// This file is the sharded parallel round executor for the synchronous
// scheduler (Config.Executor.Workers >= 1), built on sim.ShardedRunner.
// The node universe is partitioned into contiguous identifier-interval
// shards and each variant maps onto the runner's phases according to its
// atomicity needs (see DESIGN.md §9 for the full argument):
//
//   - Memory is Jacobi-style: additions commute, so Prepare computes every
//     node's chain proposals in parallel against an immutable CSR snapshot
//     of the round-start graph, and Finish merges them into the live graph
//     in global identifier order. The merge order, the snapshot-presence
//     pre-filter and the ring-closure slotting are arranged so that the
//     stats and trace stream are bit-identical to the legacy staged
//     executor — for every shard count.
//
//   - Pure and LSN need atomic node operations (fully simultaneous
//     replacement does not converge). Prepare classifies each node by its
//     identifier footprint — min/max over N(v) ∪ {v} — as shard-interior
//     (footprint inside the shard's identifier interval) or cross-shard.
//     Execute runs the interior nodes of each shard in identifier order,
//     concurrently across shards: an interior operation only touches edges
//     whose both endpoints lie inside its own shard, and interior
//     operations can only add shard-local neighbors, so the classification
//     stays valid for the whole phase and the adjacency structure is
//     single-writer per shard. The cross-shard nodes run sequentially in
//     global identifier order during Finish. With Shards=1 every node is
//     interior and the schedule is exactly the legacy Gauss-Seidel pass.
//
// The shard layout is fixed for the run: sim.Partition(n, Shards), near-
// equal contiguous identifier intervals. The result is a pure function of
// that schedule: the worker count only changes wall-clock time, never the
// outcome. Per-shard side effects are buffered in opSinks and merged in
// shard order, so even the trace stream is identical for every pool width.
//
// Ring closure reads global state (SupersetOfLine) and writes the wrap edge
// across shards, so under CloseRing with more than one shard the extremal
// nodes are forced onto the sequential boundary path.

import (
	"strconv"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ParallelStats describes the sharded executor's run shape.
type ParallelStats struct {
	Workers int // worker pool width actually used
	Shards  int // shard partition size actually used
	// InteriorActivations counts state-changing activations performed in
	// the parallel phases (Jacobi proposals, atomic interior steps);
	// BoundaryActivations counts the sequential share (ring closure during
	// the ordered merge, atomic boundary fallbacks). Their sum matches the
	// legacy executor's activation count when the schedules coincide.
	InteriorActivations int64
	BoundaryActivations int64
	// WaveActivations is always 0. It is kept because the repo benchmark
	// reads it.
	WaveActivations int64
}

// propEdge is one staged Jacobi addition: the chain edge {u,v} proposed by
// the node at dense index idx. Proposals are merged in (idx, proposal)
// order, which is exactly the legacy staged executor's write order.
type propEdge struct {
	idx  int32
	u, v ids.ID
}

// parExec holds the per-run state of the sharded executor.
type parExec struct {
	e       *Engine
	multi   bool // more than one shard
	workers int  // configured pool width (snapshot/delta parallelism)
	// extremal identifiers, for wrap-edge handling (valid when hasExt)
	min, max ids.ID
	hasExt   bool

	root      opSink   // sequential-phase sink (direct)
	sinks     []opSink // per-shard buffering sinks (atomic Execute)
	intCounts []int    // per-shard interior activations this round
	bndCounts []int    // per-shard sequential activations this round

	// Jacobi state (Memory)
	csr      *graph.CSR
	csrAdds  []graph.Edge // edges accepted since the last snapshot
	props    [][]propEdge
	preWrap  bool // wrap edge present at round start
	preSuper bool // SupersetOfLine held at round start

	// atomic state (Pure, LSN): dense indices per shard. boundary holds
	// the nodes that must run sequentially: cross-shard nodes and, under
	// CloseRing, the ring-closure extremal nodes.
	interior [][]int
	boundary [][]int
}

// runSharded drives the engine with the sharded executor and returns the
// final stats. Only called for the synchronous scheduler.
func (e *Engine) runSharded(maxRounds int) Stats {
	ex := e.cfg.Executor
	n := len(e.nodes)
	shardCount := ex.Shards
	if shardCount <= 0 {
		shardCount = sim.DefaultShards(n)
	}
	shardCount = sim.ClampShards(n, shardCount)
	p := &parExec{
		e:         e,
		multi:     shardCount > 1,
		workers:   ex.Workers,
		root:      opSink{e: e, direct: true},
		sinks:     make([]opSink, shardCount),
		intCounts: make([]int, shardCount),
		bndCounts: make([]int, shardCount),
	}
	p.min, p.max, p.hasExt = e.extremes()
	for i := range p.sinks {
		p.sinks[i].e = e
	}
	rr := &sim.ShardedRunner{
		Workers:   ex.Workers,
		Shards:    shardCount,
		MaxRounds: maxRounds,
		NodeCount: func() int { return n },
		Done:      e.Done,
		EndRound:  p.endRound,
	}
	if e.cfg.Prof != nil {
		// Guarded assignment: a nil *perf.Profiler must stay a nil
		// interface so the runner's prof != nil fast path holds.
		rr.Prof = e.cfg.Prof
	}
	if e.cfg.Variant == Memory {
		p.props = make([][]propEdge, shardCount)
		rr.BeginRound = p.jacobiBegin
		rr.Prepare = p.jacobiPrepare
		rr.Finish = p.jacobiFinish
	} else {
		p.interior = make([][]int, shardCount)
		p.boundary = make([][]int, shardCount)
		rr.BeginRound = p.beginRound
		rr.Prepare = p.atomicPrepare
		rr.Execute = p.atomicExecute
		rr.Finish = p.atomicFinish
	}
	res := rr.Run()
	e.stats.Rounds = res.Rounds
	e.stats.Converged = res.Converged
	e.stats.Par = ParallelStats{
		Workers:             res.Workers,
		Shards:              res.Shards,
		InteriorActivations: int64(res.ParallelActivations),
		BoundaryActivations: int64(res.Activations - res.ParallelActivations),
	}
	return e.Stats()
}

// beginRound stamps the round index and emits the round-start event, like
// the legacy executor's observability wrapper.
func (p *parExec) beginRound(round int) {
	e := p.e
	e.curRound = round
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.Emit(trace.Event{
			T: int64(round), Type: trace.EvRoundStart,
			Aux: e.cfg.Variant.String(), Value: float64(e.g.NumEdges()),
		})
	}
}

// endRound emits the per-shard accounting, runs the OnRound hook and closes
// the round — the sequential observability tail of every mode.
func (p *parExec) endRound(round int) {
	e := p.e
	if e.cfg.OnRound != nil {
		e.cfg.OnRound(round, e.g)
	}
	if e.cfg.Tracer != nil {
		if e.cfg.Variant == Memory {
			p.emitShardRound("propose", p.intCounts)
		} else {
			p.emitShardRound("interior", p.intCounts)
			p.emitShardRound("boundary", p.bndCounts)
		}
		e.cfg.Tracer.Emit(trace.Event{
			T: int64(round), Type: trace.EvRoundEnd,
			Aux: e.cfg.Variant.String(), Value: float64(e.g.NumEdges()),
		})
	}
	if e.cfg.Probe != nil {
		e.cfg.Probe.Observe(round, e.g)
	}
	for i := range p.intCounts {
		p.intCounts[i], p.bndCounts[i] = 0, 0
	}
}

// emitShardRound emits one EvShardRound per shard plus the aggregate gauge
// for one phase of the finished round.
func (p *parExec) emitShardRound(phase string, counts []int) {
	e := p.e
	total := 0
	for i, c := range counts {
		total += c
		e.cfg.Tracer.Emit(trace.Event{
			T: int64(e.curRound), Type: trace.EvShardRound,
			Kind: strconv.Itoa(i), Aux: phase, Value: float64(c),
		})
	}
	e.cfg.Tracer.Emit(trace.Event{
		T: int64(e.curRound), Type: trace.EvGauge,
		Kind: "parallel/" + phase + "-activations", Value: float64(total),
	})
}

// jacobiBegin snapshots the round-start graph as a CSR and latches the
// ring-closure preconditions against it, so the parallel Prepare phase and
// the ordered merge both read one frozen image. After the first full
// build, each round's snapshot is produced by replaying the previous
// round's accepted edges onto the previous snapshot (CSR.WithEdges) —
// Memory only ever adds edges, so the delta path is exact and avoids the
// per-round O(V+E) rebuild plus index re-hash the profile flagged.
func (p *parExec) jacobiBegin(round int) {
	p.beginRound(round)
	e := p.e
	t0 := e.cfg.Prof.Start()
	if p.csr == nil {
		p.csr = graph.NewCSRParallel(e.g, p.workers)
		e.cfg.Prof.End(round, "snapshot/rebuild", e.cfg.Variant.String(), t0)
	} else {
		p.csr = p.csr.WithEdges(p.csrAdds, p.workers)
		e.cfg.Prof.End(round, "snapshot/delta", e.cfg.Variant.String(), t0)
	}
	p.csrAdds = p.csrAdds[:0]
	p.preWrap, p.preSuper = false, false
	if e.cfg.CloseRing && p.hasExt {
		p.preWrap = p.csr.HasEdge(p.min, p.max)
		if !p.preWrap {
			p.preSuper = p.csr.SupersetOfLine()
		}
	}
}

// jacobiPrepare computes the shard's chain proposals against the CSR
// snapshot: read-only, embarrassingly parallel. Only edges absent from the
// snapshot are recorded — the same newness criterion the legacy staged
// executor applies — and a node counts as activated iff it proposed
// something new.
func (p *parExec) jacobiPrepare(_ int, s sim.Shard) int {
	e, c := p.e, p.csr
	buf := p.props[s.Index][:0]
	changed := 0
	for i := s.Lo; i < s.Hi; i++ {
		v := c.Node(i)
		nbrs := c.Row(i)
		if e.cfg.CloseRing && p.hasExt && (v == p.min || v == p.max) {
			// Line view: the wrap partner is ring state, not a neighbor.
			filtered := make([]ids.ID, 0, len(nbrs))
			for _, u := range nbrs {
				if !e.isWrapEdge(v, u) {
					filtered = append(filtered, u)
				}
			}
			nbrs = filtered
		}
		before := len(buf)
		for _, ce := range chainEdges(v, nbrs) {
			if !c.HasEdge(ce.U, ce.V) {
				buf = append(buf, propEdge{idx: int32(i), u: ce.U, v: ce.V})
			}
		}
		if len(buf) > before {
			changed++
		}
	}
	p.props[s.Index] = buf
	p.intCounts[s.Index] = changed
	return changed
}

// jacobiFinish merges all shards' proposals into the live graph in global
// identifier order — the legacy staged executor's exact write order, so
// duplicate proposals resolve to the same winner and the EdgesAdded count
// and EvEdgeAdd stream coincide. Ring closure is evaluated against the
// round-start preconditions at the smallest node's merge slot, where the
// legacy executor performs (and attributes) it. Returns the closure-only
// activation credit; proposal activations were counted in Prepare.
func (p *parExec) jacobiFinish(_ int) int {
	e := p.e
	root := &p.root
	fire := e.cfg.CloseRing && p.hasExt && !p.preWrap && p.preSuper
	minProposed := len(p.props) > 0 && len(p.props[0]) > 0 && p.props[0][0].idx == 0
	act := 0
	closedMin := false
	closeMin := func() {
		closedMin = true
		if !fire || !e.g.AddEdge(p.min, p.max) {
			return
		}
		p.csrAdds = append(p.csrAdds, graph.NewEdge(p.min, p.max))
		root.addEdge()
		root.observe(p.min)
		root.observe(p.max)
		root.emit(trace.Event{
			T: int64(e.curRound), Type: trace.EvRingClosed, Node: p.min, Peer: p.max,
		})
		if !minProposed {
			act++
		}
		p.bndCounts[0]++
	}
	for si := range p.props {
		for _, pr := range p.props[si] {
			if !closedMin && pr.idx > 0 {
				closeMin()
			}
			if e.g.AddEdge(pr.u, pr.v) {
				p.csrAdds = append(p.csrAdds, graph.NewEdge(pr.u, pr.v))
				root.addEdge()
				root.observe(pr.u)
				root.observe(pr.v)
				root.traceEdge(trace.EvEdgeAdd, pr.u, pr.v)
			}
		}
	}
	if !closedMin {
		closeMin()
	}
	return act
}

// atomicPrepare classifies the shard's nodes by identifier footprint:
// interior nodes run concurrently in Execute; the rest go to the
// sequential Finish pass. Under CloseRing with several shards the extremal
// nodes are always boundary — their ring-closure step reads and writes
// global state. Read-only; activations are counted by the later phases.
func (p *parExec) atomicPrepare(_ int, s sim.Shard) int {
	e := p.e
	inner := p.interior[s.Index][:0]
	outer := p.boundary[s.Index][:0]
	if s.Len() > 0 {
		idLo, idHi := e.nodes[s.Lo], e.nodes[s.Hi-1]
		for i := s.Lo; i < s.Hi; i++ {
			v := e.nodes[i]
			if p.multi && e.cfg.CloseRing && p.hasExt && (v == p.min || v == p.max) {
				outer = append(outer, i)
				continue
			}
			lo, hi := v, v
			for u := range e.g.Neighbors(v) {
				if u < lo {
					lo = u
				}
				if u > hi {
					hi = u
				}
			}
			if lo >= idLo && hi <= idHi {
				inner = append(inner, i)
			} else {
				outer = append(outer, i)
			}
		}
	}
	p.interior[s.Index] = inner
	p.boundary[s.Index] = outer
	return 0
}

// atomicExecute runs the shard's interior nodes in identifier order. Every
// touched edge has both endpoints inside the shard's identifier interval,
// so concurrent shards never write the same adjacency sets; side effects go
// into the shard's buffering sink.
func (p *parExec) atomicExecute(_ int, s sim.Shard) int {
	e := p.e
	sink := &p.sinks[s.Index]
	changed := 0
	for _, i := range p.interior[s.Index] {
		if e.stepInPlace(e.nodes[i], sink) {
			changed++
		}
	}
	p.intCounts[s.Index] = changed
	return changed
}

// atomicFinish merges the shard sinks in shard order (deterministic stats
// and trace stream for any worker count), then runs the boundary nodes
// sequentially in global identifier order.
func (p *parExec) atomicFinish(_ int) int {
	e := p.e
	for i := range p.sinks {
		p.sinks[i].flush()
	}
	act := 0
	for si := range p.boundary {
		changed := 0
		for _, i := range p.boundary[si] {
			if e.stepInPlace(e.nodes[i], &p.root) {
				changed++
			}
		}
		p.bndCounts[si] = changed
		act += changed
	}
	return act
}
