package linearize

// This file is the sharded parallel round executor for the synchronous
// scheduler (Config.Executor.Workers >= 1), built on sim.ShardedRunner.
// The node universe is partitioned into contiguous index shards — index
// order is identifier order, so each shard is an identifier interval — and
// each variant maps onto the runner's phases according to its atomicity
// needs (see DESIGN.md §9 for the full argument):
//
//   - Memory is Jacobi-style: additions commute, so Prepare computes every
//     node's chain proposals in parallel, reading the live adjacency, which
//     nothing writes until Finish. Finish merges the proposals into the
//     adjacency in global identifier order. The merge order, the presence
//     pre-filter and the ring-closure slotting are arranged so that the
//     stats and trace stream are bit-identical to the legacy executor —
//     for every shard count.
//
//   - Pure and LSN need atomic node operations (fully simultaneous
//     replacement does not converge). Prepare classifies each node by its
//     footprint — the first and last entry of its sorted row, and itself —
//     as shard-interior (footprint inside the shard) or cross-shard.
//     Execute runs the interior nodes of each shard in identifier order,
//     concurrently across shards: an interior operation only touches edges
//     whose both endpoints lie inside its own shard, and interior
//     operations can only add shard-local neighbors, so the classification
//     stays valid for the whole phase and every adjacency row has a single
//     writer. The cross-shard nodes run sequentially in global identifier
//     order during Finish. With Shards=1 every node is interior and the
//     schedule is exactly the legacy Gauss-Seidel pass.
//
// The shard layout is fixed for the run: sim.Partition(n, Shards), near-
// equal contiguous index intervals. The result is a pure function of that
// schedule: the worker count only changes wall-clock time, never the
// outcome. Per-shard side effects are buffered in opSinks and merged in
// shard order, so even the trace stream is identical for every pool width.
//
// Ring closure reads global state (the whole line) and writes the wrap edge
// across shards, so under CloseRing with more than one shard the extremal
// nodes are forced onto the sequential boundary path.

import (
	"strconv"

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

// parExec holds the per-run state of the sharded executor.
type parExec struct {
	e     *Engine
	multi bool // more than one shard

	root      opSink   // sequential-phase sink (direct)
	sinks     []opSink // per-shard sinks: buffering for atomic Execute, scratch for Jacobi Prepare
	intCounts []int    // per-shard interior activations this round
	bndCounts []int    // per-shard sequential activations this round

	// Jacobi state (Memory)
	props [][]propEdge
	due   bool // ring closure due at round start

	// atomic state (Pure, LSN): dense indices per shard. boundary holds
	// the nodes that must run sequentially: cross-shard nodes and, under
	// CloseRing, the ring-closure extremal nodes.
	interior [][]int32
	boundary [][]int32
}

// runSharded drives the engine with the sharded executor and returns the
// final stats. Only called for the synchronous scheduler.
func (e *Engine) runSharded(maxRounds int) Stats {
	ex := e.cfg.Executor
	n := len(e.adj.nodes)
	shardCount := ex.Shards
	if shardCount <= 0 {
		shardCount = sim.DefaultShards(n)
	}
	shardCount = sim.ClampShards(n, shardCount)
	p := &parExec{
		e:         e,
		multi:     shardCount > 1,
		root:      opSink{e: e, direct: true},
		sinks:     make([]opSink, shardCount),
		intCounts: make([]int, shardCount),
		bndCounts: make([]int, shardCount),
	}
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
		p.interior = make([][]int32, shardCount)
		p.boundary = make([][]int32, shardCount)
		rr.BeginRound = e.beginRound
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

// endRound closes the round with the per-shard accounting events, then
// resets the counters.
func (p *parExec) endRound(round int) {
	p.e.endRound(round, func() {
		if p.e.cfg.Variant == Memory {
			p.emitShardRound("propose", p.intCounts)
		} else {
			p.emitShardRound("interior", p.intCounts)
			p.emitShardRound("boundary", p.bndCounts)
		}
	})
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

// jacobiBegin opens the round and latches the ring-closure precondition
// against the round-start graph.
func (p *parExec) jacobiBegin(round int) {
	p.e.beginRound(round)
	p.due = p.e.ringDue()
}

// jacobiPrepare computes the shard's chain proposals against the live
// adjacency, which no phase writes before Finish: read-only, embarrassingly
// parallel. Only edges absent from the graph are recorded, and a node
// counts as activated iff it proposed something new.
func (p *parExec) jacobiPrepare(_ int, s sim.Shard) int {
	buf := p.props[s.Index][:0]
	sink := &p.sinks[s.Index]
	changed := 0
	for i := s.Lo; i < s.Hi; i++ {
		before := len(buf)
		buf = p.e.propose(int32(i), buf, sink)
		if len(buf) > before {
			changed++
		}
	}
	p.props[s.Index] = buf
	p.intCounts[s.Index] = changed
	return changed
}

// jacobiFinish merges all shards' proposals in global identifier order —
// the legacy executor's exact write order, so duplicate proposals resolve
// to the same winner and the EdgesAdded count and EvEdgeAdd stream
// coincide. Returns the closure-only activation credit; proposal
// activations were counted in Prepare.
func (p *parExec) jacobiFinish(_ int) int {
	minProposed := len(p.props) > 0 && len(p.props[0]) > 0 && p.props[0][0].idx == 0
	if !p.e.mergeProposals(p.props, p.due, &p.root) {
		return 0
	}
	p.bndCounts[0]++
	if minProposed {
		return 0
	}
	return 1
}

// atomicPrepare classifies the shard's nodes by footprint: interior nodes
// run concurrently in Execute; the rest go to the sequential Finish pass.
// Under CloseRing with several shards the extremal nodes are always
// boundary — their ring-closure step reads and writes global state.
// Read-only; activations are counted by the later phases.
func (p *parExec) atomicPrepare(_ int, s sim.Shard) int {
	e := p.e
	inner := p.interior[s.Index][:0]
	outer := p.boundary[s.Index][:0]
	ringed := p.multi && e.ringed()
	for i := int32(s.Lo); i < int32(s.Hi); i++ {
		row := e.adj.rows[i]
		switch {
		case ringed && (i == 0 || i == e.last()):
			outer = append(outer, i)
		case len(row) == 0 || (row[0] >= int32(s.Lo) && row[len(row)-1] < int32(s.Hi)):
			inner = append(inner, i)
		default:
			outer = append(outer, i)
		}
	}
	p.interior[s.Index] = inner
	p.boundary[s.Index] = outer
	return 0
}

// atomicExecute runs the shard's interior nodes in identifier order. Every
// touched edge has both endpoints inside the shard, so concurrent shards
// never write the same adjacency row; side effects go into the shard's
// buffering sink.
func (p *parExec) atomicExecute(_ int, s sim.Shard) int {
	sink := &p.sinks[s.Index]
	changed := 0
	for _, i := range p.interior[s.Index] {
		if p.e.stepInPlace(i, sink) {
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
	for i := range p.sinks {
		p.sinks[i].flush()
	}
	act := 0
	for si := range p.boundary {
		changed := 0
		for _, i := range p.boundary[si] {
			if p.e.stepInPlace(i, &p.root) {
				changed++
			}
		}
		p.bndCounts[si] = changed
		act += changed
	}
	return act
}
