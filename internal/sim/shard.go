package sim

// This file adds the sharded parallel round executor. RoundRunner (rounds.go)
// activates every node on one goroutine; ShardedRunner partitions the node
// universe into contiguous identifier-interval shards and drives each round
// as up to three phases over a worker pool:
//
//	Prepare  — parallel, read-only against the round-start snapshot.
//	           Jacobi-style protocols compute their proposals here; atomic
//	           protocols classify nodes as shard-interior or boundary.
//	Execute  — parallel, writes confined to the shard's identifier range.
//	           Atomic protocols run their interior independent sets here.
//	Finish   — sequential. Jacobi protocols apply the deterministic ordered
//	           merge; atomic protocols run the boundary fallback in global
//	           identifier order.
//
// The runner owns the partition — one fixed Partition(n, Shards) layout per
// run — the pool, the phase barriers and the round
// loop; the protocol owns the semantics. The determinism contract is split
// accordingly: the runner guarantees that each shard's hooks run on exactly
// one goroutine and that Finish is exclusive, while the protocol must make
// cross-shard Prepare/Execute work commute (for linearization this follows
// from the identifier-interval footprint argument — see DESIGN.md §9). Under
// that contract the outcome is a pure function of the shard partition and
// is identical for every Workers value, including the sequential Workers=1
// mode that the equivalence tests pin.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ShardProfiler observes the phase structure of a sharded run. The runner
// calls every method from its sequential control goroutine: per-shard
// durations are recorded race-free during the parallel phases (one writer
// per shard slot) and reported via ShardTime in ascending shard order
// after the phase barrier, so even the observation order is deterministic.
// Implementations must only observe — feeding a measurement back into
// protocol state breaks the executor's determinism contract.
type ShardProfiler interface {
	// RoundStart opens a round, before BeginRound.
	RoundStart(round int)
	// PhaseTime reports one phase's wall time. Phases are "begin",
	// "prepare", "execute" (the parallel pair), "finish" and "end"; absent
	// hooks report nothing.
	PhaseTime(round int, phase string, d time.Duration)
	// ShardTime reports one shard's busy time inside a parallel phase.
	ShardTime(round int, phase string, shard int, d time.Duration)
	// RoundEnd closes a round, after EndRound.
	RoundEnd(round int)
}

// Shard is one contiguous slice of the dense node-index space [Lo, Hi).
// Because protocols expose nodes in ascending identifier order, a shard is
// also a contiguous identifier interval.
type Shard struct {
	Index  int
	Lo, Hi int
}

// Len returns the number of nodes in the shard.
func (s Shard) Len() int { return s.Hi - s.Lo }

// ShardedRunner drives a round-model protocol over an identifier-interval
// shard partition with a worker pool. Nil phase hooks are skipped. See the
// file comment for the phase semantics and the determinism contract.
type ShardedRunner struct {
	// Workers is the pool width; <= 0 means the GOMAXPROCS default. The
	// final state is independent of Workers; only wall-clock changes.
	Workers int
	// Shards is the partition size; <= 0 means DefaultShards(NodeCount()).
	// Unlike Workers, the shard partition is part of the schedule and
	// therefore of the (deterministic) result.
	Shards    int
	MaxRounds int // safety bound; <= 0 means 1<<20

	// NodeCount is read once, when the run lays out its shards.
	NodeCount func() int
	Done      func() bool
	// BeginRound runs sequentially before the phases (snapshot hook).
	BeginRound func(round int)
	// Prepare runs once per shard per round, in parallel; it must only read
	// protocol state. It returns the shard's activation count.
	Prepare func(round int, s Shard) int
	// Execute runs once per shard per round, in parallel; writes must stay
	// within the shard's identifier interval. Returns activations.
	Execute func(round int, s Shard) int
	// Finish runs sequentially after the parallel phases (ordered merge /
	// boundary fallback). Returns activations.
	Finish func(round int) int
	// EndRound runs sequentially after Finish (observability hook).
	EndRound func(round int)
	// Prof, when non-nil, receives phase and per-shard timings. Purely
	// observational: it never changes the schedule or the result.
	Prof ShardProfiler
}

// ShardResult summarizes a sharded run.
type ShardResult struct {
	Rounds      int
	Converged   bool
	Activations int // total state-changing activations
	// ParallelActivations counts the activations performed inside the
	// parallel phases; Activations minus this is the sequential share
	// (Jacobi merges and atomic boundary fallbacks).
	ParallelActivations int
	Workers, Shards     int
}

// effectiveWorkers resolves the pool width against the shard count.
func (rr *ShardedRunner) effectiveWorkers(shards int) int {
	w := rr.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > shards {
		w = shards
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runPhase applies fn to every shard, fanning out over the pool when it is
// wider than one. counts[i] receives shard i's return value, so the
// aggregate is deterministic regardless of scheduling. A non-nil durs
// additionally receives each shard's busy time in durs[i] — one writer per
// slot, so the parallel fan-out stays race-free.
func runPhase(fn func(Shard) int, shards []Shard, workers int, counts []int, durs []time.Duration) {
	if fn == nil {
		return
	}
	if durs != nil {
		inner := fn
		fn = func(s Shard) int {
			t0 := time.Now()
			c := inner(s)
			durs[s.Index] = time.Since(t0)
			return c
		}
	}
	if workers <= 1 || len(shards) == 1 {
		for _, s := range shards {
			counts[s.Index] = fn(s)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(shards) {
					return
				}
				counts[k] = fn(shards[k])
			}
		}()
	}
	wg.Wait()
}

// Run drives the protocol until Done or MaxRounds.
func (rr *ShardedRunner) Run() ShardResult {
	maxRounds := rr.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 1 << 20
	}
	var res ShardResult
	if rr.Done() {
		res.Converged = true
		return res
	}
	n := rr.NodeCount()
	shardCount := rr.Shards
	if shardCount <= 0 {
		shardCount = DefaultShards(n)
	}
	shards := Partition(n, shardCount)
	workers := rr.effectiveWorkers(len(shards))
	res.Workers, res.Shards = workers, len(shards)
	counts := make([]int, len(shards))
	prof := rr.Prof
	var durs []time.Duration
	if prof != nil {
		durs = make([]time.Duration, len(shards))
	}
	// timeSeq wraps one sequential hook with profiler timing; with no
	// profiler it costs one branch.
	timeSeq := func(round int, name string, fn func()) {
		if prof == nil {
			fn()
			return
		}
		t0 := time.Now()
		fn()
		prof.PhaseTime(round, name, time.Since(t0))
	}
	for round := 0; round < maxRounds; round++ {
		if prof != nil {
			prof.RoundStart(round)
		}
		if rr.BeginRound != nil {
			timeSeq(round, "begin", func() { rr.BeginRound(round) })
		}
		roundPar, roundSeq := 0, 0
		for _, ph := range []struct {
			name string
			fn   func(int, Shard) int
		}{{"prepare", rr.Prepare}, {"execute", rr.Execute}} {
			if ph.fn == nil {
				continue
			}
			fn := ph.fn
			for i := range counts {
				counts[i] = 0
			}
			var t0 time.Time
			if prof != nil {
				t0 = time.Now()
			}
			runPhase(func(s Shard) int { return fn(round, s) }, shards, workers, counts, durs)
			if prof != nil {
				prof.PhaseTime(round, ph.name, time.Since(t0))
				for _, s := range shards {
					prof.ShardTime(round, ph.name, s.Index, durs[s.Index])
				}
			}
			for _, c := range counts {
				roundPar += c
			}
		}
		if rr.Finish != nil {
			timeSeq(round, "finish", func() { roundSeq = rr.Finish(round) })
		}
		res.Activations += roundPar + roundSeq
		res.ParallelActivations += roundPar
		if rr.EndRound != nil {
			timeSeq(round, "end", func() { rr.EndRound(round) })
		}
		if prof != nil {
			prof.RoundEnd(round)
		}
		res.Rounds = round + 1
		if rr.Done() {
			res.Converged = true
			return res
		}
	}
	return res
}
