package sim

// ExecutorConfig bundles the sharded round executor's knobs — the one
// struct new executor options are added to, so threading a knob through
// linearize.Config, exp.SetExecutor and the CLIs stays a one-field change.
type ExecutorConfig struct {
	// Workers is the pool width: 0 keeps the single-threaded legacy
	// executor (where the consumer supports one), k >= 1 runs the sharded
	// executor with k goroutines. Never part of the schedule.
	Workers int
	// Shards is the target partition size (<= 0: DefaultShards). Part of
	// the schedule: the executor splits the nodes into Partition(n, Shards).
	Shards int
}

// ClampShards is the single authority for bounding a shard count against a
// node count: at least one shard, and never more shards than nodes (for
// n = 0 a single empty shard). sim.Partition and DefaultShards both
// delegate here, so callers can no longer disagree about tiny n.
func ClampShards(n, k int) int {
	if k < 1 || n == 0 {
		return 1
	}
	if k > n {
		k = n
	}
	return k
}

// DefaultShards returns the shard count used when ExecutorConfig.Shards is
// unset: enough shards to keep every plausible worker pool busy, few enough
// that per-shard bookkeeping stays negligible, and — deliberately — a
// function of the node count only, never of the machine, so a seed's result
// is reproducible everywhere.
func DefaultShards(n int) int {
	s := n / 512
	if s > 256 {
		s = 256
	}
	return ClampShards(n, s)
}

// Partition splits n dense node indices into shardCount contiguous,
// near-equal shards (deterministically; shard i covers [i*n/k, (i+1)*n/k)).
// It is the sharded executor's one shard layout.
func Partition(n, shardCount int) []Shard {
	shardCount = ClampShards(n, shardCount)
	out := make([]Shard, 0, shardCount)
	for i := 0; i < shardCount; i++ {
		out = append(out, Shard{Index: i, Lo: i * n / shardCount, Hi: (i + 1) * n / shardCount})
	}
	return out
}
