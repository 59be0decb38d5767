package sim

import (
	"reflect"
	"testing"
)

// TestClampShards pins the single clamp authority on the edge cases that
// used to be settled inconsistently across call sites.
func TestClampShards(t *testing.T) {
	cases := []struct {
		n, k, want int
	}{
		{0, 0, 1}, {0, 4, 1}, {0, -3, 1},
		{1, 0, 1}, {1, 1, 1}, {1, 8, 1},
		{2, 3, 2}, {2, 2, 2},
		{511, 256, 256}, {511, 600, 511},
		{512, 1, 1}, {512, 512, 512}, {512, 513, 512},
		{513, 513, 513}, {513, 1000, 513},
	}
	for _, c := range cases {
		if got := ClampShards(c.n, c.k); got != c.want {
			t.Errorf("ClampShards(%d, %d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
	for _, n := range []int{0, 1, 2, 511, 512, 513} {
		if got := DefaultShards(n); got != ClampShards(n, got) {
			t.Errorf("DefaultShards(%d) = %d violates its own clamp", n, got)
		}
	}
}

// TestContiguousMatchesPartition: the sharded runner lays out exactly
// Partition(n, Shards) — contiguous near-equal intervals — once per run and
// hands every round the same layout.
func TestContiguousMatchesPartition(t *testing.T) {
	for _, n := range []int{1, 10, 513, 4000} {
		for _, k := range []int{1, 4, 64} {
			var seen [][]Shard
			rounds := 0
			rr := &ShardedRunner{
				Workers:   1,
				Shards:    k,
				MaxRounds: 3,
				NodeCount: func() int { return n },
				Done:      func() bool { return false },
				BeginRound: func(int) {
					seen = append(seen, nil)
					rounds++
				},
				Prepare: func(_ int, s Shard) int {
					seen[rounds-1] = append(seen[rounds-1], s)
					return 0
				},
			}
			res := rr.Run()
			want := Partition(n, k)
			if res.Shards != len(want) {
				t.Fatalf("n=%d k=%d: result reports %d shards, want %d", n, k, res.Shards, len(want))
			}
			for r, got := range seen {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d k=%d round %d: layout %v, want %v", n, k, r, got, want)
				}
			}
		}
	}
}
