package db

import (
	"fmt"
	"testing"
)

// TestShardOfIsPure pins the shard hash to fixed outputs: the mapping
// must be identical in every process (WAL contents and the golden chaos
// traces depend on it), so changing it is a deliberate diff here.
func TestShardOfIsPure(t *testing.T) {
	for key, want := range map[string]int{
		"":              5,
		"node-0000":     0,
		"node-1999":     4,
		"job-000001":    8,
		"job-42":        5,
		"ws-1":          5,
		"gpu-server-07": 11,
	} {
		if got := shardOf(key, DefaultShards); got != want {
			t.Errorf("shardOf(%q, %d) = %d, want %d", key, DefaultShards, got, want)
		}
	}
	if got := shardOf("node-0000", 1); got != 0 {
		t.Errorf("single shard index = %d", got)
	}
}

// TestShardOfSpread: sequential node ids — what fleets produce — must
// land evenly, or one shard lock carries the beat path.
func TestShardOfSpread(t *testing.T) {
	const keys = 2000
	for _, format := range []string{"node-%04d"} {
		var counts [DefaultShards]int
		for i := 0; i < keys; i++ {
			counts[shardOf(fmt.Sprintf(format, i), DefaultShards)]++
		}
		mean := float64(keys) / DefaultShards
		for s, n := range counts {
			if f := float64(n); f < 0.75*mean || f > 1.25*mean {
				t.Errorf("%s: shard %d holds %d keys, mean %.0f (±25%%): %v", format, s, n, mean, counts)
			}
		}
	}
}
