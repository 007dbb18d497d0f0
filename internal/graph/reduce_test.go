package graph_test

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/reduce"
)

// The reduction rules live in package reduce; these tests pin them
// against mask enumeration on this package's random graphs, asking for
// exactly the optimum (lb = opt-1), the tightest target a solver hands in.

// maxKPlexBrute returns the maximum k-plex size by mask enumeration
// (test-only ground truth, n ≤ 20).
func maxKPlexBrute(g *graph.Graph, k int) int {
	best := 0
	for mask := uint64(0); mask < 1<<uint(g.N()); mask++ {
		set := graph.MaskSubset(mask, g.N())
		if len(set) > best && g.IsKPlex(set, k) {
			best = len(set)
		}
	}
	return best
}

func TestCoreReducePreservesOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		g := graph.Gnp(11, 0.45, rng.Int63())
		for k := 1; k <= 3; k++ {
			opt := maxKPlexBrute(g, k)
			kern := reduce.Kernelize(g, k, opt-1)
			if kern.Stats.N+kern.Stats.Peeled != g.N() {
				t.Fatalf("reduction accounting broken: %d + %d != %d",
					kern.Stats.N, kern.Stats.Peeled, g.N())
			}
			if got := maxKPlexBrute(kern.Sub, k); got != opt {
				t.Errorf("trial %d k=%d: kernel lost optimum: %d -> %d (stats %+v)",
					trial, k, opt, got, kern.Stats)
			}
		}
	}
}

func TestCoTrussPrunePreservesOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edgePruned := 0
	for trial := 0; trial < 20; trial++ {
		g := graph.Gnp(11, 0.5, rng.Int63())
		for k := 1; k <= 2; k++ {
			opt := maxKPlexBrute(g, k)
			kern := reduce.Kernelize(g, k, opt-1)
			if got := maxKPlexBrute(kern.Sub, k); got != opt {
				t.Errorf("trial %d k=%d: edge rule lost optimum: %d -> %d (stats %+v)",
					trial, k, opt, got, kern.Stats)
			}
			edgePruned += kern.Stats.EdgesPruned
		}
	}
	if edgePruned == 0 {
		t.Error("the edge rule never fired; the test no longer covers it")
	}
}
