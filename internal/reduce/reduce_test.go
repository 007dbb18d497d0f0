package reduce_test

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/kplex"
	"repro/internal/reduce"
)

// TestKernelizePreservesOptimum is the soundness contract: solving the
// kernel and comparing against the lower bound solves the original.
// Ground truth comes from the naive 2^n enumerator on small instances.
func TestKernelizePreservesOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(12)
		g := graph.Gnp(n, 0.15+rng.Float64()*0.6, rng.Int63())
		k := 1 + rng.Intn(3)
		want, err := kplex.Naive(g, k)
		if err != nil {
			t.Fatal(err)
		}
		lb := len(kplex.Greedy(g, k))
		kern := reduce.Kernelize(g, k, lb)
		// Every k-plex of size ≥ lb+1 must survive; the optimum of the
		// kernel, lifted back, combined with the lb witness, is the
		// optimum of g.
		got := lb
		if kern.Sub.N() > 0 {
			sub, err := kplex.Naive(kern.Sub, min(k, kern.Sub.N()))
			if err != nil {
				t.Fatal(err)
			}
			if sub.Size > got {
				got = sub.Size
				lifted := kern.LiftSet(sub.Set)
				if !g.IsKPlex(lifted, k) {
					t.Fatalf("trial %d: lifted kernel optimum %v is not a %d-plex of g", trial, lifted, k)
				}
				if len(lifted) != sub.Size {
					t.Fatalf("trial %d: lift changed the set size", trial)
				}
			}
		}
		if got != want.Size {
			t.Fatalf("trial %d (n=%d k=%d lb=%d): kernel path says %d, naive says %d (peeled %d)",
				trial, n, k, lb, got, want.Size, kern.Stats.Peeled)
		}
	}
}

// Peeling must never remove a vertex of a k-plex at or above the target
// size lb+1: plant a strong k-plex, peel against lb = plant size - 1.
func TestKernelizeKeepsPlantedPlex(t *testing.T) {
	g, plant := graph.PlantedKPlex(60, 10, 2, 0.05, 9)
	kern := reduce.Kernelize(g, 2, len(plant)-1)
	inKernel := make(map[int]bool, kern.Sub.N())
	for _, orig := range kern.Map {
		inKernel[orig] = true
	}
	for _, v := range plant {
		if !inKernel[v] {
			t.Fatalf("peeling removed planted vertex %d (stats %+v)", v, kern.Stats)
		}
	}
	if kern.Stats.Peeled == 0 {
		t.Error("sparse noise around the plant should peel at least one vertex")
	}
	if kern.Stats.N0 != 60 || kern.Stats.N != kern.Sub.N() || len(kern.Map) != kern.Sub.N() {
		t.Errorf("inconsistent stats/map: %+v, sub n=%d", kern.Stats, kern.Sub.N())
	}
}

// kernelOptimum is the maximum k-plex size of the kernel by enumeration.
func kernelOptimum(t *testing.T, kern reduce.Kernel, k int) int {
	t.Helper()
	if kern.Sub.N() == 0 {
		return 0
	}
	res, err := kplex.Naive(kern.Sub, k)
	if err != nil {
		t.Fatal(err)
	}
	return res.Size
}

// A star plus a planted clique: asking for a 2-plex of size 6 must strip
// the star and leave exactly the clique.
func TestKernelizeShrinksSparseGraph(t *testing.T) {
	g := graph.New(12)
	for i := 1; i <= 5; i++ {
		g.AddEdge(0, i) // star leaves 1..5
	}
	for u := 6; u < 12; u++ {
		for v := u + 1; v < 12; v++ {
			g.AddEdge(u, v) // clique 6..11
		}
	}
	kern := reduce.Kernelize(g, 2, 5)
	if kern.Stats.Peeled != 6 || kern.Stats.N != 6 || kern.Stats.M != 15 {
		t.Errorf("kernel stats %+v, want the 6-clique alone", kern.Stats)
	}
	if got := kernelOptimum(t, kern, 2); got != 6 {
		t.Errorf("pruned graph lost the size-6 plex: max = %d", got)
	}
}

// Two 5-cliques joined by a perfect matching: every vertex has degree 5,
// so the vertex rule for a 1-plex of size 5 (degree ≥ 4) keeps all of
// them, but a matching edge has no common neighbours against the edge
// rule's 5-2 = 3 and must go, splitting the kernel into the two cliques.
func TestKernelizeEdgeRuleBeyondVertexRule(t *testing.T) {
	g := graph.New(10)
	for _, base := range []int{0, 5} {
		for u := base; u < base+5; u++ {
			for v := u + 1; v < base+5; v++ {
				g.AddEdge(u, v)
			}
		}
	}
	for i := 0; i < 5; i++ {
		g.AddEdge(i, i+5)
	}
	kern := reduce.Kernelize(g, 1, 4)
	st := kern.Stats
	if st.Peeled != 0 || st.N != 10 {
		t.Fatalf("no vertex is below the degree threshold, yet %d were removed (%+v)", st.Peeled, st)
	}
	if st.EdgesPruned != 5 || st.M != 20 || st.Components != 2 {
		t.Errorf("stats %+v, want the 5 matching edges pruned and 2 components", st)
	}
	for _, e := range kern.Sub.Edges() {
		if u, v := kern.Map[e[0]], kern.Map[e[1]]; v-u == 5 {
			t.Errorf("matching edge {%d,%d} survived", u, v)
		}
	}
	if g.M() != 25 {
		t.Errorf("Kernelize modified its input: m = %d, want 25", g.M())
	}
	// Below the edge rule's range (lb+1 ≤ 2k) the same graph keeps every edge.
	if st := reduce.Kernelize(g, 2, 3).Stats; st.EdgesPruned != 0 || st.M != 25 {
		t.Errorf("edge rule fired with lb+1-2k ≤ 0: %+v", st)
	}
}

func TestKernelLiftSet(t *testing.T) {
	g := graph.FromEdges(6, [][2]int{{3, 4}, {4, 5}, {3, 5}})
	kern := reduce.Kernelize(g, 1, 2) // keeps only the triangle {3,4,5}
	if kern.Sub.N() != 3 {
		t.Fatalf("reduced to %d vertices, want 3", kern.Sub.N())
	}
	lifted := kern.LiftSet([]int{0, 1, 2})
	want := []int{3, 4, 5}
	for i := range want {
		if lifted[i] != want[i] {
			t.Errorf("LiftSet[%d] = %d, want %d", i, lifted[i], want[i])
		}
	}
}

func TestDegeneracyOrder(t *testing.T) {
	// Path P4 plus an isolated vertex: degeneracy 1, isolated first.
	g := graph.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	order, core := reduce.DegeneracyOrder(g)
	if len(order) != 5 || len(core) != 5 {
		t.Fatalf("order/core lengths %d/%d", len(order), len(core))
	}
	if order[0] != 4 {
		t.Errorf("isolated vertex should be removed first, order=%v", order)
	}
	if core[4] != 0 {
		t.Errorf("isolated vertex core = %d, want 0", core[4])
	}
	for _, v := range []int{0, 1, 2, 3} {
		if core[v] != 1 {
			t.Errorf("path vertex %d core = %d, want 1", v, core[v])
		}
	}
	// A triangle inside a star: the triangle is the 2-core.
	tri := graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 3}, {1, 4}, {2, 5}})
	_, core = reduce.DegeneracyOrder(tri)
	for v := 0; v < 3; v++ {
		if core[v] != 2 {
			t.Errorf("triangle vertex %d core = %d, want 2", v, core[v])
		}
	}
	for v := 3; v < 6; v++ {
		if core[v] != 1 {
			t.Errorf("leaf %d core = %d, want 1", v, core[v])
		}
	}
}

// The order must be a permutation and deterministic; core numbers must be
// monotone along it (the running max construction).
func TestDegeneracyOrderPermutationAndDeterminism(t *testing.T) {
	g := graph.Gnm(50, 160, 23)
	o1, c1 := reduce.DegeneracyOrder(g)
	o2, c2 := reduce.DegeneracyOrder(g)
	seen := make([]bool, 50)
	for i, v := range o1 {
		if v != o2[i] || c1[v] != c2[v] {
			t.Fatalf("two runs disagree at position %d", i)
		}
		if seen[v] {
			t.Fatalf("vertex %d repeated in order", v)
		}
		seen[v] = true
	}
	for i := 1; i < len(o1); i++ {
		if c1[o1[i]] < c1[o1[i-1]] {
			t.Fatalf("core numbers not monotone along the removal order at %d", i)
		}
	}
}

func TestComponents(t *testing.T) {
	// Two triangles and an isolated vertex.
	g := graph.FromEdges(7, [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}})
	comps := reduce.Components(g)
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3: %v", len(comps), comps)
	}
	want := [][]int{{0, 1, 2}, {3, 4, 5}, {6}}
	for i := range want {
		if len(comps[i]) != len(want[i]) {
			t.Fatalf("component %d = %v, want %v", i, comps[i], want[i])
		}
		for j := range want[i] {
			if comps[i][j] != want[i][j] {
				t.Fatalf("component %d = %v, want %v", i, comps[i], want[i])
			}
		}
	}
}

func TestKernelizeBadArgsPanic(t *testing.T) {
	g := graph.New(3)
	for _, tc := range []struct{ k, lb int }{{0, 1}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Kernelize(k=%d, lb=%d) did not panic", tc.k, tc.lb)
				}
			}()
			reduce.Kernelize(g, tc.k, tc.lb)
		}()
	}
}
