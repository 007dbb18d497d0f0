// Package reduce is the kernelization pass in front of the exact
// classical k-plex solver: shrink the instance with safe reduction rules
// before branch-and-bound sees it, and hand the search the structural
// orderings the rules produce along the way.
//
// With a certified lower bound lb in hand the search only needs k-plexes
// of size q = lb+1 or more, and two rules are safe for that target:
//
//   - vertex (core) rule: every member of such a plex has degree ≥ q-k
//     inside it, hence in the graph; vertices below the threshold go.
//   - edge (truss) rule: both endpoints of an edge inside such a plex miss
//     at most k-1 members each, so they share ≥ q-2k common neighbours
//     inside it; edges with fewer common neighbours in the graph go. The
//     rule is vacuous, and skipped, when q-2k ≤ 0.
//
// A plex of size ≥ q keeps every one of its vertices and internal edges
// under both rules, and a k-plex of the pruned graph is a k-plex of the
// input (removing edges only lowers degrees), so the kernel's optimum,
// lifted, is the input's optimum whenever it beats lb. This is the
// core–truss co-pruning the source paper puts in front of its quantum
// algorithms, here on the live exact path.
//
// Kernelize runs in three deterministic steps:
//
//   - a sparse iterated vertex peel on the input, to the (q-k)-core;
//   - both rules, iterated to their common fixed point on the induced
//     kernel (which Kernelize owns, so edges are removed in place);
//   - components and degeneracy order of the edge-pruned kernel. A k-plex
//     of size s ≥ 2k-1 is connected (a split part would leave some member
//     with too few neighbours), so when q ≥ 2k-1 each component can be
//     searched independently against the shared bound. Repeated
//     minimum-degree removal (ties by index) yields the order
//     branch-and-bound branches over and the per-vertex core numbers.
package reduce

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Stats records what a Kernelize pass did, for observability and the
// experiment tables.
type Stats struct {
	N0, M0      int // original vertex / edge count
	N, M        int // kernel vertex / edge count
	LB          int // the certified lower bound the rules targeted (size ≥ LB+1)
	Peeled      int // vertices removed by the vertex rule (N0 - N)
	EdgesPruned int // edges removed by the edge rule (edges of peeled vertices not counted)
	Components  int // connected components of the kernel
	Degeneracy  int // degeneracy of the kernel (max core number, 0 when empty)
}

// Kernel is the outcome of a Kernelize pass: the pruned graph, the map
// back to original vertex ids, and the structural orderings the solver
// branches over. All fields are deterministic functions of (g, k, lb).
type Kernel struct {
	Sub   *graph.Graph // pruned graph, re-indexed to [0, Stats.N)
	Map   []int        // Map[i] = original id of kernel vertex i (ascending)
	Order []int        // degeneracy order of Sub (kernel ids, removal order)
	Core  []int        // Core[v] = core number of kernel vertex v
	Comps [][]int      // connected components of Sub (kernel ids, each sorted, ordered by smallest member)
	Stats Stats
}

// Kernelize shrinks g for a maximum k-plex search that already holds a
// certified lower bound lb (a witness of size lb exists — e.g. the greedy
// solution): every k-plex of size ≥ lb+1, with all its internal edges,
// survives in Sub, so solving Sub and comparing against lb solves g. k
// must be ≥ 1 and lb ≥ 0. g is not modified.
func Kernelize(g *graph.Graph, k, lb int) Kernel {
	if k < 1 {
		panic(fmt.Sprintf("reduce: k=%d must be ≥ 1", k))
	}
	if lb < 0 {
		panic(fmt.Sprintf("reduce: lower bound %d must be ≥ 0", lb))
	}
	n := g.N()
	st := Stats{N0: n, M0: g.M(), LB: lb}
	vertexMin, edgeMin := lb+1-k, lb+1-2*k
	alive := make([]bool, n)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		alive[v] = true
		deg[v] = g.Degree(v)
	}
	// Sparse vertex peel: sweep in index order until a sweep removes
	// nothing. The fixed point (the (lb+1-k)-core) is unique whatever the
	// removal order.
	for changed := true; changed; {
		changed = false
		for v := 0; v < n; v++ {
			if !alive[v] || deg[v] >= vertexMin {
				continue
			}
			alive[v] = false
			st.Peeled++
			changed = true
			for _, u := range g.Neighbors(v) {
				if alive[u] {
					deg[u]--
				}
			}
		}
	}
	keep := make([]int, 0, n-st.Peeled)
	for v := 0; v < n; v++ {
		if alive[v] {
			keep = append(keep, v)
		}
	}
	sub, ids := g.InducedSubgraph(keep)
	if edgeMin > 0 {
		var left []int
		left, st.EdgesPruned = coTruss(sub, vertexMin, edgeMin)
		if len(left) < sub.N() {
			st.Peeled += sub.N() - len(left)
			var local []int
			sub, local = sub.InducedSubgraph(left)
			for i, v := range local {
				local[i] = ids[v]
			}
			ids = local
		}
	}
	kern := Kernel{Sub: sub, Map: ids}
	kern.Order, kern.Core = DegeneracyOrder(sub)
	kern.Comps = Components(sub)
	st.N, st.M = sub.N(), sub.M()
	st.Components = len(kern.Comps)
	for _, c := range kern.Core {
		if c > st.Degeneracy {
			st.Degeneracy = c
		}
	}
	kern.Stats = st
	return kern
}

// coTruss applies the vertex rule (degree < vertexMin) and the edge rule
// (common neighbours < edgeMin) to g in place until neither fires, and
// returns the surviving vertices (ascending) and the number of edges the
// edge rule removed. Both rules only ever become more applicable as
// edges disappear, so the fixed point is unique whatever the sweep order.
// A vertex is removed by deleting its edges: vertexMin > edgeMin > 0, so
// the survivors are exactly the vertices that keep an edge.
func coTruss(g *graph.Graph, vertexMin, edgeMin int) (left []int, pruned int) {
	n := g.N()
	for changed := true; changed; {
		changed = false
		for v := 0; v < n; v++ {
			if d := g.Degree(v); d > 0 && d < vertexMin {
				for _, u := range g.Neighbors(v) {
					g.RemoveEdge(v, u)
				}
				changed = true
			}
		}
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(u) {
				if v > u && g.CommonNeighbors(u, v) < edgeMin {
					g.RemoveEdge(u, v)
					pruned++
					changed = true
				}
			}
		}
	}
	for v := 0; v < n; v++ {
		if g.Degree(v) > 0 {
			left = append(left, v)
		}
	}
	return left, pruned
}

// LiftSet maps a vertex set of the kernel back to original ids. The
// result is a fresh slice in the kernel set's order.
func (kn Kernel) LiftSet(set []int) []int {
	out := make([]int, len(set))
	for i, v := range set {
		out[i] = kn.Map[v]
	}
	return out
}

// DegeneracyOrder returns the minimum-degree removal order of g (ties
// broken by lowest index) and the per-vertex core numbers: core[v] is the
// largest c such that v survives in the c-core. The order is what the
// branch-and-bound branches over — order[i]'s candidates are exactly the
// later positions — and max(core) is the degeneracy of g.
func DegeneracyOrder(g *graph.Graph) (order, core []int) {
	n := g.N()
	order = make([]int, 0, n)
	core = make([]int, n)
	removed := make([]bool, n)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
	}
	running := 0 // max min-degree seen so far = core number of the next removal
	for len(order) < n {
		u := -1
		for v := 0; v < n; v++ {
			if !removed[v] && (u < 0 || deg[v] < deg[u]) {
				u = v
			}
		}
		if deg[u] > running {
			running = deg[u]
		}
		core[u] = running
		removed[u] = true
		order = append(order, u)
		for _, w := range g.Neighbors(u) {
			if !removed[w] {
				deg[w]--
			}
		}
	}
	return order, core
}

// Components returns the connected components of g as sorted vertex
// lists, ordered by smallest member — a deterministic partition for the
// per-component searches.
func Components(g *graph.Graph) [][]int {
	n := g.N()
	seen := make([]bool, n)
	var comps [][]int
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		queue = append(queue[:0], s)
		comp := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.Neighbors(v) {
				if !seen[u] {
					seen[u] = true
					queue = append(queue, u)
					comp = append(comp, u)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}
