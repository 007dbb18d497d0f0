package main

import (
	"fmt"

	"repro/internal/api"
)

// checkWitness verifies a 1-based answer against the graph exactly as the
// client sent it, independently of the solver stack's own predicates: the
// set has the reported size, its members are distinct and in range, and
// every member is adjacent to at least |S|-k others in S. It returns ""
// when the answer holds and a description of the violation otherwise.
func checkWitness(g api.Graph, set []int, size, k int) string {
	if len(set) != size {
		return fmt.Sprintf("witness has %d members, result says size %d", len(set), size)
	}
	in := make(map[int]int, len(set))
	for _, v := range set {
		if v < 1 || v > g.N {
			return fmt.Sprintf("witness vertex %d out of range 1..%d", v, g.N)
		}
		if _, dup := in[v]; dup {
			return fmt.Sprintf("witness vertex %d repeated", v)
		}
		in[v] = 0
	}
	for _, e := range g.Edges {
		_, a := in[e[0]]
		_, b := in[e[1]]
		if a && b {
			in[e[0]]++
			in[e[1]]++
		}
	}
	for _, v := range set {
		if in[v] < len(set)-k {
			return fmt.Sprintf("witness of size %d is not a %d-plex: vertex %d has %d neighbours in it", len(set), k, v, in[v])
		}
	}
	return ""
}
