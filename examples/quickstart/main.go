// Quickstart: solve the paper's running example (Fig. 1) with all three
// contributed algorithms and the classical baseline.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kplex"
)

func main() {
	ctx := context.Background()
	// The 6-vertex example graph of the paper: its maximum 2-plex is
	// {v1, v2, v4, v5}.
	g := graph.Example6()
	k := 2
	fmt.Printf("graph: %v, k = %d\n\n", g, k)

	// Classical exact baseline (branch-and-search).
	bs, err := kplex.BS(g, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BS (classical):  size %d, set %v\n", bs.Size, labels(bs.Set))

	// Gate-based quantum search: qTKP for a fixed size threshold...
	tkp, err := core.SolveTKP(ctx, g, core.Spec{K: k, T: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("qTKP (T=4):      found=%v, set %v after %d Grover iterations (error prob %.2e)\n",
		tkp.Found, labels(tkp.Set), tkp.Iterations, tkp.ErrorProbability)

	// ...and qMKP for the maximum via binary search.
	mkp, err := core.SolveMKP(ctx, g, core.Spec{K: k})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("qMKP:            size %d, set %v, modelled QPU time %v\n",
		mkp.Size, labels(mkp.Set), mkp.QPUTime)

	// Annealing-based qaMKP on the QUBO reformulation.
	qa, err := core.SolveAnneal(ctx, g, core.Spec{K: k, Anneal: &core.AnnealOptions{Shots: 150, DeltaT: 20}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("qaMKP:           size %d, set %v, cost %.1f over %d binary variables\n",
		qa.Size, labels(qa.Set), qa.Cost, qa.Variables)
}

// labels converts 0-based vertex ids to the paper's v1..vn names.
func labels(set []int) []string {
	out := make([]string, len(set))
	for i, v := range set {
		out[i] = fmt.Sprintf("v%d", v+1)
	}
	return out
}
