// Annealing walkthrough: the full qaMKP pipeline of Section IV, step by
// step — QUBO formulation (slack variables, M, L), penalty-weight choice,
// logical annealing, and the hardware-embedding stage with chain
// statistics.
//
//	go run ./examples/annealing
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/graph"
	"repro/internal/qubo"
)

func main() {
	// A dense constraint graph, complemented into the k-plex input —
	// the same reading the paper's qaMKP experiments use.
	d, err := graph.PaperDataset("D_{10,40}")
	if err != nil {
		log.Fatal(err)
	}
	g := d.Build().Complement()
	k := 3
	fmt.Printf("input graph %v (complement of %s), k = %d\n\n", g, d.Name, k)

	// Step 1: the QUBO of Eq. (objective).
	enc, err := qubo.FormulateMKP(g, k, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("QUBO: %d binary variables (%d vertex + %d slack), %d quadratic terms\n",
		enc.Model.N(), enc.NumVertexVars(), enc.NumSlackVars(), enc.Model.NumInteractions())
	for v := 0; v < 3; v++ {
		fmt.Printf("  vertex v%d: complement degree %d → slack register of %d bits\n",
			v+1, enc.Comp.Degree(v), enc.SlackWidth(v))
	}

	// Step 2: penalty-weight sensitivity (the paper's Table VI story).
	fmt.Println("\npenalty weight sweep (200 shots, Δt = 1):")
	for _, r := range []float64{1.1, 2, 4, 8} {
		res, err := core.SolveAnneal(context.Background(), g, core.Spec{K: k, Anneal: &core.AnnealOptions{R: r, Shots: 200, DeltaT: 1, Seed: 7}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  R = %-4g best cost %8.1f  decoded size %d (valid %v)\n",
			r, res.Cost, res.Size, res.Valid)
	}

	// Step 3: the hardware stage — minor embedding and chains.
	emb, hw, err := core.EmbedOnHardware(enc.Model, 1)
	if err != nil {
		log.Fatal(err)
	}
	st := emb.Stats()
	fmt.Printf("\nembedding onto a %d-qubit Chimera-class graph:\n", hw.N)
	fmt.Printf("  %d logical variables → %d physical qubits, avg chain %.2f, max chain %d\n",
		st.Variables, st.PhysicalQubits, st.AvgChain, st.MaxChain)

	res, err := embedding.SampleEmbedded(enc.Model, emb, 0,
		anneal.Params{Shots: 150, Sweeps: 20, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	set, valid := enc.DecodeValid(res.Best.X)
	fmt.Printf("  embedded anneal: best cost %.1f, decoded size %d (valid %v)\n",
		res.Best.Energy, len(set), valid)

	fmt.Println("\nchains cost qubits: the gap between logical and physical counts is")
	fmt.Println("the Fig. 13 overhead that eventually limits qaMKP on large graphs.")
}
