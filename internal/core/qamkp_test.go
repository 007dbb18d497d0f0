package core

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/qubo"
)

func TestQAMKPSolvesExample(t *testing.T) {
	g := graph.Example6()
	res, err := SolveAnneal(context.Background(), g, Spec{K: 2, Anneal: &AnnealOptions{Shots: 150, DeltaT: 20, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid {
		t.Fatalf("QAMKP returned invalid set %v", res.Set)
	}
	if res.Size != 4 {
		t.Errorf("QAMKP size = %d, want 4", res.Size)
	}
	if res.Cost > -4+1e-9 {
		t.Errorf("QAMKP cost = %v, want ≤ -4", res.Cost)
	}
	if res.Variables != res.SlackVars+6 {
		t.Errorf("variable accounting: %d total, %d slack", res.Variables, res.SlackVars)
	}
	if len(res.Trace) != 150 {
		t.Errorf("trace length = %d, want 150", len(res.Trace))
	}
}

func TestQAMKPSamplers(t *testing.T) {
	g := graph.Example6()
	for _, sampler := range []string{"sqa", "sa", "hybrid"} {
		res, err := SolveAnneal(context.Background(), g, Spec{K: 2, Anneal: &AnnealOptions{Shots: 100, DeltaT: 15, Seed: 5, Sampler: sampler}})
		if err != nil {
			t.Fatalf("%s: %v", sampler, err)
		}
		if !res.Valid || res.Size < 3 {
			t.Errorf("%s: found size %d valid=%v, want ≥ 3", sampler, res.Size, res.Valid)
		}
	}
	if _, err := SolveAnneal(context.Background(), g, Spec{K: 2, Anneal: &AnnealOptions{Sampler: "bogus"}}); err == nil {
		t.Error("unknown sampler accepted")
	}
}

func TestQAMKPEmbedded(t *testing.T) {
	g := graph.Example6()
	res, err := SolveAnneal(context.Background(), g, Spec{K: 2, Anneal: &AnnealOptions{Shots: 80, DeltaT: 30, Seed: 3, Embed: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.EmbedStats == nil {
		t.Fatal("no embedding stats recorded")
	}
	if res.EmbedStats.PhysicalQubits < res.Variables {
		t.Errorf("physical qubits %d < logical variables %d",
			res.EmbedStats.PhysicalQubits, res.Variables)
	}
	if !res.Valid {
		t.Errorf("embedded QAMKP returned invalid set %v", res.Set)
	}
}

// TestQAMKPModelValidates pins the Level-2 QUBO linter into the qaMKP
// path: the encoding QAMKP anneals on (same graph, k and default R) must
// pass qubo.ValidateModel — FormulateMKP also runs it as a self-check on
// every QAMKP call.
func TestQAMKPModelValidates(t *testing.T) {
	g := graph.Example6()
	enc, err := qubo.FormulateMKP(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := qubo.ValidateModel(enc); err != nil {
		t.Errorf("qaMKP encoding rejected by ValidateModel: %v", err)
	}
	if _, err := SolveAnneal(context.Background(), g, Spec{K: 2, Anneal: &AnnealOptions{Shots: 10, DeltaT: 5, Seed: 3}}); err != nil {
		t.Errorf("QAMKP with validated encoding failed: %v", err)
	}
}

func TestQAMKPRejectsBadR(t *testing.T) {
	if _, err := SolveAnneal(context.Background(), graph.Example6(), Spec{K: 2, Anneal: &AnnealOptions{R: 0.5}}); err == nil {
		t.Error("R < 1 accepted")
	}
}
