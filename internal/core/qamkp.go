package core

import (
	"fmt"

	"repro/internal/embedding"
	"repro/internal/qubo"
)

// AnnealOptions tunes QAMKP (Algorithm 4). Zero values select the paper's
// defaults (R = 2, Δt = 1, annealing on the logical problem).
type AnnealOptions struct {
	// R is the penalty strength; must exceed 1 (Section IV-B3). The
	// paper's experimentally best value, 2, is the default.
	R float64
	// DeltaT is the per-shot anneal time, the analogue of the paper's
	// annealing time Δt in µs; each modelled microsecond buys
	// SweepsPerMicrosecond Monte-Carlo sweeps of the SQA substrate.
	// Default 1.
	DeltaT int
	// Shots is the number of anneals s; total modelled runtime is
	// DeltaT·Shots, exactly the paper's budget arithmetic. Default 100.
	Shots int
	Seed  int64
	// Sampler selects the annealing backend: "sqa" (default; the QPU
	// stand-in), "sa" (classical baseline), or "hybrid".
	Sampler string
	// Embed routes the QUBO through a minor embedding onto the modelled
	// hardware graph before annealing — the full QPU pipeline with chain
	// couplings and majority-vote unembedding.
	Embed bool
	// ChainStrength overrides the auto chain coupling when embedding.
	ChainStrength float64
}

func (o *AnnealOptions) annealDefaults() AnnealOptions {
	out := AnnealOptions{}
	if o != nil {
		out = *o
	}
	if out.R == 0 {
		out.R = 2
	}
	if out.DeltaT <= 0 {
		out.DeltaT = 1
	}
	if out.Shots <= 0 {
		out.Shots = 100
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.Sampler == "" {
		out.Sampler = "sqa"
	}
	return out
}

// SweepsPerMicrosecond calibrates the Δt analogue: one modelled µs of
// annealing time runs this many Monte-Carlo sweeps (DESIGN.md; a physical
// 1 µs anneal is a complete, if fast, evolution, not a single sweep).
const SweepsPerMicrosecond = 10

// QAResult is the outcome of QAMKP.
type QAResult struct {
	Set   []int // decoded vertex set of the best-cost assignment
	Size  int
	Valid bool    // the decoded set is a genuine k-plex
	Cost  float64 // best objective value (Eq. objective)

	// BestValidSet is the largest genuine k-plex decoded from ANY
	// readout, which need not be the best-cost one: the paper notes the
	// annealer can find the optimal solution without optimally
	// configuring the slack variables (Section IV-C).
	BestValidSet []int

	// Trace is the best cost after each shot — the anytime curve.
	Trace []float64

	// Model accounting (the paper's qubit-utilization story).
	Variables int // n + slack bits
	SlackVars int

	// EmbedStats is set when Embed was requested.
	EmbedStats *embedding.Stats
}

// cmrVariableLimit bounds the heuristic router: beyond this many logical
// variables the CMR passes converge too slowly on a single core, so
// EmbedOnHardware goes straight to the deterministic clique embedding (the
// standard practice for dense problems on real annealers).
const cmrVariableLimit = 120

// EmbedOnHardware embeds the model into Chimera-class hardware (degree-10
// cells, the Advantage-class connectivity of DESIGN.md): the CMR heuristic
// on the smallest grid that accepts it, falling back to the deterministic
// TRIAD clique embedding for large or stubbornly dense models.
func EmbedOnHardware(m *qubo.Model, seed int64) (*embedding.Embedding, *embedding.Hardware, error) {
	const cell = 8
	if m.N() <= cmrVariableLimit {
		for _, size := range []int{3, 4, 6, 8, 12, 16} {
			hw := embedding.Chimera(size, cell)
			// Need headroom over one qubit per variable; tight grids
			// are tried first because they yield the shortest chains
			// (and fail fast when too tight).
			if hw.N < 2*m.N() {
				continue
			}
			if emb, err := embedding.Embed(m, hw, seed); err == nil {
				return emb, hw, nil
			}
		}
	}
	grid := embedding.CliqueGridFor(m.N(), cell)
	hw := embedding.Chimera(grid, cell)
	emb, err := embedding.CliqueEmbed(m.N(), hw)
	if err != nil {
		return nil, nil, fmt.Errorf("core: model with %d variables does not embed: %w", m.N(), err)
	}
	return emb, hw, nil
}
