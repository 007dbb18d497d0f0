package exp

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/grover"
	"repro/internal/kplex"
	"repro/internal/oracle"
)

// microseconds renders a duration in the paper's µs unit.
func microseconds(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1e3)
}

// Table1 reproduces the dataset-size comparison with prior quantum graph
// works: it actually runs qMKP on G_{10,23} and qaMKP on D_{30,300} to
// certify that the claimed sizes are handled.
func Table1(cfg Config) (Result, error) {
	t := &Table{
		ID:     "table1",
		Title:  "Dataset sizes of existing quantum database works (Table I)",
		Header: []string{"Problem", "Complexity & work", "n", "m", "status"},
	}
	t.Rows = append(t.Rows,
		[]string{"Maximum clique", "O*(2^{n/2}) [Chang et al. 2018]", "2", "4", "reported"},
		[]string{"k-clique", "O*(2^{n/2}) [Metwalli et al. 2020]", "4", "4", "reported"},
	)

	d, err := graph.PaperDataset("G_{10,23}")
	if err != nil {
		return Result{}, err
	}
	g := d.Build()
	res, err := core.SolveMKP(context.Background(), g, core.Spec{
		K:    2,
		Gate: &core.GateOptions{Rng: rand.New(rand.NewSource(cfg.seed()))},
		Obs:  cfg.Obs,
	})
	if err != nil {
		return Result{}, err
	}
	t.Rows = append(t.Rows, []string{
		"Maximum k-plex", "O*(2^{n/2}) [qMKP]", "10", "23",
		fmt.Sprintf("solved, size %d", res.Size),
	})

	da, err := graph.PaperDataset("D_{30,300}")
	if err != nil {
		return Result{}, err
	}
	shots := 200
	if cfg.Quick {
		shots = 20
	}
	qa, err := core.SolveAnneal(context.Background(), AnnealInput(da), core.Spec{
		K:      3,
		Anneal: &core.AnnealOptions{Shots: shots, DeltaT: 5, Seed: cfg.seed()},
		Obs:    cfg.Obs,
	})
	if err != nil {
		return Result{}, err
	}
	t.Rows = append(t.Rows, []string{
		"Maximum k-plex", "approx. [qaMKP]", "30", "300",
		fmt.Sprintf("annealed, %d vars, best size %d (valid=%v)", qa.Variables, qa.Size, qa.Valid),
	})
	return Result{Table: t}, nil
}

// AnnealInput converts an annealing dataset into the k-plex input graph.
// The paper's D_{n,m} instances are dense constraint graphs — the
// complement Ḡ on which qaMKP's k-cplex constraints live (their variable
// counts, e.g. 258 = 43·6 at n=43, only fit that reading) — so the
// original graph handed to the solvers is the complement of the dataset.
func AnnealInput(d graph.Dataset) *graph.Graph {
	return d.Build().Complement()
}

// Fig9 reproduces the qTKP amplitude-distribution case study on the
// running-example graph: the frequency of each of the 64 basis states over
// 20 000 shots, before iteration and after iterations 1, 3 and 6. The
// shot loop rides Statevector.Sample's cumulative table (one uniform
// draw + binary search per shot), so the 20 000 shots cost O(2^n +
// shots·n), not O(shots·2^n).
func Fig9(cfg Config) (Result, error) {
	g := graph.Example6()
	orc, err := oracle.BuildOpts(g, 2, 4, oracle.Options{FastPath: true})
	if err != nil {
		return Result{}, err
	}
	tt := orc.TruthTable()
	pred := func(mask uint64) bool { return tt[mask] }
	shots := 20000
	if cfg.Quick {
		shots = 2000
	}
	rng := rand.New(rand.NewSource(cfg.seed()))

	f := &Figure{
		ID:     "fig9",
		Title:  "Subgraph amplitude distribution in the running process of qTKP (Fig. 9)",
		XLabel: "basis state (0..63, solution |110110> = 54)",
		YLabel: fmt.Sprintf("measurement frequency over %d shots", shots),
	}
	eng := grover.NewEngine(g.N(), pred, int64(orc.TotalGates()))
	prev := 0
	for _, iter := range []int{0, 1, 3, 6} {
		eng.Iterate(iter - prev)
		prev = iter
		counts := eng.State().Sample(shots, rng)
		s := Series{Name: fmt.Sprintf("iteration %d (error prob %.4f)", iter, 1-eng.SuccessProbability())}
		for b := 0; b < 64; b++ {
			s.X = append(s.X, float64(b))
			s.Y = append(s.Y, float64(counts[uint64(b)]))
		}
		f.Series = append(f.Series, s)
	}
	f.Notes = append(f.Notes,
		"solution state 54 = |110110> = {v1,v2,v4,v5}; 6 = ⌊π/4·√64⌋ iterations")
	return Result{Figure: f}, nil
}

// measureBS times the BS baseline by repeated execution.
func measureBS(g *graph.Graph, k, reps int) (kplex.Result, time.Duration, error) {
	var res kplex.Result
	var err error
	start := time.Now()
	for i := 0; i < reps; i++ {
		res, err = kplex.BS(g, k)
		if err != nil {
			return res, 0, err
		}
	}
	return res, time.Since(start) / time.Duration(reps), nil
}

// gateRow runs one qMKP-vs-BS comparison.
func gateRow(g *graph.Graph, k int, cfg Config) ([]string, error) {
	reps := 100
	if cfg.Quick {
		reps = 10
	}
	bs, bsTime, err := measureBS(g, k, reps)
	if err != nil {
		return nil, err
	}
	qm, err := core.SolveMKP(context.Background(), g, core.Spec{
		K:    k,
		Gate: &core.GateOptions{Rng: rand.New(rand.NewSource(cfg.seed()))},
		Obs:  cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	if qm.Size != bs.Size {
		return nil, fmt.Errorf("exp: qMKP size %d disagrees with BS %d", qm.Size, bs.Size)
	}
	firstTime, firstSize := "-", "-"
	if qm.FirstFeasible != nil {
		firstTime = microseconds(qm.FirstFeasible.CumQPUTime)
		firstSize = fmt.Sprintf("%d", qm.FirstFeasible.Size)
	}
	return []string{
		fmt.Sprintf("%d", qm.Size),
		microseconds(bsTime),
		microseconds(qm.QPUTime),
		firstTime,
		firstSize,
		fmt.Sprintf("%.1e", qm.ErrorProbability),
	}, nil
}

// Table2 reproduces the qMKP-vs-BS comparison across dataset sizes (k=2).
func Table2(cfg Config) (Result, error) {
	t := &Table{
		ID:     "table2",
		Title:  "qMKP with k=2 on datasets of varying sizes (Table II)",
		Header: []string{"metric", "G_{7,8}", "G_{8,10}", "G_{9,15}", "G_{10,23}"},
	}
	metrics := []string{"Maximum k-plex size", "BS (µs)", "qMKP modelled QPU (µs)",
		"First-result time (µs)", "First-result size", "Error probability"}
	cols := make([][]string, 0, 4)
	for _, name := range []string{"G_{7,8}", "G_{8,10}", "G_{9,15}", "G_{10,23}"} {
		d, err := graph.PaperDataset(name)
		if err != nil {
			return Result{}, err
		}
		row, err := gateRow(d.Build(), 2, cfg)
		if err != nil {
			return Result{}, fmt.Errorf("%s: %w", name, err)
		}
		cols = append(cols, row)
	}
	for mi, m := range metrics {
		row := []string{m}
		for _, col := range cols {
			row = append(row, col[mi])
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"BS is wall time of the classical branch-and-search; qMKP is gate count × 1ns gate latency (DESIGN.md)")
	return Result{Table: t}, nil
}

// Table3 reproduces the varying-k study on G_{10,37}.
func Table3(cfg Config) (Result, error) {
	t := &Table{
		ID:     "table3",
		Title:  "qMKP on G_{10,37} for k = 2..5 (Table III)",
		Header: []string{"metric", "k=2", "k=3", "k=4", "k=5"},
	}
	d, err := graph.PaperDataset("G_{10,37}")
	if err != nil {
		return Result{}, err
	}
	g := d.Build()
	metrics := []string{"Maximum k-plex size", "BS (µs)", "qMKP modelled QPU (µs)",
		"First-result time (µs)", "First-result size", "Error probability"}
	cols := make([][]string, 0, 4)
	for k := 2; k <= 5; k++ {
		row, err := gateRow(g, k, cfg)
		if err != nil {
			return Result{}, fmt.Errorf("k=%d: %w", k, err)
		}
		cols = append(cols, row)
	}
	for mi, m := range metrics {
		row := []string{m}
		for _, col := range cols {
			row = append(row, col[mi])
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"G_{10,37} sizes follow the paper's shape (flat in k, +1 at k=5); absolute sizes differ, see EXPERIMENTS.md")
	return Result{Table: t}, nil
}

// Table4 reproduces the oracle component runtime shares.
func Table4(cfg Config) (Result, error) {
	t := &Table{
		ID:     "table4",
		Title:  "Proportional share of the three oracle components (Table IV)",
		Header: []string{"component", "G_{7,8}", "G_{8,10}", "G_{9,15}", "G_{10,23}"},
	}
	shares := make([]map[string]float64, 0, 4)
	for _, name := range []string{"G_{7,8}", "G_{8,10}", "G_{9,15}", "G_{10,23}"} {
		d, err := graph.PaperDataset(name)
		if err != nil {
			return Result{}, err
		}
		g := d.Build()
		// Compile the oracle at the dataset's optimal threshold, the
		// binary search's converged probe.
		opt, err := kplex.BS(g, 2)
		if err != nil {
			return Result{}, err
		}
		counts, err := core.OracleBreakdown(g, 2, opt.Size)
		if err != nil {
			return Result{}, err
		}
		// The three oracle parts of the paper's accounting; graph
		// encoding is infrastructure shared by all of them.
		total := counts[oracle.BlockDegreeCount] + counts[oracle.BlockDegreeCompare] + counts[oracle.BlockSizeCheck]
		shares = append(shares, map[string]float64{
			"Degree count (%)":       100 * float64(counts[oracle.BlockDegreeCount]) / float64(total),
			"Degree comparison (%)":  100 * float64(counts[oracle.BlockDegreeCompare]) / float64(total),
			"Size determination (%)": 100 * float64(counts[oracle.BlockSizeCheck]) / float64(total),
		})
	}
	for _, metric := range []string{"Degree count (%)", "Degree comparison (%)", "Size determination (%)"} {
		row := []string{metric}
		for _, s := range shares {
			row = append(row, fmt.Sprintf("%.1f", s[metric]))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "shares are gate counts of one oracle call (U_check + U_check†)")
	return Result{Table: t}, nil
}
