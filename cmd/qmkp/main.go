// Command qmkp solves maximum k-plex instances with the algorithms of the
// reproduction: the gate-based qTKP/qMKP (simulated), the annealing-based
// qaMKP, and the classical baselines.
//
// Usage:
//
//	qmkp -algo qmkp  -k 2 -graph graph.txt
//	qmkp -algo qamkp -k 3 -gen 20,100 -shots 500 -deltat 5
//	qmkp -algo bs    -k 2 -dataset 'G_{10,23}'
//	qmkp -algo qmkp  -k 2 -dataset 'G_{10,23}' -trace-out trace.jsonl -metrics-out metrics.json
//	qmkp -json-in request.json -json-out -
//
// Input is either -graph (a DIMACS-style p/e file — .clq/.col headers
// included — or a SNAP-style .snap/.edges list; see internal/graph),
// -gen n,m (a seeded random graph) or -dataset (a named paper dataset).
//
// -json-in switches to the versioned wire schema shared with the
// solver daemon (internal/api): the file (or stdin, "-") holds one
// api.SolveRequest, the solve runs through the same dispatcher the
// daemon uses, and the api.SolveResult is written to -json-out (stdout
// by default). A CLI answer and a daemon answer for the same request
// document are therefore the same JSON.
//
// Runs are cancellable: -timeout bounds the solve, and an interrupt
// (Ctrl-C) stops it at the next probe/try/shot boundary; either way the
// best solution found so far is printed before exiting. Exit codes
// distinguish failure classes (the table lives in internal/api, shared
// with the daemon's HTTP status mapping):
//
//	0  solved
//	1  input/runtime error
//	2  bad request (core.ErrBadSpec: empty graph, k or T out of range, unknown sampler)
//	3  instance too large for the gate simulator (core.ErrTooLarge)
//	4  verified infeasible (core.ErrInfeasible, qtkp only)
//	5  canceled or timed out (core.ErrCanceled)
//
// Observability: -trace-out writes the deterministic span/event trace as
// JSONL, -metrics-out the counter/gauge snapshot as JSON ("-" = stdout
// for both); -cpuprofile, -memprofile and -exectrace capture the usual
// runtime profiles.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/club"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kplex"
	"repro/internal/obsio"
	"repro/internal/parallel"
	"repro/internal/reduce"
	"repro/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qmkp:", err)
		os.Exit(api.ExitCode(err))
	}
}

func run() error {
	var (
		algo    = flag.String("algo", "qmkp", "algorithm: qmkp | qtkp | qamkp | bb | bs | naive | greedy | tabu | qnclub")
		k       = flag.Int("k", 2, "k-plex parameter")
		clubL   = flag.Int("club", 2, "qnclub: diameter bound n of the n-club")
		tSize   = flag.Int("T", 0, "size threshold (qtkp only)")
		file    = flag.String("graph", "", "edge-list file (p/e format, 1-based vertices)")
		gen     = flag.String("gen", "", "generate a random graph: n,m")
		dataset = flag.String("dataset", "", "named paper dataset, e.g. 'G_{10,23}'")
		seed    = flag.Int64("seed", 1, "random seed")
		shots   = flag.Int("shots", 200, "qaMKP: number of anneals")
		deltaT  = flag.Int("deltat", 5, "qaMKP: sweeps per anneal (µs analogue)")
		rPen    = flag.Float64("R", 2, "qaMKP: penalty weight (must be > 1)")
		embed   = flag.Bool("embed", false, "qaMKP: run through the hardware-embedding pipeline")
		kernel  = flag.Bool("reduce", false, "solve the core-truss kernel (reduce.Kernelize against the greedy bound) instead of the input")
		workers = flag.Int("workers", 0, "worker count for parallel phases (0 = keep REPRO_WORKERS / NumCPU default); results are identical at any value")
		circuit = flag.Bool("circuit", false, "qmkp/qtkp: force oracle evaluation through circuit replay (disables the semantic fast path; same results, slower)")

		jsonIn  = flag.String("json-in", "", "read one api.SolveRequest (wire schema v1) from this file ('-' = stdin) and solve it through the daemon's dispatcher; replaces the flag-based input")
		jsonOut = flag.String("json-out", "", "with -json-in: write the api.SolveResult JSON here ('-' = stdout, the default)")

		timeout    = flag.Duration("timeout", 0, "cancel the solve after this duration (0 = none); the best solution so far is still printed")
		traceOut   = flag.String("trace-out", "", "write the deterministic span/event trace as JSONL to this file ('-' = stdout)")
		metricsOut = flag.String("metrics-out", "", "write the counter/gauge snapshot as JSON to this file ('-' = stdout)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (taken at exit) to this file")
		exectrace  = flag.String("exectrace", "", "write a runtime execution trace to this file")
	)
	flag.Parse()

	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}

	stopProfiles, err := obsio.StartProfiles(*cpuprofile, *memprofile, *exectrace)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil {
			fmt.Fprintln(os.Stderr, "qmkp: profiles:", perr)
		}
	}()

	sink := obsio.New(*traceOut, *metricsOut)
	defer func() {
		if ferr := sink.Flush(); ferr != nil {
			fmt.Fprintln(os.Stderr, "qmkp:", ferr)
		}
	}()

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *jsonOut != "" && *jsonIn == "" {
		return fmt.Errorf("-json-out requires -json-in: %w", core.ErrBadSpec)
	}
	if *jsonIn != "" {
		return runJSON(ctx, *jsonIn, *jsonOut, sink)
	}

	// Every algorithm but qnclub, and the -reduce pass, read -k.
	if *k < 1 && (*algo != "qnclub" || *kernel) {
		return fmt.Errorf("-k=%d must be ≥ 1: %w", *k, core.ErrBadSpec)
	}
	g, err := loadGraph(*file, *gen, *dataset, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("input: %v, k=%d\n", g, *k)

	if *kernel {
		lb := kplex.Greedy(g, *k)
		kern := reduce.Kernelize(g, *k, len(lb))
		fmt.Printf("reduction: removed %d vertices, edge rule pruned %d edges (greedy lower bound %d)\n",
			kern.Stats.Peeled, kern.Stats.EdgesPruned, len(lb))
		if kern.Sub.N() == 0 {
			fmt.Printf("solution: size %d, set %v (greedy optimal after reduction)\n", len(lb), oneBased(lb))
			return nil
		}
		g = kern.Sub
		// Results below are reported in kernel ids plus the lift.
		defer fmt.Printf("(vertex ids above are positions in the reduced graph; lift: %v)\n", oneBased(kern.Map))
	}

	switch *algo {
	case "qmkp":
		res, err := core.SolveMKP(ctx, g, core.Spec{
			K:    *k,
			Gate: &core.GateOptions{Rng: rand.New(rand.NewSource(*seed)), DisableFastPath: *circuit},
			Obs:  sink.Obs,
		})
		if err != nil && !errors.Is(err, core.ErrCanceled) {
			return err
		}
		for _, p := range res.Progress {
			status := "no plex of that size"
			if p.Found {
				status = fmt.Sprintf("found size %d", p.Size)
			}
			fmt.Printf("  probe T=%-3d %-22s cum. modelled QPU %v\n", p.T, status, p.CumQPUTime)
		}
		if err != nil {
			fmt.Printf("canceled: best size so far %d, set %v\n", res.Size, oneBased(res.Set))
			return err
		}
		fmt.Printf("solution: size %d, set %v\n", res.Size, oneBased(res.Set))
		fmt.Printf("cost: %d oracle calls, %d gates, modelled QPU %v, wall %v, error prob %.2e\n",
			res.OracleCalls, res.Gates, res.QPUTime, res.WallTime, res.ErrorProbability)
	case "qtkp":
		if *tSize < 1 {
			return fmt.Errorf("qtkp needs -T ≥ 1: %w", core.ErrBadSpec)
		}
		res, err := core.SolveTKP(ctx, g, core.Spec{
			K: *k, T: *tSize,
			Gate: &core.GateOptions{Rng: rand.New(rand.NewSource(*seed)), DisableFastPath: *circuit},
			Obs:  sink.Obs,
		})
		switch {
		case errors.Is(err, core.ErrInfeasible):
			fmt.Printf("no %d-plex of size ≥ %d exists (verified absence)\n", *k, *tSize)
			return err
		case errors.Is(err, core.ErrCanceled):
			fmt.Println("canceled before the probe finished")
			return err
		case err != nil:
			return err
		}
		fmt.Printf("solution: size %d, set %v (M=%d, %d iterations, error prob %.2e)\n",
			len(res.Set), oneBased(res.Set), res.M, res.Iterations, res.ErrorProbability)
	case "qamkp":
		res, err := core.SolveAnneal(ctx, g, core.Spec{
			K:      *k,
			Anneal: &core.AnnealOptions{R: *rPen, Shots: *shots, DeltaT: *deltaT, Seed: *seed, Embed: *embed},
			Obs:    sink.Obs,
		})
		if err != nil && !errors.Is(err, core.ErrCanceled) {
			return err
		}
		fmt.Printf("model: %d binary variables (%d slack)\n", res.Variables, res.SlackVars)
		if res.EmbedStats != nil {
			fmt.Printf("embedding: %d physical qubits, avg chain %.2f, max chain %d\n",
				res.EmbedStats.PhysicalQubits, res.EmbedStats.AvgChain, res.EmbedStats.MaxChain)
		}
		if err != nil {
			fmt.Printf("canceled: best over completed shots: size %d, set %v (valid k-plex: %v), cost %.2f\n",
				res.Size, oneBased(res.Set), res.Valid, res.Cost)
			return err
		}
		fmt.Printf("solution: size %d, set %v (valid k-plex: %v), cost %.2f\n",
			res.Size, oneBased(res.Set), res.Valid, res.Cost)
	case "bs":
		res, err := kplex.BS(g, *k)
		if err != nil {
			return err
		}
		fmt.Printf("solution: size %d, set %v (%d nodes expanded)\n", res.Size, oneBased(res.Set), res.Nodes)
	case "bb":
		res, err := kplex.BBOpt(ctx, g, *k, kplex.BBOptions{Obs: sink.Obs})
		switch {
		case errors.Is(err, kplex.ErrCanceled):
			fmt.Printf("canceled: best size so far %d, set %v (%d nodes expanded)\n",
				res.Size, oneBased(res.Set), res.Nodes)
			return fmt.Errorf("%w (bb): %w", core.ErrCanceled, err)
		case err != nil:
			return err
		}
		fmt.Printf("solution: size %d, set %v (%d nodes expanded)\n", res.Size, oneBased(res.Set), res.Nodes)
	case "naive":
		res, err := kplex.Naive(g, *k)
		if err != nil {
			return err
		}
		fmt.Printf("solution: size %d, set %v (%d subsets scanned)\n", res.Size, oneBased(res.Set), res.Nodes)
	case "greedy":
		set := kplex.Greedy(g, *k)
		fmt.Printf("solution: size %d, set %v (heuristic lower bound)\n", len(set), oneBased(set))
	case "tabu":
		set := kplex.TabuSearch(g, *k, kplex.TabuOptions{Seed: *seed})
		fmt.Printf("solution: size %d, set %v (tabu-search lower bound)\n", len(set), oneBased(set))
	case "qnclub":
		res, err := club.QMaxClub(g, *clubL, rand.New(rand.NewSource(*seed)))
		if err != nil {
			return err
		}
		fmt.Printf("solution: maximum %d-club of size %d, set %v (%d oracle calls)\n",
			*clubL, res.Size, oneBased(res.Set), res.Nodes)
	default:
		return fmt.Errorf("unknown algorithm %q: %w", *algo, core.ErrBadSpec)
	}
	return nil
}

// runJSON is the wire-schema mode: one api.SolveRequest in, one
// api.SolveResult out, through the exact dispatcher the daemon uses
// (server.Execute). The request's own timeout_ms composes with -timeout
// and Ctrl-C — whichever fires first cancels the solve. Errors are
// reported both in-band (error_kind/error in the result document) and
// through the process exit code, so scripts can pick either signal.
func runJSON(ctx context.Context, in, out string, sink *obsio.Sink) error {
	var src io.Reader = os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	req, err := api.DecodeSolveRequest(src)
	if err != nil {
		return err
	}
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	res, solveErr := server.Execute(ctx, req, sink.Obs)
	if res == nil {
		res = &api.SolveResult{V: api.Version, Algo: req.Algo, K: req.K}
	}
	res.SetError(solveErr)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" || out == "-" {
		if _, err := os.Stdout.Write(data); err != nil {
			return err
		}
	} else if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	return solveErr
}

func loadGraph(file, gen, dataset string, seed int64) (*graph.Graph, error) {
	sources := 0
	for _, s := range []string{file, gen, dataset} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("specify exactly one of -graph, -gen, -dataset")
	}
	switch {
	case file != "":
		// Dispatches on the extension: DIMACS .clq/.col/p-e files and
		// SNAP-style .snap/.edges lists both load.
		return graph.ReadFile(file)
	case gen != "":
		var n, m int
		if _, err := fmt.Sscanf(strings.ReplaceAll(gen, " ", ""), "%d,%d", &n, &m); err != nil {
			return nil, fmt.Errorf("bad -gen %q: want n,m", gen)
		}
		return graph.Gnm(n, m, seed), nil
	default:
		d, err := graph.PaperDataset(dataset)
		if err != nil {
			return nil, err
		}
		return d.Build(), nil
	}
}

// oneBased renders a vertex set with the paper's 1-based labels.
func oneBased(set []int) []int {
	out := make([]int, len(set))
	for i, v := range set {
		out[i] = v + 1
	}
	return out
}
