package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kplex"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/server"
)

// row is one request of a workload: a wire request and the reference
// size its answers are measured against.
type row struct {
	name  string
	req   api.SolveRequest
	ref   int  // the optimum; on sparse rows, an upper bound
	exact bool // every answer must equal ref (exact solver, no deadline hit)
	// reps is how often an in-process round sends the row: fast rows are
	// sent several times so that their medians rest on hundreds of
	// samples. Fixed, so the mix of requests does not depend on the
	// host's speed.
	reps int
}

// family is the instances of one row name; an in-process loop sends them
// in turn, reps of them per round. A seeded row with several instances
// measures the instance distribution rather than one draw from it.
type family []row

// exactLadderRows loads the checked-in instances at k = 2 and 3 with their
// known optima.
func exactLadderRows(root string) ([]family, error) {
	specs := []struct {
		file         string
		k, opt, reps int
	}{
		{"gnm100", 2, 5, 6}, {"gnm100", 3, 6, 2},
		{"gnm200", 2, 5, 1}, {"gnm200", 3, 5, 1},
		{"planted150", 2, 9, 1}, {"planted150", 3, 12, 16},
	}
	fams := make([]family, 0, len(specs))
	for _, s := range specs {
		g, err := graph.ReadFile(filepath.Join(root, "internal", "graph", "testdata", s.file+".clq"))
		if err != nil {
			return nil, fmt.Errorf("exact-ladder: %w", err)
		}
		fams = append(fams, family{{
			name:  fmt.Sprintf("%s/k%d", s.file, s.k),
			req:   api.SolveRequest{V: api.Version, Algo: api.AlgoBB, K: s.k, Graph: api.FromGraph(g)},
			ref:   s.opt,
			exact: true,
			reps:  s.reps,
		}})
	}
	return fams, nil
}

// gnmInstances is how many Gnm(16,40) instances quantum-paper cycles
// through, four per round, generated from the fixed seeds 1, 2, …: their
// qMKP times differ several-fold, so instances drawn from the workload
// seed moved the run's median with the seed's luck. The workload seed
// orders the rounds, as on exact-ladder.
const gnmInstances = 32

// quantumRows builds the paper workload: qMKP on G_{10,23}, D_{15,70} and
// the Gnm(16,40) instances; qaMKP (default 200 shots) on D_{15,70},
// D_{20,100} and D_{30,300}; all at k = 2, each with its optimum from
// kplex.BB.
func quantumRows() ([]family, error) {
	const k = 2
	specs := []struct {
		algo, dataset string
		reps          int
	}{
		{api.AlgoQMKP, "G_{10,23}", 32}, {api.AlgoQMKP, "D_{15,70}", 3}, {api.AlgoQMKP, "", 4},
		{api.AlgoQAMKP, "D_{15,70}", 1}, {api.AlgoQAMKP, "D_{20,100}", 1}, {api.AlgoQAMKP, "D_{30,300}", 1},
	}
	fams := make([]family, 0, len(specs))
	for _, s := range specs {
		var graphs []*graph.Graph
		name := s.dataset
		if s.dataset == "" {
			for i := 1; i <= gnmInstances; i++ {
				graphs = append(graphs, graph.Gnm(16, 40, int64(i)))
			}
			name = "Gnm(16,40)"
		} else {
			d, err := graph.PaperDataset(s.dataset)
			if err != nil {
				return nil, fmt.Errorf("quantum-paper: %w", err)
			}
			graphs = append(graphs, d.Build())
		}
		var fam family
		for _, g := range graphs {
			opt, err := kplex.BB(g, k)
			if err != nil {
				return nil, fmt.Errorf("quantum-paper: optimum of %s: %w", name, err)
			}
			fam = append(fam, row{
				name: s.algo + "/" + name,
				req:  api.SolveRequest{V: api.Version, Algo: s.algo, K: k, Graph: api.FromGraph(g)},
				ref:  opt.Size,
				reps: s.reps,
			})
		}
		fams = append(fams, fam)
	}
	return fams, nil
}

// inProcessPass measures a workload whose single caller is this process,
// calling server.Execute as cmd/qmkp -json-in does. Set-up (loading or
// generating the rows, computing references, one warm-up solve) runs
// setupRepeats times. The loop then works through the families in a
// fresh seeded order each round, each sending its next reps instances,
// until the budget is spent; rounds are never cut short, so every row is
// measured in every round. A randomized algorithm's n-th request of a
// row carries solver seed n, in every run: runs of one program, or of two
// versions, draw on common random numbers, so a row's mean size over its
// few requests per run does not move with the workload seed, which picks
// the round order. With acc set, every call is
// traced through tracedExecute. After each request the pass times one
// calibrate loop; a round's throughput window leaves those out.
//
// The pass solves with one worker, as one caller on one core: on a
// shared two-core host a second worker's speed is whatever the
// neighbours leave of the other core, which moved run-to-run medians by
// a third. Answers and work counters do not depend on the worker count.
func inProcessPass(setup func() ([]family, error), seed int64, budget time.Duration, acc *layerAcc) (*pass, error) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	ctx := context.Background()
	p := &pass{}
	var fams []family
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // a set-up does not pay for the previous one's garbage
		start := time.Now()
		f, err := setup()
		if err != nil {
			return nil, err
		}
		warm := f[0][0].req
		if _, err := server.Execute(ctx, &warm, obs.Obs{}); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", f[0][0].name, err)
		}
		p.setup = append(p.setup, time.Since(start))
		fams = f
	}

	rng := rand.New(rand.NewSource(seed))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sent := make([]int, len(fams))
	start := time.Now()
	for len(p.outcomes) == 0 || time.Since(start) < budget {
		roundStart := time.Now()
		var calibrating time.Duration
		for _, i := range rng.Perm(len(fams)) {
			for n := 0; n < fams[i][0].reps; n++ {
				r := &fams[i][sent[i]%len(fams[i])]
				sent[i]++
				req := r.req
				if req.Algo != api.AlgoBB {
					req.Seed = int64(sent[i])
				}
				var res *api.SolveResult
				var err error
				var lat time.Duration
				if acc == nil {
					t := time.Now()
					res, err = server.Execute(ctx, &req, obs.Obs{})
					lat = time.Since(t)
				} else {
					res, lat, err = tracedExecute(ctx, acc, r.name, &req)
				}
				p.judge(r, res, err, lat, lat)
				c := calibrate()
				p.cal = append(p.cal, c)
				calibrating += c
			}
		}
		p.windows = append(p.windows, time.Since(roundStart)-calibrating)
	}
	runtime.ReadMemStats(&m1)
	p.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	p.gcs = int(m1.NumGC - m0.NumGC)
	rss, err := peakRSSMB("/proc/self/status")
	if err != nil {
		return nil, err
	}
	p.rssMB = rss
	return p, nil
}

// judge checks one answer and records it. An answer counts as given when
// it carries a checked k-plex — a best-so-far one returned at the
// deadline included — or, from the annealer, an assignment it flags as
// invalid (then its valid size is 0). Errors, refusals and wrong answers
// are recorded as problems, which fail the run.
func (p *pass) judge(r *row, res *api.SolveResult, err error, lat, first time.Duration) *outcome {
	p.outcomes = append(p.outcomes, outcome{row: r.name, lat: lat, first: first})
	o := &p.outcomes[len(p.outcomes)-1]
	o.deadline = errors.Is(err, core.ErrCanceled) || (res != nil && res.ErrorKind == api.KindCanceled)
	if err != nil && !o.deadline {
		p.problem("%s: %v", r.name, err)
		return o
	}
	if res == nil {
		p.problem("%s: no result", r.name)
		return o
	}
	if res.ErrorKind != "" && res.ErrorKind != api.KindCanceled {
		p.problem("%s: %s: %s", r.name, res.ErrorKind, res.Error)
		return o
	}
	o.size, o.cached = res.Size, res.Cached
	valid := res.Size
	if res.Valid != nil && !*res.Valid {
		valid = 0
	} else {
		if msg := checkWitness(r.req.Graph, res.Set, res.Size, r.req.K); msg != "" {
			p.problem("%s: %s", r.name, msg)
			return o
		}
		if r.exact && !o.deadline && res.Size != r.ref {
			p.problem("%s: size %d, optimum is %d", r.name, res.Size, r.ref)
			return o
		}
	}
	o.answered = true
	if r.ref > 0 {
		o.ratio = float64(valid) / float64(r.ref)
	}
	return o
}

// problem records a correctness violation.
func (p *pass) problem(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}
