// Command perfbench is the repository's benchmark. It runs one of four
// seeded workloads against the solver stack and the qmkpd service for a
// fixed time, checks every answer, and prints one JSON line on stdout:
// the end-to-end metrics of an untraced run, or with -trace 1 the
// per-layer metrics of a traced run.
//
//	bash perfbench/run.sh --workload exact-ladder --seed 1 --seconds 10 --trace 0
//
// run.sh builds this package and cmd/qmkpd from the checkout into
// .bench_build and passes their locations in. The workloads:
//
//	exact-ladder   algo=bb on the checked-in gnm100, gnm200, planted150 at k=2,3; 1 in-process caller of server.Execute
//	serve-repeat   algo=bb k=2 on seeded Gnm(100,300) relabellings; 2 closed-loop clients over HTTP to a spawned qmkpd
//	sparse-scale   algo=bb k=2 on seeded Gnm(10^3,5*10^3) and Gnm(10^4,5*10^4), streamed, 5 s deadline; 1 client
//	               (runnable, but not gated by BENCHMARK.json: one request per row per run is too few to be steady)
//	quantum-paper  qmkp and qamkp on the paper's G_{n,m}/D_{n,m} instances; 1 in-process caller of server.Execute
//
// A traced run measures an untraced pass and a traced pass of half the
// time each. The traced pass wraps the calls into each layer's public
// functions in the benchmark's own spans, reads the counters, spans and
// events the program already emits, and for the service workloads
// replays requests in process through the layers the daemon runs them
// through. The spans and each row's deterministic work counters are
// written to the work directory; the counters also go to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupRepeats is how often a run sets up; setup_s is the median.
const setupRepeats = 15

// serveReplayRequests is how many serve-repeat requests the traced run
// replays through the layers in process.
const serveReplayRequests = 48

// outcome is one request as its caller saw it.
type outcome struct {
	row      string
	lat      time.Duration // request sent → answer in hand
	first    time.Duration // request sent → first feasible answer (lat unless streamed)
	answered bool          // a checked answer came back
	deadline bool          // the solve hit its deadline and answered with its best so far
	cached   bool
	size     int
	ratio    float64 // valid size / the row's reference size
	inst     int     // serve-repeat: the instance
}

// pass is one timed loop over a workload.
type pass struct {
	outcomes []outcome
	problems []string        // correctness violations
	windows  []time.Duration // throughput windows: rounds or segments, calibration left out
	setup    []time.Duration // set-up samples
	cal      []time.Duration // calibrate times, taken with no request in flight
	rssMB    float64         // VmHWM of the solving process
	allocMB  float64         // heap the solving process allocated during the loop
	gcs      int             // GC cycles of the solving process during the loop
	vars     map[string]int64
}

// env is what every workload gets from the command line.
type env struct {
	root, qmkpd, work string
	acc               *layerAcc // set during traced passes
}

// result is the printed line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "exact-ladder | serve-repeat | sparse-scale | quantum-paper")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 10, "how long the run measures")
		trace    = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		root     = flag.String("root", ".", "checkout root (instance files live under it)")
		qmkpd    = flag.String("qmkpd", "", "qmkpd binary the service workloads spawn")
		work     = flag.String("work", ".bench_build/perfbench", "directory for daemon logs and trace files")
	)
	flag.Parse()
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	hostFacts()
	e := &env{root: *root, qmkpd: *qmkpd, work: *work}
	res, problems, err := run(e, *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: wrong:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// hostFacts prints the machine the numbers come from.
func hostFacts() {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: host cpu=%q nproc=%d GOMAXPROCS=%d go=%s\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// run measures one workload and returns the printed result and the
// correctness violations behind it.
func run(e *env, workload string, seed int64, budget time.Duration, traced bool) (*result, []string, error) {
	measure, err := passFunc(e, workload, seed)
	if err != nil {
		return nil, nil, err
	}
	if !traced {
		p, err := measure(budget)
		if err != nil {
			return nil, nil, err
		}
		rows, lats := byRow(p.outcomes, func(o outcome) float64 { return ms(o.lat) })
		_, firsts := byRow(p.outcomes, func(o outcome) float64 { return ms(o.first) })
		for i, r := range rows {
			fmt.Fprintf(os.Stderr, "perfbench: row %s n=%d median_ms=%.3f p90_ms=%.3f first_ms=%.3f\n",
				r, len(lats[i]), median(lats[i]), percentile(lats[i], 90), median(firsts[i]))
		}
		raw := endToEndMetrics(p)
		factor := hostFactor(p.cal)
		fmt.Fprintf(os.Stderr, "perfbench: calibration n=%d host_factor=%.4f raw solve_geomean_ms=%.3f solve_p90_ms=%.3f throughput_rps=%.3f setup_s=%.5f\n",
			len(p.cal), factor, raw["solve_geomean_ms"], raw["solve_p90_ms"], raw["throughput_rps"], raw["setup_s"])
		return summarize(endToEnd, atReferenceSpeed(raw, factor), p), p.problems, nil
	}

	base, err := measure(budget / 2)
	if err != nil {
		return nil, nil, err
	}
	e.acc = newLayerAcc()
	tp, err := measure(budget / 2)
	if err != nil {
		return nil, nil, err
	}
	if err := replay(e, workload, seed); err != nil {
		return nil, nil, err
	}
	vals := e.acc.means()
	for k, v := range layerFromPasses(base, tp) {
		vals[k] = v
	}
	if err := writeTrace(e, workload, seed); err != nil {
		return nil, nil, err
	}
	both := &pass{outcomes: append(append([]outcome(nil), base.outcomes...), tp.outcomes...),
		problems: append(append([]string(nil), base.problems...), tp.problems...)}
	return summarize(perLayer, vals, both), both.problems, nil
}

// passFunc returns the workload's pass: one timed loop of a given length.
// A traced pass is one run while env.acc is set.
func passFunc(e *env, workload string, seed int64) (func(time.Duration) (*pass, error), error) {
	switch workload {
	case "exact-ladder":
		return func(budget time.Duration) (*pass, error) {
			return inProcessPass(func() ([]family, error) { return exactLadderRows(e.root) }, seed, budget, e.acc)
		}, nil
	case "quantum-paper":
		return func(budget time.Duration) (*pass, error) {
			return inProcessPass(func() ([]family, error) { return quantumRows() }, seed, budget, e.acc)
		}, nil
	case "serve-repeat":
		sched := newServeSchedule(seed)
		return func(budget time.Duration) (*pass, error) {
			return servePass(e, sched, budget)
		}, nil
	case "sparse-scale":
		return func(budget time.Duration) (*pass, error) {
			return sparsePass(e, seed, budget)
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// replay adds the in-process layer replay of the service workloads to a
// traced run: the first requests of the seeded schedule, or the first
// sparse round.
func replay(e *env, workload string, seed int64) error {
	var rows []string
	var bodies [][]byte
	var timeout time.Duration
	switch workload {
	case "serve-repeat":
		sched := newServeSchedule(seed)
		for j := 0; j < serveReplayRequests; j++ {
			body, _, err := sched.request(j)
			if err != nil {
				return err
			}
			rows = append(rows, "gnm100-300")
			bodies = append(bodies, body)
		}
		timeout = serveTimeout
	case "sparse-scale":
		round, err := newSparseRound(rand.New(rand.NewSource(seed)))
		if err != nil {
			return err
		}
		for i := range round.rows {
			rows = append(rows, round.rows[i].name)
		}
		bodies = round.bodies
		timeout = sparseTimeout
	default:
		return nil
	}
	return replayService(e.acc, rows, bodies, timeout)
}

// layerFromPasses computes the per-layer metrics that compare or count
// whole passes: the daemon's counters, the deadline share, GC cycles per
// solve and the trace overhead.
func layerFromPasses(base, tp *pass) map[string]float64 {
	out := make(map[string]float64)
	n := float64(len(base.outcomes))
	deadlines := 0
	for _, o := range base.outcomes {
		if o.deadline {
			deadlines++
		}
	}
	out["server.deadline_frac"] = float64(deadlines) / n
	out["runtime.gc_cycles_per_solve"] = float64(base.gcs) / n
	if v := base.vars; v != nil {
		if hm := v["server.cache.hits"] + v["server.cache.misses"]; hm > 0 {
			out["server.cache.hit_rate"] = float64(v["server.cache.hits"]) / float64(hm)
		}
		insts := make(map[int]bool)
		for _, o := range base.outcomes {
			insts[o.inst] = true
		}
		out["server.cache.misses_per_instance"] = float64(v["server.cache.misses"]) / float64(len(insts))
		if v["server.solves"] > 0 {
			solve := float64(v["server.solve_ms_total"]) / float64(v["server.solves"])
			lats := make([]float64, len(base.outcomes))
			for i, o := range base.outcomes {
				lats[i] = ms(o.lat)
			}
			out["server.solve_ms_mean"] = solve
			out["server.outside_ms_mean"] = mean(lats) - solve
		}
		if v["server.requests"] > 0 {
			out["server.rejected_frac"] = float64(v["server.rejected"]) / float64(v["server.requests"])
		}
	}
	// Trace overhead: per row, the traced pass's median latency over the
	// untraced one's, combined by geometric mean.
	lat := func(o outcome) float64 { return ms(o.lat) }
	rows0, vals0 := byRow(base.outcomes, lat)
	rows1, vals1 := byRow(tp.outcomes, lat)
	var ratios []float64
	for i, r := range rows0 {
		for j, r1 := range rows1 {
			if r1 == r {
				ratios = append(ratios, median(vals1[j])/median(vals0[i]))
			}
		}
	}
	out["obs.trace_overhead_frac"] = geomean(ratios) - 1
	return out
}

// summarize assembles the printed result.
func summarize(defs []metricDef, vals map[string]float64, p *pass) *result {
	failed := 0
	for _, o := range p.outcomes {
		if !o.answered {
			failed++
		}
	}
	return &result{
		Correct:   len(p.problems) == 0,
		Attempted: len(p.outcomes),
		Failed:    failed,
		Metrics:   render(defs, vals),
	}
}

// writeTrace writes the traced run's spans and row counters as JSON lines
// to the work directory, and the row counters to stderr.
func writeTrace(e *env, workload string, seed int64) error {
	var b strings.Builder
	for _, rc := range e.acc.rows {
		line, err := json.Marshal(rc)
		if err != nil {
			return fmt.Errorf("encode counters: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: counters %s\n", line)
		b.Write(line)
		b.WriteByte('\n')
	}
	for _, s := range e.acc.spans {
		line, err := json.Marshal(s)
		if err != nil {
			return fmt.Errorf("encode span: %w", err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	path := filepath.Join(e.work, fmt.Sprintf("trace-%s-seed%d.jsonl", workload, seed))
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
