package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/api"
	"repro/internal/graph"
	"repro/internal/kplex"
	"repro/internal/parallel"
)

const (
	clients      = 2       // closed-loop clients of serve-repeat
	serveK       = 2       // k of the service workloads
	recentBlocks = 32      // repeats draw from the instances of the last blocks
	maxPositions = 1 << 18 // far more than a run can send
	// sparseTimeout is the deadline every sparse-scale request carries.
	// Both rows reach it: the n = 10^3 solve needs about 10.5 s uncapped,
	// and the n = 10^4 request's canonical form and greedy seed alone
	// outlast it, so that answer arrives 7-15 s after it is sent.
	sparseTimeout = 5 * time.Second
	// serveTimeout is the daemon's default deadline, which applies to
	// serve-repeat's requests: they carry none.
	serveTimeout = 30 * time.Second
)

// submission is one serve-repeat request: an instance and the seed of
// its fresh relabelling.
type submission struct {
	inst int
	perm int64
}

// serveSchedule is serve-repeat's request sequence, fixed by the seed.
// Positions come in blocks of eight. The first two bring in a new
// Gnm(100,300) instance, one position per client, so both clients can
// miss on it together; the other six repeat instances of the last
// recentBlocks blocks, well inside the daemon's cache. A quarter of the
// requests thus bring in a new instance: p50 falls in the cache-hit mode
// and p90 in the miss mode. Client c takes positions c, c+2, c+4, …
type serveSchedule struct {
	instSeeds []int64
	subs      []submission
}

func newServeSchedule(seed int64) *serveSchedule {
	rng := rand.New(rand.NewSource(seed))
	s := &serveSchedule{}
	for len(s.subs) < maxPositions {
		b := len(s.instSeeds)
		s.instSeeds = append(s.instSeeds, rng.Int63())
		s.subs = append(s.subs, submission{b, rng.Int63()}, submission{b, rng.Int63()})
		for i := 0; i < 6; i++ {
			back := rng.Intn(min(b+1, recentBlocks))
			s.subs = append(s.subs, submission{b - back, rng.Int63()})
		}
	}
	return s
}

// base is instance i in its generated labelling.
func (s *serveSchedule) base(i int) api.Graph {
	return api.FromGraph(graph.Gnm(100, 300, s.instSeeds[i]))
}

// request builds position j's request body and the graph it sends.
func (s *serveSchedule) request(j int) ([]byte, api.Graph, error) {
	sub := s.subs[j]
	g := permute(s.base(sub.inst), sub.perm)
	body, err := json.Marshal(api.SolveRequest{V: api.Version, Algo: api.AlgoBB, K: serveK, Graph: g})
	if err != nil {
		return nil, g, fmt.Errorf("encode request: %w", err)
	}
	return body, g, nil
}

// permute relabels g by a seeded permutation: the same instance up to
// isomorphism, different on the wire.
func permute(g api.Graph, seed int64) api.Graph {
	perm := rand.New(rand.NewSource(seed)).Perm(g.N)
	out := api.Graph{N: g.N, Edges: make([][2]int, len(g.Edges))}
	for i, e := range g.Edges {
		u, v := perm[e[0]-1]+1, perm[e[1]-1]+1
		if u > v {
			u, v = v, u
		}
		out.Edges[i] = [2]int{u, v}
	}
	sort.Slice(out.Edges, func(i, j int) bool {
		if out.Edges[i][0] != out.Edges[j][0] {
			return out.Edges[i][0] < out.Edges[j][0]
		}
		return out.Edges[i][1] < out.Edges[j][1]
	})
	return out
}

// daemonPass wraps a loop against a freshly spawned daemon: spawn with
// measured set-up, one untimed warm-up solve so the first measured
// request does not pay the new process's first-use costs (no_cache keeps
// it out of the result cache), counters and GC trace read around the
// loop, peak RSS read before the daemon is stopped.
func daemonPass(env *env, loop func(d *daemon, p *pass) error) (*pass, error) {
	d, setups, err := spawnMeasured(env.qmkpd, env.work)
	if err != nil {
		return nil, err
	}
	p := &pass{setup: setups}
	err = func() error {
		warm, err := json.Marshal(api.SolveRequest{V: api.Version, Algo: api.AlgoBB, K: serveK,
			Graph: api.FromGraph(graph.Gnm(100, 300, 1)), NoCache: true})
		if err != nil {
			return fmt.Errorf("encode warm-up: %w", err)
		}
		if _, _, err := d.post(warm); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		v0, err := d.vars()
		if err != nil {
			return err
		}
		gc0, err := d.gcCycles()
		if err != nil {
			return err
		}
		if err := loop(d, p); err != nil {
			return err
		}
		v1, err := d.vars()
		if err != nil {
			return err
		}
		gc1, err := d.gcCycles()
		if err != nil {
			return err
		}
		p.vars = make(map[string]int64)
		for _, name := range []string{"server.requests", "server.rejected", "server.cache.hits", "server.cache.misses", "server.solves", "server.solve_ms_total"} {
			p.vars[name] = v1[name] - v0[name]
		}
		p.allocMB = allocBetween(gc0, gc1)
		p.gcs = len(gc1) - len(gc0)
		p.rssMB, err = d.peakRSSMB()
		return err
	}()
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// servePass runs serve-repeat: two closed-loop clients over loopback HTTP,
// fanned out through internal/parallel, working through the schedule in
// segments of serveSegment positions until the budget is spent. Between
// segments, with no request in flight, the pass times serveCalibrations
// calibrate loops. Answers are then checked: every answer to one
// instance has the same size as its cold (uncached) answer, and that
// size is the instance's optimum, computed here with kplex.BB.
func servePass(env *env, sched *serveSchedule, budget time.Duration) (*pass, error) {
	return daemonPass(env, func(d *daemon, p *pass) error {
		runs := make([]pass, clients)
		spans := make([][]span, clients)
		prev := parallel.SetWorkers(clients)
		start := time.Now()
		for lo := 0; lo+serveSegment <= len(sched.subs) && (len(p.windows) == 0 || time.Since(start) < budget); lo += serveSegment {
			segStart := time.Now()
			parallel.For(clients, 1, func(a, b int) {
				for c := a; c < b; c++ {
					spans[c] = append(spans[c], serveClient(d, sched, c, lo, start, env.acc != nil, &runs[c])...)
				}
			})
			p.windows = append(p.windows, time.Since(segStart))
			for i := 0; i < serveCalibrations; i++ {
				p.cal = append(p.cal, calibrate())
			}
		}
		parallel.SetWorkers(prev)
		for c := range runs {
			p.outcomes = append(p.outcomes, runs[c].outcomes...)
			p.problems = append(p.problems, runs[c].problems...)
			if env.acc != nil {
				env.acc.spans = append(env.acc.spans, spans[c]...)
			}
		}
		checkServeAnswers(sched, p)
		return nil
	})
}

// serveSegment is how many schedule positions, twelve blocks of eight,
// the clients send between calibrations; a segment is also a throughput
// window. A segment ends when both clients are done with it, so one
// client can wait on the other's last request: a small share of the
// time at about 160 ms a segment.
const serveSegment = 96

// serveCalibrations is how many calibrate loops run after each segment.
const serveCalibrations = 4

// serveClient is one closed-loop client sending its positions of one
// segment; it records into its own pass and returns its request spans
// when traced.
func serveClient(d *daemon, sched *serveSchedule, c, lo int, start time.Time, traced bool, run *pass) []span {
	var spans []span
	for j := lo + c; j < lo+serveSegment; j += clients {
		body, g, err := sched.request(j)
		if err != nil {
			run.problem("position %d: %v", j, err)
			continue
		}
		t := time.Now()
		res, lat, err := d.post(body)
		if traced {
			spans = append(spans, span{Row: "gnm100-300", Name: "client.solve", StartMS: ms(t.Sub(start)), DurMS: ms(lat)})
		}
		r := &row{name: "gnm100-300", req: api.SolveRequest{K: serveK, Graph: g}}
		run.judge(r, res, err, lat, lat).inst = sched.subs[j].inst
	}
	return spans
}

// checkServeAnswers compares every answered request with its instance's
// cold answer and optimum, and sets each answer's size ratio.
func checkServeAnswers(sched *serveSchedule, p *pass) {
	var insts []int
	index := make(map[int]int)
	cold := make(map[int]int)
	for _, o := range p.outcomes {
		if _, ok := index[o.inst]; !ok {
			index[o.inst] = len(insts)
			insts = append(insts, o.inst)
		}
		if o.answered && !o.cached {
			cold[o.inst] = o.size
		}
	}
	opt := make([]int, len(insts))
	parallel.For(len(insts), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g := graph.Gnm(100, 300, sched.instSeeds[insts[i]])
			if res, err := kplex.BB(g, serveK); err == nil {
				opt[i] = res.Size
			}
		}
	})
	for i := range p.outcomes {
		o := &p.outcomes[i]
		if !o.answered {
			continue
		}
		want := opt[index[o.inst]]
		if c, ok := cold[o.inst]; ok && o.size != c {
			p.problem("instance %d: answer size %d (cached=%v), cold answer %d", o.inst, o.size, o.cached, c)
			o.answered = false
			continue
		}
		if o.size != want {
			p.problem("instance %d: answer size %d, optimum %d", o.inst, o.size, want)
			o.answered = false
			continue
		}
		o.ratio = float64(o.size) / float64(want)
	}
}

// sparseRound is one sparse-scale round: a fresh seeded instance per row.
type sparseRound struct {
	rows   []row
	bodies [][]byte
}

func newSparseRound(rng *rand.Rand) (*sparseRound, error) {
	r := &sparseRound{}
	for _, shape := range [][2]int{{1000, 5000}, {10000, 50000}} {
		g := graph.Gnm(shape[0], shape[1], rng.Int63())
		req := api.SolveRequest{V: api.Version, Algo: api.AlgoBB, K: serveK, Graph: api.FromGraph(g),
			TimeoutMS: sparseTimeout.Milliseconds(), Stream: true}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("encode request: %w", err)
		}
		r.rows = append(r.rows, row{name: fmt.Sprintf("gnm%d-%d", shape[0], shape[1]), req: req, ref: kplex.UpperBound(g, serveK)})
		r.bodies = append(r.bodies, body)
	}
	return r, nil
}

// sparsePass runs sparse-scale: one client streaming each round's rows to
// the daemon, rounds never cut short, until the budget is spent. The
// optimum of these instances is unknown, so answers are checked for
// validity only and their size is measured against kplex.UpperBound.
func sparsePass(env *env, seed int64, budget time.Duration) (*pass, error) {
	rng := rand.New(rand.NewSource(seed))
	return daemonPass(env, func(d *daemon, p *pass) error {
		start := time.Now()
		for len(p.windows) == 0 || time.Since(start) < budget {
			round, err := newSparseRound(rng)
			if err != nil {
				return err
			}
			roundStart := time.Now()
			var calibrating time.Duration
			for i := range round.rows {
				res, first, lat, err := d.stream(round.bodies[i])
				if env.acc != nil {
					env.acc.spans = append(env.acc.spans, span{Row: round.rows[i].name, Name: "client.stream", StartMS: ms(time.Since(env.acc.t0) - lat), DurMS: ms(lat)})
				}
				o := p.judge(&round.rows[i], res, err, lat, first)
				o.inst = len(p.outcomes) // every sparse request is a new instance
				for j := 0; j < serveCalibrations; j++ {
					c := calibrate()
					p.cal = append(p.cal, c)
					calibrating += c
				}
			}
			p.windows = append(p.windows, time.Since(roundStart)-calibrating)
		}
		return nil
	})
}
