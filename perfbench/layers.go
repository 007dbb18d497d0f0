package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/fastoracle"
	"repro/internal/graph"
	"repro/internal/kplex"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/qubo"
	"repro/internal/server"
)

// span is one benchmark-side timing record around a call into a layer.
type span struct {
	Row     string  `json:"row"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"` // since the traced pass began
	DurMS   float64 `json:"dur_ms"`
}

// rowCounters are the deterministic work counts of one row. For a row
// that runs to completion they are the same on every machine, every run
// and every worker count; a row cut by its deadline is marked, because
// its counts then depend on speed.
type rowCounters struct {
	Row          string  `json:"row"`
	Deadline     bool    `json:"deadline,omitempty"`
	BBNodes      int64   `json:"bb_nodes"`
	KernelFrac   float64 `json:"kernel_frac"`
	Peeled       int64   `json:"peeled"`
	Gates        int64   `json:"gates"`
	Probes       int64   `json:"probes"`
	OracleCalls  int64   `json:"oracle_calls"`
	CanonBytesKB float64 `json:"canon_bytes_kb"`
	QuboVars     int     `json:"qubo_variables"`
}

// layerAcc collects a traced pass: the benchmark's spans, the samples of
// each per-layer metric, and the counters of each row's first request.
type layerAcc struct {
	t0    time.Time
	spans []span
	vals  map[string][]float64
	rows  []rowCounters
	seen  map[string]bool
}

func newLayerAcc() *layerAcc {
	return &layerAcc{t0: time.Now(), vals: make(map[string][]float64), seen: make(map[string]bool)}
}

// span runs f as one span and returns its duration.
func (a *layerAcc) span(row, name string, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	a.spans = append(a.spans, span{Row: row, Name: name, StartMS: ms(start.Sub(a.t0)), DurMS: ms(d)})
	return d
}

// add records one sample of a per-layer metric.
func (a *layerAcc) add(name string, v float64) { a.vals[name] = append(a.vals[name], v) }

// addRow keeps the counters of the first request of each row.
func (a *layerAcc) addRow(rc rowCounters) {
	if !a.seen[rc.Row] {
		a.seen[rc.Row] = true
		a.rows = append(a.rows, rc)
	}
}

// means reports each per-layer metric as the mean of its samples.
func (a *layerAcc) means() map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = mean(a.vals[d.name])
	}
	return out
}

// allocMB runs f and returns the MB of heap it allocated.
func allocMB(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// mark is one span start, event or span end the solver emitted, stamped
// with the wall time it reached the observer.
type mark struct {
	kind    string
	name    string
	at      time.Time
	attrs   []obs.Attr
	elapsed time.Duration
}

// stageClock is an obs.Observer that stamps the spans and events the
// solver already emits, so a traced solve splits into its stages without
// any span inside the program.
type stageClock struct{ marks []mark }

func (c *stageClock) OnSpanStart(s obs.Span) {
	c.marks = append(c.marks, mark{kind: "start", name: s.Name, at: time.Now(), attrs: append([]obs.Attr(nil), s.Attrs...)})
}

func (c *stageClock) OnEvent(e obs.Event) {
	c.marks = append(c.marks, mark{kind: "event", name: e.Name, at: time.Now(), attrs: append([]obs.Attr(nil), e.Attrs...)})
}

func (c *stageClock) OnSpanEnd(s obs.Span) {
	c.marks = append(c.marks, mark{kind: "end", name: s.Name, at: time.Now(), attrs: append([]obs.Attr(nil), s.Attrs...), elapsed: s.Elapsed})
}

// find returns the first mark of the kind whose name has the prefix.
func (c *stageClock) find(kind, prefix string) (mark, bool) {
	for _, m := range c.marks {
		if m.kind == kind && strings.HasPrefix(m.name, prefix) {
			return m, true
		}
	}
	return mark{}, false
}

// observed is one solve with the program's own trace and counters on.
type observed struct {
	clock stageClock
	m     *obs.Metrics
}

func newObserved() *observed { return &observed{m: obs.NewMetrics()} }

func (o *observed) obs() obs.Obs { return obs.Obs{Trace: obs.NewTrace(&o.clock), Metrics: o.m} }

func (o *observed) counter(name string) int64 { return o.m.Counter(name).Value() }

// recordBB splits a kplex.BBOpt solve into greedy seed, kernelization and
// search by the span and events BBOpt emits, and returns the row's
// counters.
func recordBB(a *layerAcc, row string, o *observed, n int, deadline bool) rowCounters {
	rc := rowCounters{Row: row, Deadline: deadline, BBNodes: o.counter("fastoracle.bb.nodes"), Peeled: o.counter("reduce.peeled")}
	start, ok1 := o.clock.find("start", "kplex.bb")
	seed, ok2 := o.clock.find("event", "kplex.bb.seed")
	kern, ok3 := o.clock.find("event", "kplex.bb.kernel")
	end, ok4 := o.clock.find("end", "kplex.bb")
	if !(ok1 && ok2 && ok3 && ok4) {
		return rc
	}
	rc.KernelFrac = float64(obs.AttrInt(kern.attrs, "kernel_n", 0)) / float64(n)
	a.add("kplex.greedy_ms", ms(seed.at.Sub(start.at)))
	a.add("kplex.greedy_size", float64(obs.AttrInt(seed.attrs, "size", 0)))
	a.add("reduce.kernelize_ms", ms(kern.at.Sub(seed.at)))
	a.add("kplex.search_ms", ms(end.at.Sub(kern.at)))
	a.add("kplex.bb_ms", ms(end.at.Sub(start.at)))
	a.add("kplex.bb_nodes", float64(rc.BBNodes))
	a.add("reduce.kernel_frac", rc.KernelFrac)
	a.add("reduce.peeled", float64(rc.Peeled))
	a.add("reduce.components", float64(obs.AttrInt(kern.attrs, "components", 0)))
	return rc
}

// tracedExecute is the traced form of one in-process server.Execute call.
// The graph build and the solver's set-up calls (the fastoracle store and
// the per-probe oracles for qmkp, the QUBO for qamkp) are timed on their
// own; Execute itself runs with the program's spans and counters on. It
// returns Execute's result and the latency of the Execute call alone,
// which the trace-overhead ratio compares with the untraced pass.
func tracedExecute(ctx context.Context, a *layerAcc, row string, req *api.SolveRequest) (*api.SolveResult, time.Duration, error) {
	var g *graph.Graph
	var err error
	var build time.Duration
	a.add("graph.build_alloc_mb", allocMB(func() {
		build = a.span(row, "graph.build", func() { g, err = req.Graph.Build() })
	}))
	if err != nil {
		return nil, 0, err
	}
	a.add("graph.build_ms", ms(build))
	rc := rowCounters{Row: row}

	var store time.Duration
	switch req.Algo {
	case api.AlgoQMKP:
		store = a.span(row, "fastoracle.store", func() { _, err = fastoracle.NewStore(g, req.K) })
		a.add("fastoracle.store_ms", ms(store))
	case api.AlgoQAMKP:
		var enc *qubo.MKPEncoding
		d := a.span(row, "qubo.formulate", func() { enc, err = qubo.FormulateMKP(g, req.K, 2) })
		if err == nil {
			a.add("qubo.formulate_ms", ms(d))
			rc.QuboVars = enc.Model.N()
			a.add("qubo.variables", float64(rc.QuboVars))
		}
	}
	if err != nil {
		return nil, 0, err
	}

	o := newObserved()
	var res *api.SolveResult
	lat := a.span(row, "server.execute", func() { res, err = server.Execute(ctx, req, o.obs()) })
	deadline := errors.Is(err, core.ErrCanceled)
	if err != nil && !deadline {
		return res, lat, err
	}

	switch req.Algo {
	case api.AlgoBB:
		rc = recordBB(a, row, o, g.N(), deadline)
	case api.AlgoQMKP:
		rc.Probes = o.counter("core.qmkp.probes")
		rc.OracleCalls = o.counter("core.qmkp.oracle_calls")
		rc.Gates = o.counter("core.qmkp.gates")
		a.add("core.qmkp_ms", ms(lat))
		a.add("core.qmkp.probes", float64(rc.Probes))
		a.add("core.qmkp.oracle_calls", float64(rc.OracleCalls))
		a.add("core.qmkp.gates", float64(rc.Gates))
		a.add("grover.iterations", float64(o.counter("grover.iterations")))
		a.add("fastoracle.table.hits", float64(o.counter("fastoracle.table.hits")))
		a.add("oracle.truthtable.sweeps", float64(o.counter("oracle.truthtable.sweeps")))
		if start, ok := o.clock.find("start", "qmkp"); ok {
			if seed, ok := o.clock.find("event", "qmkp.greedy_seed"); ok {
				a.add("kplex.greedy_ms", ms(seed.at.Sub(start.at)))
				a.add("kplex.greedy_size", float64(obs.AttrInt(seed.attrs, "size", 0)))
			}
		}
		// The oracle compiled for each probe, timed on its own.
		builds := time.Duration(0)
		for _, p := range res.Progress {
			var orc *oracle.Oracle
			d := a.span(row, "oracle.build", func() {
				orc, err = oracle.BuildOpts(g, req.K, p.T, oracle.Options{FastPath: true})
			})
			if err != nil {
				return res, lat, err
			}
			builds += d
			a.add("oracle.build_ms", ms(d))
			a.add("oracle.gates_per_call", float64(orc.TotalGates()))
		}
		a.add("grover.search_ms", ms(lat-store-builds))
	case api.AlgoQAMKP:
		// The qamkp span opens after the QUBO is built and closes once
		// the shots are sampled, merged and decoded.
		if end, ok := o.clock.find("end", "qamkp"); ok {
			a.add("anneal.sample_ms", ms(end.elapsed))
		}
		valid := 0.0
		if res.Valid != nil && *res.Valid {
			valid = 1
		}
		a.add("anneal.valid_frac", valid)
	}
	a.addRow(rc)
	if deadline {
		return res, lat, err
	}
	return res, lat, nil
}

// replayService runs request bodies through the layer calls the daemon
// makes for them — decode, graph build, canonical form, cache lookup,
// branch-and-bound on a miss, witness transport, encode — in this
// process, each call in a benchmark span. The cache is modelled as the
// daemon keys it, by canonical bytes; timeout is the solve deadline the
// requests carry.
func replayService(a *layerAcc, rows []string, bodies [][]byte, timeout time.Duration) error {
	cache := make(map[string]*api.SolveResult)
	for i, body := range bodies {
		row := rows[i]
		a.add("api.request_kb", float64(len(body))/1024)
		var req *api.SolveRequest
		var err error
		a.add("api.decode_ms", ms(a.span(row, "api.decode", func() { req, err = api.DecodeSolveRequest(bytes.NewReader(body)) })))
		if err != nil {
			return fmt.Errorf("replay %s: %w", row, err)
		}
		var g *graph.Graph
		var build time.Duration
		a.add("graph.build_alloc_mb", allocMB(func() {
			build = a.span(row, "graph.build", func() { g, err = req.Graph.Build() })
		}))
		if err != nil {
			return fmt.Errorf("replay %s: %w", row, err)
		}
		a.add("graph.build_ms", ms(build))
		var form *canon.Form
		a.add("canon.canonical_ms", ms(a.span(row, "canon.canonical", func() { form = canon.Canonical(g) })))
		bytesKB := float64(len(form.Bytes)) / 1024
		a.add("canon.bytes_kb", bytesKB)
		discrete := 0.0
		if form.Discrete() {
			discrete = 1
		}
		a.add("canon.discrete_frac", discrete)

		key := string(form.Bytes)
		res, hit := cache[key]
		if hit {
			res = res.Clone()
			a.add("canon.lift_ms", ms(a.span(row, "canon.lift", func() {
				res.Set = api.OneBased(form.Lift(api.ZeroBased(res.Set)))
			})))
		} else {
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			o := newObserved()
			var kr kplex.Result
			a.span(row, "kplex.bb", func() { kr, err = kplex.BBOpt(ctx, g, req.K, kplex.BBOptions{Obs: o.obs()}) })
			cancel()
			deadline := errors.Is(err, kplex.ErrCanceled)
			if err != nil && !deadline {
				return fmt.Errorf("replay %s: %w", row, err)
			}
			rc := recordBB(a, row, o, g.N(), deadline)
			rc.CanonBytesKB = bytesKB
			a.addRow(rc)
			res = &api.SolveResult{V: api.Version, Algo: req.Algo, K: req.K, Size: kr.Size, Set: api.OneBased(kr.Set), Found: kr.Size > 0, Nodes: kr.Nodes}
			stored := res.Clone()
			a.add("canon.lift_ms", ms(a.span(row, "canon.apply", func() {
				stored.Set = api.OneBased(form.Apply(api.ZeroBased(stored.Set)))
			})))
			cache[key] = stored
		}
		a.add("api.encode_ms", ms(a.span(row, "api.encode", func() { _, err = json.Marshal(res) })))
		if err != nil {
			return fmt.Errorf("replay %s: %w", row, err)
		}
	}
	return nil
}
