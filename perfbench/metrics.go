package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's contract with BENCHMARK.json: a run prints exactly
// one of them, every entry present.
type metricDef struct {
	name, unit string
}

// endToEnd is what a caller of the solver or the service sees, measured
// with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_p50_ms", "ms"},
	{"solve_p90_ms", "ms"},
	{"solve_geomean_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"first_answer_geomean_ms", "ms"},
	{"success_frac", "ratio"},
	{"size_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb_per_solve", "MB"},
}

// perLayer is what the traced run reports, one group per module. A layer
// the workload's requests never reach reports 0.
var perLayer = []metricDef{
	{"api.decode_ms", "ms"},
	{"api.encode_ms", "ms"},
	{"api.request_kb", "KiB"},
	{"graph.build_ms", "ms"},
	{"graph.build_alloc_mb", "MB"},
	{"canon.canonical_ms", "ms"},
	{"canon.bytes_kb", "KiB"},
	{"canon.lift_ms", "ms"},
	{"canon.discrete_frac", "ratio"},
	{"server.cache.hit_rate", "ratio"},
	{"server.cache.misses_per_instance", "count"},
	{"server.solve_ms_mean", "ms"},
	{"server.outside_ms_mean", "ms"},
	{"server.rejected_frac", "ratio"},
	{"server.deadline_frac", "ratio"},
	{"kplex.greedy_ms", "ms"},
	{"kplex.greedy_size", "count"},
	{"kplex.bb_ms", "ms"},
	{"kplex.bb_nodes", "count"},
	{"kplex.search_ms", "ms"},
	{"reduce.kernelize_ms", "ms"},
	{"reduce.kernel_frac", "ratio"},
	{"reduce.peeled", "count"},
	{"reduce.components", "count"},
	{"fastoracle.store_ms", "ms"},
	{"fastoracle.table.hits", "count"},
	{"oracle.build_ms", "ms"},
	{"oracle.gates_per_call", "count"},
	{"oracle.truthtable.sweeps", "count"},
	{"core.qmkp_ms", "ms"},
	{"core.qmkp.probes", "count"},
	{"core.qmkp.oracle_calls", "count"},
	{"core.qmkp.gates", "count"},
	{"grover.iterations", "count"},
	{"grover.search_ms", "ms"},
	{"qubo.formulate_ms", "ms"},
	{"qubo.variables", "count"},
	{"anneal.sample_ms", "ms"},
	{"anneal.valid_frac", "ratio"},
	{"obs.trace_overhead_frac", "ratio"},
	{"runtime.gc_cycles_per_solve", "count"},
}

// metric is one value of the printed result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ms converts a duration to milliseconds without rounding.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of xs (mean of the middle two for even counts); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile is the nearest-rank p-th percentile of xs; 0 when empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// geomean of positive xs; 0 when empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// mean of xs; 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// byRow groups one per-outcome quantity by row, rows in name order.
func byRow(outs []outcome, f func(outcome) float64) (rows []string, vals [][]float64) {
	idx := make(map[string]int)
	for _, o := range outs {
		i, ok := idx[o.row]
		if !ok {
			i = len(rows)
			idx[o.row] = i
			rows = append(rows, o.row)
			vals = append(vals, nil)
		}
		vals[i] = append(vals[i], f(o))
	}
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return rows[order[a]] < rows[order[b]] })
	sortedRows := make([]string, len(rows))
	sortedVals := make([][]float64, len(rows))
	for i, j := range order {
		sortedRows[i], sortedVals[i] = rows[j], vals[j]
	}
	return sortedRows, sortedVals
}

// acrossRows applies stat to each row's values and combines the rows by
// geometric mean.
func acrossRows(outs []outcome, f func(outcome) float64, stat func([]float64) float64) float64 {
	_, vals := byRow(outs, f)
	per := make([]float64, len(vals))
	for i, v := range vals {
		per[i] = stat(v)
	}
	return geomean(per)
}

// rowMixPercentile is the nearest-rank p-th percentile of f over a mix in
// which every row is equally likely, however often it was sent: each
// outcome weighs one over its row's count.
func rowMixPercentile(outs []outcome, f func(outcome) float64, p float64) float64 {
	if len(outs) == 0 {
		return 0
	}
	count := make(map[string]int)
	for _, o := range outs {
		count[o.row]++
	}
	type sample struct{ v, w float64 }
	s := make([]sample, len(outs))
	for i, o := range outs {
		s[i] = sample{f(o), 1 / float64(count[o.row])}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].v < s[j].v })
	target := p / 100 * float64(len(count))
	cum := 0.0
	for _, x := range s {
		if cum += x.w; cum >= target {
			return x.v
		}
	}
	return s[len(s)-1].v
}

// endToEndMetrics turns an untraced pass into the end-to-end metrics.
// Medians are taken per row and combined across rows by geometric mean,
// so neither jumps when a percentile falls between two rows. The p90 is
// that of the row mix, each row equally likely: a row sent once a round
// holds only 7-25 samples in a run, so its own p90 is nearly its maximum
// and jumps with one slow moment of the host, while the mix's p90 lies
// well inside the slowest row's samples. No row's weight depends on how
// often it was sent.
func endToEndMetrics(p *pass) map[string]float64 {
	lat := func(o outcome) float64 { return ms(o.lat) }
	p50 := func(xs []float64) float64 { return percentile(xs, 50) }
	var valid []outcome
	for _, o := range p.outcomes {
		if o.answered {
			valid = append(valid, o)
		}
	}
	_, ratios := byRow(valid, func(o outcome) float64 { return o.ratio })
	rowRatios := make([]float64, len(ratios))
	for i, r := range ratios {
		rowRatios[i] = mean(r)
	}
	setups := make([]float64, len(p.setup))
	for i, d := range p.setup {
		setups[i] = d.Seconds()
	}
	return map[string]float64{
		"setup_s":                 median(setups),
		"solve_p50_ms":            acrossRows(p.outcomes, lat, p50),
		"solve_p90_ms":            rowMixPercentile(p.outcomes, lat, 90),
		"solve_geomean_ms":        acrossRows(p.outcomes, lat, median),
		"throughput_rps":          throughput(p),
		"first_answer_geomean_ms": acrossRows(p.outcomes, func(o outcome) float64 { return ms(o.first) }, median),
		"success_frac":            float64(len(valid)) / float64(len(p.outcomes)),
		"size_ratio":              mean(rowRatios),
		"peak_rss_mb":             p.rssMB,
		"alloc_mb_per_solve":      p.allocMB / float64(len(p.outcomes)),
	}
}

// atReferenceSpeed scales the times and rates of an end-to-end table by a
// pass's hostFactor: a time by the factor, a rate by its inverse.
func atReferenceSpeed(vals map[string]float64, factor float64) map[string]float64 {
	out := make(map[string]float64, len(vals))
	for _, d := range endToEnd {
		v := vals[d.name]
		switch d.unit {
		case "ms", "s":
			v *= factor
		case "1/s":
			v /= factor
		}
		out[d.name] = v
	}
	return out
}

// throughput is answered requests per second of the whole loop, the
// calibration loops left out. Its windows, rounds or segments, each hold
// the workload's whole mix, and the run's sum averages over many of them.
func throughput(p *pass) float64 {
	answered := 0
	for _, o := range p.outcomes {
		if o.answered {
			answered++
		}
	}
	var loop time.Duration
	for _, d := range p.windows {
		loop += d
	}
	return float64(answered) / loop.Seconds()
}

// render fills a metric table from computed values; absent entries are 0.
func render(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}
