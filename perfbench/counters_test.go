package main

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/parallel"
)

// collectCounters records each row's work counters the way a traced run
// does: the in-process rows through tracedExecute with fixed solver
// seeds, and the first serve-repeat requests through the service replay.
// Sparse rows are left out: they stop at a deadline, so their counts
// depend on speed.
func collectCounters(t *testing.T, workers int) []rowCounters {
	t.Helper()
	prev := parallel.SetWorkers(workers)
	defer parallel.SetWorkers(prev)

	acc := newLayerAcc()
	ladder, err := exactLadderRows("..")
	if err != nil {
		t.Fatal(err)
	}
	quantum, err := quantumRows()
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range append(ladder, quantum...) {
		r := fam[0]
		req := r.req
		req.Seed = 7
		if _, _, err := tracedExecute(context.Background(), acc, r.name, &req); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
	}
	sched := newServeSchedule(1)
	var rows []string
	var bodies [][]byte
	for j := 0; j < 16; j++ {
		body, _, err := sched.request(j)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, "gnm100-300")
		bodies = append(bodies, body)
	}
	if err := replayService(acc, rows, bodies, serveTimeout); err != nil {
		t.Fatal(err)
	}
	return acc.rows
}

func TestCountersRepeatAcrossRunsAndWorkers(t *testing.T) {
	first := collectCounters(t, 1)
	if len(first) != 13 {
		t.Fatalf("got counters for %d rows, want 13: %+v", len(first), first)
	}
	for _, rc := range first {
		if rc.BBNodes == 0 && rc.Gates == 0 && rc.QuboVars == 0 {
			t.Errorf("row %s recorded no work: %+v", rc.Row, rc)
		}
	}
	if again := collectCounters(t, 1); !reflect.DeepEqual(first, again) {
		t.Errorf("counters differ between two runs at 1 worker:\n%+v\n%+v", first, again)
	}
	if two := collectCounters(t, 2); !reflect.DeepEqual(first, two) {
		t.Errorf("counters differ between 1 and 2 workers:\n%+v\n%+v", first, two)
	}
}
