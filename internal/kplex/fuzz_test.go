package kplex_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/kplex"
)

// fuzzGraph decodes fuzz bytes into a small instance: data[0] picks
// n ≤ 20, data[1] picks k ∈ [1,4], and bit i of the remaining bytes says
// whether the i-th vertex pair (u<v, row-major) is an edge.
func fuzzGraph(data []byte) (*graph.Graph, int) {
	if len(data) < 2 {
		return graph.New(0), 1
	}
	n, k := int(data[0])%21, 1+int(data[1])%4
	g, bits := graph.New(n), data[2:]
	i := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v, i = v+1, i+1 {
			if i/8 < len(bits) && bits[i/8]&(1<<(i%8)) != 0 {
				g.AddEdge(u, v)
			}
		}
	}
	return g, k
}

// FuzzExactVsNaive: the exact pipeline (greedy, core–truss kernel,
// components, branch-and-bound, lift) must find the same maximum size as
// the 2^n enumerator, with a valid witness in original vertex ids.
func FuzzExactVsNaive(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{6, 1, 0xff, 0xff})                                      // K6, k=2
	f.Add([]byte{12, 0, 0x55, 0xaa, 0x0f, 0xf0, 0x33, 0xcc, 0x99, 0x66}) // sparse-ish, k=1
	f.Add([]byte{16, 1, 0xef, 0xbe, 0xad, 0xde, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x0f})
	f.Add([]byte{20, 3, 0xff, 0xfe, 0xfd, 0xfb, 0xf7, 0xef, 0xdf, 0xbf, 0x7f, 0x00, 0x81, 0x42})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, k := fuzzGraph(data)
		want, err := kplex.Naive(g, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := kplex.BB(g, k)
		if err != nil {
			t.Fatal(err)
		}
		if got.Size != want.Size {
			t.Fatalf("%v k=%d: BB size %d, naive %d", g, k, got.Size, want.Size)
		}
		if len(got.Set) != got.Size || !g.IsKPlex(got.Set, k) {
			t.Fatalf("%v k=%d: BB witness %v is not a %d-plex of size %d", g, k, got.Set, k, got.Size)
		}
	})
}
