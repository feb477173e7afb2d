package graph

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

// TestParseUploadWeights: an upload is held to the weight rule mutations
// already are (ValidWeight), and the error names the offending line.
func TestParseUploadWeights(t *testing.T) {
	for _, w := range []string{"NaN", "Inf", "+Inf", "-Inf", "-1", "1e31"} {
		_, _, _, err := ParseUpload([]byte("0\t1\n0\t1\t"+w+"\n"), []byte("0\t0\n"))
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("weight %s: error %v, want a rejection naming line 2", w, err)
		}
	}
	g, seeds, k, err := ParseUpload([]byte("0\t1\t2.5\n1\t2\t0.5\n"), []byte("0\t0\n2\t1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || g.M != 2 || len(seeds) != 3 || k != 2 || g.Adj.At(1, 0) != 2.5 {
		t.Errorf("valid weighted upload parsed as n=%d m=%d seeds=%v k=%d w(1,0)=%v", g.N, g.M, seeds, k, g.Adj.At(1, 0))
	}
}

// TestParseUploadSparseIDs: a payload may not infer more nodes than it has
// bytes, and the rejection happens before anything n-sized is allocated —
// "0 2147483647" would otherwise size a 16 GiB row-pointer array.
func TestParseUploadSparseIDs(t *testing.T) {
	edges, labels := []byte("0 2147483647"), []byte("0\t0\n")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := ParseUpload(edges, labels)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("13-byte upload naming node 2147483647 accepted")
	}
	// The scanner's 1 MiB line buffer is the only sizeable allocation.
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Errorf("rejecting the upload allocated %d bytes", got)
	}
	// At the bound: n = 6 from a 6-byte payload.
	if g, _, _, err := ParseUpload([]byte("0 5"), []byte("5 0")); err != nil || g.N != 6 {
		t.Errorf("n = payload size rejected: %v", err)
	}
	if _, _, _, err := ParseUpload([]byte("0 6"), []byte("6 0")); err == nil {
		t.Error("n = payload size + 1 accepted")
	}
}

// dupWeighted sums three weights on (0,2): NewFromCoords' unstable sort used
// to add them in a different order on each side of the diagonal (6.2 vs
// 6.199999999999999), an asymmetric W.
const dupWeighted = "0 1 1e-3\n2 1 0.2\n2 0 0.1\n0 2 3\n0 0 0.1\n2 2 1e-3\n0 2 0.1\n2 0 3\n0 1 0.1\n1 1 0.7\n"

// FuzzParseUpload: no upload panics the parser, and one it accepts is a
// graph every later stage can take — one seed per node, a symmetric
// adjacency with finite non-negative weights, a finite ρ(W).
func FuzzParseUpload(f *testing.F) {
	for _, s := range [][2]string{
		{"0\t1\n1\t2\n", "0\t0\n2\t1\n"},
		{"", ""},
		{"# comment\n\n0 1\n  \n1 2 0.5\n", "# c\n\n0 0\n"},
		{"0\t1\tNaN\n", "0\t0\n"},
		{"0\t1\tInf\n", "0\t0\n"},
		{"0\t1\t-Inf\n", "0\t0\n"},
		{"0\t1\t-1\n", "0\t0\n"},
		{"0 2147483647", "0\t0\n"},
		{"0 0\n0 1\n", "1 0\n"},                          // self-loop
		{"0 1\n1 0\n0 1\n", "0 0\n"},                     // duplicate edges
		{"0 1\n1 2\n", "2 1\n"},                          // label on the last node
		{"0 1\n1 2\n", "3 1\n"},                          // label out of range
		{"0 1 1e308\n0 1 1e308\n", "0 0\n"},              // finite weights that summed to +Inf before MaxWeight
		{"0 1 1.7e308\n0 2 1.7e308\n", "0 0\n"},          // a row sum that overflowed ρ(W) to NaN before MaxWeight
		{"0 1 1e30\n0 1 1e30\n1 2 1e30\n", "0 0\n2 1\n"}, // at MaxWeight, summed
		{dupWeighted, "0 0\n"},
	} {
		f.Add([]byte(s[0]), []byte(s[1]))
	}
	f.Fuzz(func(t *testing.T, edges, seedLabels []byte) {
		g, seeds, k, err := ParseUpload(edges, seedLabels)
		if err != nil {
			return
		}
		if len(seeds) != g.N || k < 1 {
			t.Fatalf("%d seeds for %d nodes, k=%d", len(seeds), g.N, k)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, w := range g.Adj.Data {
			if !(w >= 0) || math.IsInf(w, 0) {
				t.Fatalf("stored weight %v", w)
			}
		}
		if rho := g.Adj.SpectralRadius(50); math.IsNaN(rho) || math.IsInf(rho, 0) {
			t.Fatalf("ρ(W) = %v", rho)
		}
	})
}
