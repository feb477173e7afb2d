package propagation

import (
	"testing"

	"factorgraph/internal/dense"
	"factorgraph/internal/sparse"
)

func stateFixture(t *testing.T) (*sparse.CSR, *dense.Matrix, *dense.Matrix) {
	t.Helper()
	// Two triangles bridged by one edge, heterophilous H.
	edges := [][2]int32{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}}
	w, err := sparse.NewSymmetricFromEdges(6, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := dense.New(6, 2)
	x.Set(0, 0, 1)
	x.Set(5, 1, 1)
	h := dense.FromRows([][]float64{{0.8, 0.2}, {0.2, 0.8}})
	return w, x, h
}

// TestStateMatchesLinBP asserts that a reused State produces bit-identical
// beliefs to the one-shot LinBP entry point, run after run.
func TestStateMatchesLinBP(t *testing.T) {
	w, x, h := stateFixture(t)
	for _, opts := range []LinBPOptions{
		DefaultLinBPOptions(),
		{S: 0.3, Iterations: 7, Center: false},
	} {
		want, err := LinBP(w, x, h, opts)
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewState(w, h, opts)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 3; run++ {
			got, err := st.Run(x)
			if err != nil {
				t.Fatal(err)
			}
			if !dense.Equal(got, want, 0) {
				t.Fatalf("opts %+v run %d: state beliefs differ from LinBP", opts, run)
			}
		}
	}
}

// TestStateRunDoesNotMutateX guards the centering path: Run must work on a
// private copy of the explicit beliefs.
func TestStateRunDoesNotMutateX(t *testing.T) {
	w, x, h := stateFixture(t)
	orig := x.Clone()
	st, err := NewState(w, h, DefaultLinBPOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(x); err != nil {
		t.Fatal(err)
	}
	if !dense.Equal(x, orig, 0) {
		t.Error("Run mutated the caller's X")
	}
}

// TestStateSetH swaps compatibility matrices on a live state without
// rebuilding and checks the result tracks a fresh state.
func TestStateSetH(t *testing.T) {
	w, x, h := stateFixture(t)
	st, err := NewState(w, h, DefaultLinBPOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(x); err != nil {
		t.Fatal(err)
	}
	h2 := dense.FromRows([][]float64{{0.1, 0.9}, {0.9, 0.1}})
	if err := st.SetH(h2); err != nil {
		t.Fatal(err)
	}
	got, err := st.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	want, err := LinBP(w, x, h2, DefaultLinBPOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !dense.Equal(got, want, 0) {
		t.Error("post-SetH beliefs differ from fresh LinBP")
	}
	if err := st.SetH(dense.New(3, 3)); err == nil {
		t.Error("SetH accepted a wrong-k matrix")
	}
}

// TestStateShapeErrors covers validation.
func TestStateShapeErrors(t *testing.T) {
	w, x, h := stateFixture(t)
	if _, err := NewState(w, dense.New(2, 3), DefaultLinBPOptions()); err == nil {
		t.Error("non-square H accepted")
	}
	empty, _ := sparse.NewSymmetricFromEdges(0, nil, nil)
	if _, err := NewState(empty, h, DefaultLinBPOptions()); err == nil {
		t.Error("empty graph accepted")
	}
	st, err := NewState(w, h, DefaultLinBPOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(dense.New(5, 2)); err == nil {
		t.Error("wrong-row X accepted")
	}
	if _, err := NewState(w, h, LinBPOptions{S: -1}); err == nil {
		t.Error("negative convergence parameter accepted")
	}
	if _, err := NewState(w, h, LinBPOptions{Iterations: -5}); err == nil {
		t.Error("negative iteration count accepted")
	}
	if _, err := LinBP(w, x, h, LinBPOptions{S: -1}); err == nil {
		t.Error("LinBP accepted negative convergence parameter")
	}
}
