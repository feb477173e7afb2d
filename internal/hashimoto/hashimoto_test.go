package hashimoto

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"factorgraph/internal/core"
	"factorgraph/internal/dense"
	"factorgraph/internal/sparse"
)

func triangle(t *testing.T) *sparse.CSR {
	t.Helper()
	w, err := sparse.NewSymmetricFromEdges(3, [][2]int32{{0, 1}, {1, 2}, {0, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewBasics(t *testing.T) {
	w := triangle(t)
	h, err := New(w)
	if err != nil {
		t.Fatal(err)
	}
	if h.States() != 6 {
		t.Errorf("states = %d, want 2m = 6", h.States())
	}
	// Each state (u→v) transitions to deg(v)−1 = 1 states on a triangle.
	if h.B.NNZ() != 6 {
		t.Errorf("B nnz = %d, want 6 (one continuation per state)", h.B.NNZ())
	}
}

func TestNewRejectsSelfLoops(t *testing.T) {
	w, err := sparse.NewSymmetricFromEdges(2, [][2]int32{{0, 0}, {0, 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(w); err == nil {
		t.Error("expected self-loop rejection")
	}
}

func TestNBPathCountsTriangle(t *testing.T) {
	// On a triangle, NB paths of length 2 from i reach the third node only
	// (no return to i), and length 3 returns to i exactly around the two
	// cycle orientations.
	w := triangle(t)
	h, err := New(w)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := h.NBPathCounts(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// ℓ=1: adjacency.
	if !dense.Equal(counts[0], w.ToDense(), 1e-12) {
		t.Errorf("l=1 counts ≠ W:\n%v", counts[0])
	}
	// ℓ=2: exactly one NB path between distinct nodes, none to self.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 1.0
			if i == j {
				want = 0
			}
			if got := counts[1].At(i, j); got != want {
				t.Errorf("l=2 count(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
	// ℓ=3: two NB closed walks per node (clockwise, counterclockwise).
	for i := 0; i < 3; i++ {
		if got := counts[2].At(i, i); got != 2 {
			t.Errorf("l=3 count(%d,%d) = %v, want 2", i, i, got)
		}
	}
}

// Property: the Hashimoto-based NB path counts equal the paper's
// Proposition 4.3 recurrence on random graphs — the two formulations count
// the same objects.
func TestHashimotoMatchesRecurrenceProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(101, 102))
	f := func() bool {
		n := 3 + r.IntN(7)
		var edges [][2]int32
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.5 {
					edges = append(edges, [2]int32{int32(i), int32(j)})
				}
			}
		}
		if len(edges) == 0 {
			return true
		}
		w, err := sparse.NewSymmetricFromEdges(n, edges, nil)
		if err != nil {
			return false
		}
		h, err := New(w)
		if err != nil {
			return false
		}
		const lmax = 5
		viaB, err := h.NBPathCounts(n, lmax)
		if err != nil {
			return false
		}
		viaRec, err := core.ExplicitNBPowers(w, lmax)
		if err != nil {
			return false
		}
		for l := 0; l < lmax; l++ {
			if !dense.Equal(viaB[l], viaRec[l].ToDense(), 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestNBPathCountsErrors(t *testing.T) {
	w := triangle(t)
	h, err := New(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.NBPathCounts(3, 0); err == nil {
		t.Error("expected lmax error")
	}
}

// TestStateSpaceBlowup documents the size contrast the paper's §2.6 draws:
// the Hashimoto representation needs 2m states and O(m(d−1)) nonzeros,
// versus the n-state factorized recurrence.
func TestStateSpaceBlowup(t *testing.T) {
	var edges [][2]int32
	n := 40
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if (i+j)%3 == 0 {
				edges = append(edges, [2]int32{int32(i), int32(j)})
			}
		}
	}
	w, err := sparse.NewSymmetricFromEdges(n, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(w)
	if err != nil {
		t.Fatal(err)
	}
	if h.States() != w.NNZ() {
		t.Errorf("states %d ≠ 2m %d", h.States(), w.NNZ())
	}
	if h.States() <= n {
		t.Errorf("expected state blow-up beyond n=%d, got %d", n, h.States())
	}
}
