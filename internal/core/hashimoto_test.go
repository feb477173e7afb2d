package core

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"factorgraph/internal/dense"
	"factorgraph/internal/sparse"
)

// The 2m×2m non-backtracking edge-adjacency ("Hashimoto") matrix that prior
// work (paper §2.6) uses to reason about non-backtracking walks: one state
// per directed edge, with a transition (u→v) → (v→w) whenever w ≠ u.
//
// The paper's contribution is precisely that compatibility estimation does
// NOT need this augmented state space (Proposition 4.3 counts NB paths on
// the original n×n matrices). It is kept here as the reference the
// recurrence (ExplicitNBPowers) is validated against, and to quantify the
// blow-up the factorized approach avoids: the Hashimoto matrix has 2m
// states and O(m·(d−1)) nonzeros.

// hashimoto is the Hashimoto operator of an undirected graph.
type hashimoto struct {
	// B is the 2m×2m edge-adjacency matrix.
	B *sparse.CSR
	// Tail and Head give, for each directed-edge state, its endpoints:
	// state s represents the directed edge Tail[s] → Head[s].
	Tail, Head []int32
}

// newHashimoto builds the Hashimoto matrix of the graph behind w. States
// are the 2m directed versions of w's undirected edges, indexed by their
// position in the CSR structure (state p is the directed edge
// i→w.Indices[p] for p in row i's range). Self-loops are rejected:
// non-backtracking walks are not well defined on them.
func newHashimoto(w *sparse.CSR) (*hashimoto, error) {
	nnz := w.NNZ()
	tail := make([]int32, nnz)
	head := make([]int32, nnz)
	for i := 0; i < w.N; i++ {
		for p := w.IndPtr[i]; p < w.IndPtr[i+1]; p++ {
			if int(w.Indices[p]) == i {
				return nil, fmt.Errorf("hashimoto: self-loop at node %d", i)
			}
			tail[p] = int32(i)
			head[p] = w.Indices[p]
		}
	}
	// Transition (u→v) → (v→w) for every neighbor w of v with w ≠ u.
	var coords []sparse.Coord
	for s := 0; s < nnz; s++ {
		v := head[s]
		u := tail[s]
		for q := w.IndPtr[v]; q < w.IndPtr[v+1]; q++ {
			if w.Indices[q] == u {
				continue // backtracking
			}
			coords = append(coords, sparse.Coord{Row: int32(s), Col: int32(q), W: 1})
		}
	}
	b, err := sparse.NewFromCoords(nnz, coords)
	if err != nil {
		return nil, err
	}
	return &hashimoto{B: b, Tail: tail, Head: head}, nil
}

// States returns the number of directed-edge states (2m).
func (h *hashimoto) States() int { return len(h.Tail) }

// NBPathCounts returns, for each ℓ in 1..lmax, the n×n matrix of
// non-backtracking path counts computed through the augmented state space:
// count(i→j, ℓ) = Σ_{e: tail=i} (B^{ℓ−1} T_j)(e) where T_j selects states
// with head j. This is the expensive reference computation; it
// materializes n×2m intermediates and exists for validation and for
// quantifying the factorization's advantage.
func (h *hashimoto) NBPathCounts(n, lmax int) ([]*dense.Matrix, error) {
	if lmax < 1 {
		return nil, fmt.Errorf("hashimoto: lmax=%d, want ≥ 1", lmax)
	}
	s := h.States()
	// state-indicator matrix S ∈ R^{s×n}: S[e][head(e)] = 1.
	indicator := dense.New(s, n)
	for e := 0; e < s; e++ {
		indicator.Set(e, int(h.Head[e]), 1)
	}
	out := make([]*dense.Matrix, lmax)
	cur := indicator.Clone() // B^{ℓ−1}·S, starting at ℓ=1
	for l := 1; l <= lmax; l++ {
		// counts[i][j] = Σ_{e: tail(e)=i} cur[e][j]
		counts := dense.New(n, n)
		for e := 0; e < s; e++ {
			i := int(h.Tail[e])
			crow := cur.Row(e)
			orow := counts.Row(i)
			for j, v := range crow {
				orow[j] += v
			}
		}
		out[l-1] = counts
		if l < lmax {
			cur = h.B.MulDense(cur)
		}
	}
	return out, nil
}

func hashimotoTriangle(t *testing.T) *sparse.CSR {
	t.Helper()
	w, err := sparse.NewSymmetricFromEdges(3, [][2]int32{{0, 1}, {1, 2}, {0, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestHashimotoBasics(t *testing.T) {
	w := hashimotoTriangle(t)
	h, err := newHashimoto(w)
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

func TestHashimotoRejectsSelfLoops(t *testing.T) {
	w, err := sparse.NewSymmetricFromEdges(2, [][2]int32{{0, 0}, {0, 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newHashimoto(w); err == nil {
		t.Error("expected self-loop rejection")
	}
}

func TestHashimotoNBPathCountsTriangle(t *testing.T) {
	// On a triangle, NB paths of length 2 from i reach the third node only
	// (no return to i), and length 3 returns to i exactly around the two
	// cycle orientations.
	w := hashimotoTriangle(t)
	h, err := newHashimoto(w)
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
		h, err := newHashimoto(w)
		if err != nil {
			return false
		}
		const lmax = 5
		viaB, err := h.NBPathCounts(n, lmax)
		if err != nil {
			return false
		}
		viaRec, err := ExplicitNBPowers(w, lmax)
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

func TestHashimotoNBPathCountsErrors(t *testing.T) {
	w := hashimotoTriangle(t)
	h, err := newHashimoto(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.NBPathCounts(3, 0); err == nil {
		t.Error("expected lmax error")
	}
}

// TestHashimotoStateSpaceBlowup documents the size contrast the paper's §2.6 draws:
// the Hashimoto representation needs 2m states and O(m(d−1)) nonzeros,
// versus the n-state factorized recurrence.
func TestHashimotoStateSpaceBlowup(t *testing.T) {
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
	h, err := newHashimoto(w)
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
