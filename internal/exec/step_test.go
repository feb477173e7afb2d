package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"factorgraph/internal/dense"
	"factorgraph/internal/sparse"
)

// refScatterRound is the scatter round as it was written before the
// tracked rounds shared one step (AddRowNorm): a per-edge weight test and
// a compare-and-branch ∞-norm. It is kept as the reference the rewritten
// round must match bit for bit.
func refScatterRound(p *PullPass, active []int32, pushed, edges int) ([]int32, int, int) {
	k := p.k
	rh := make([]float64, k)
	for _, v := range active {
		p.mark[v] = 1
	}
	var next []int32
	for _, u32 := range active {
		u := int(u32)
		p.mark[u] = 0
		if p.nrm[u] <= p.tol {
			continue
		}
		rRow := p.r.Data[u*k : (u+1)*k]
		fRow := p.f.Data[u*k : (u+1)*k]
		MulRowsH(rh, rRow, p.hs, k)
		for j := 0; j < k; j++ {
			fRow[j] += rRow[j]
			rRow[j] = 0
		}
		p.nrm[u] = 0
		pushed++
		cols, wts := p.w.Row(u)
		edges += len(cols)
		for q, v32 := range cols {
			v := int(v32)
			wv := 1.0
			if wts != nil {
				wv = wts[q]
			}
			nRow := p.r.Data[v*k : (v+1)*k]
			norm := 0.0
			for j := 0; j < k; j++ {
				nRow[j] += wv * rh[j]
				a := nRow[j]
				if a < 0 {
					a = -a
				}
				if a > norm {
					norm = a
				}
			}
			p.nrm[v] = norm
			if norm > p.tol && p.mark[v] == 0 {
				p.mark[v] = 1
				next = append(next, int32(v))
			}
		}
	}
	for _, v := range next {
		p.mark[v] = 0
	}
	return next, pushed, edges
}

// refGatherOne is the pull gather as it was written before AddRowNorm.
func refGatherOne(p *PullPass, v int, rh []float64, next []int32) []int32 {
	k := p.k
	p.mark[v] = 0
	rRow := p.r.Data[v*k : (v+1)*k]
	cols, wts := p.w.Row(v)
	for q, u := range cols {
		idx := p.activeIdx[u]
		if idx < 0 {
			continue
		}
		wv := 1.0
		if wts != nil {
			wv = wts[q]
		}
		msg := rh[int(idx)*k : (int(idx)+1)*k]
		for j := 0; j < k; j++ {
			rRow[j] += wv * msg[j]
		}
	}
	norm := 0.0
	for _, a := range rRow {
		if a < 0 {
			a = -a
		}
		if a > norm {
			norm = a
		}
	}
	p.nrm[v] = norm
	if norm > p.tol {
		next = append(next, int32(v))
	}
	return next
}

// refPullRound is pullRound over refGatherOne (the non-sticky layout).
func refPullRound(p *PullPass, active []int32, edges int) ([]int32, int) {
	k := p.k
	rh := make([]float64, len(active)*k)
	edgeCh := make([]int, p.run.MaxChunks())
	if p.activeIdx == nil {
		p.activeIdx = make([]int32, p.n)
		for i := range p.activeIdx {
			p.activeIdx[i] = -1
		}
	}
	for c := range p.cand {
		p.cand[c] = p.cand[c][:0]
		p.next[c] = p.next[c][:0]
	}
	p.run.RowsIndexed(len(active), func(chunk, lo, hi int) {
		cand := p.cand[chunk][:0]
		edgeN := 0
		for idx := lo; idx < hi; idx++ {
			u := int(active[idx])
			rRow := p.r.Data[u*k : (u+1)*k]
			fRow := p.f.Data[u*k : (u+1)*k]
			MulRowsH(rh[idx*k:(idx+1)*k], rRow, p.hs, k)
			for j := 0; j < k; j++ {
				fRow[j] += rRow[j]
				rRow[j] = 0
			}
			p.nrm[u] = 0
			p.activeIdx[u] = int32(idx)
			cols, _ := p.w.Row(u)
			edgeN += len(cols)
			for _, v := range cols {
				if atomic.CompareAndSwapUint32(&p.mark[v], 0, 1) {
					cand = append(cand, v)
				}
			}
		}
		p.cand[chunk] = cand
		edgeCh[chunk] = edgeN
	})
	for c := range edgeCh {
		edges += edgeCh[c]
	}
	var candBuf []int32
	for c := range p.cand {
		candBuf = append(candBuf, p.cand[c]...)
	}
	p.run.RowsIndexed(len(candBuf), func(chunk, lo, hi int) {
		next := p.next[chunk][:0]
		for i := lo; i < hi; i++ {
			next = refGatherOne(p, int(candBuf[i]), rh, next)
		}
		p.next[chunk] = next
	})
	for _, u := range active {
		p.activeIdx[u] = -1
	}
	return p.survivors(nil), edges
}

// stepFixture builds a random graph (unit or weighted rows, one self-loop)
// and a dirty (F, R, norms) state at width k. With dyadic set, every
// entry, weight and H̃ coefficient is a small dyadic rational, so sums are
// exact and many norms land exactly on tol = 1/4.
func stepFixture(t *testing.T, k int, weighted, dyadic bool, seed int64) (w *sparse.CSR, hs, f, r *dense.Matrix, norms []float64, active []int32, tol float64) {
	t.Helper()
	const n = 400
	rng := rand.New(rand.NewSource(seed))
	pick := func(vals ...float64) float64 { return vals[rng.Intn(len(vals))] }
	var edges [][2]int32
	var wts []float64
	for i := 0; i < 3*n; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if i == 0 {
			v = u // one self-loop: a pushed row scatters into itself
		}
		edges = append(edges, [2]int32{u, v})
		if dyadic {
			wts = append(wts, pick(0.5, 1, 2))
		} else {
			wts = append(wts, 0.25+rng.Float64())
		}
	}
	if !weighted {
		wts = nil
	}
	w, err := sparse.NewSymmetricFromEdges(n, edges, wts)
	if err != nil {
		t.Fatal(err)
	}
	val := func(scale float64) float64 {
		if dyadic {
			return pick(-1, -0.75, -0.5, -0.25, 0, 0.25, 0.5, 0.75, 1) * scale
		}
		return (2*rng.Float64() - 1) * scale
	}
	hs = dense.New(k, k)
	for i := range hs.Data {
		hs.Data[i] = val(0.125)
	}
	f, r = dense.New(n, k), dense.New(n, k)
	norms = make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			f.Set(i, j, val(1))
		}
		if rng.Intn(4) == 0 {
			for j := 0; j < k; j++ {
				r.Set(i, j, val(1))
			}
			norms[i] = infRow(r.Row(i))
		}
	}
	tol = 0.25
	if !dyadic {
		tol = 0.05
	}
	for i, nv := range norms {
		if nv > tol {
			active = append(active, int32(i))
		}
	}
	return w, hs, f, r, norms, active, tol
}

// samePass reports the first bit-level difference between two passes'
// beliefs, residuals and norms.
func samePass(a, b *PullPass) (string, int, bool) {
	for i := range a.f.Data {
		if math.Float64bits(a.f.Data[i]) != math.Float64bits(b.f.Data[i]) {
			return "F", i, false
		}
		if math.Float64bits(a.r.Data[i]) != math.Float64bits(b.r.Data[i]) {
			return "R", i, false
		}
	}
	for i := range a.nrm {
		if math.Float64bits(a.nrm[i]) != math.Float64bits(b.nrm[i]) {
			return "norm", i, false
		}
	}
	return "", 0, true
}

// TestTrackedRoundsMatchReference pins the shared step to the loops it
// replaced: the scatter round on one worker and the pull round on four must
// leave F, R and the norms bit-identical, and return the same next frontier
// (in the same order, for the sequential scatter), round after round — for k = 2..9, unit and weighted
// rows, entries of both signs, and norms landing exactly on tol.
func TestTrackedRoundsMatchReference(t *testing.T) {
	atTol := 0
	for k := 2; k <= 9; k++ {
		for _, weighted := range []bool{false, true} {
			for _, dyadic := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					w, hs, f, r, norms, active, tol := stepFixture(t, k, weighted, dyadic, int64(100*k+7))
					got := NewPullPass(w, hs, f.Clone(), r.Clone(), slices.Clone(norms), tol, Runner{Workers: workers})
					want := NewPullPass(w, hs, f.Clone(), r.Clone(), slices.Clone(norms), tol, Runner{Workers: workers})
					gotActive, wantActive := slices.Clone(active), slices.Clone(active)
					for round := 0; round < 4 && len(wantActive) > 0; round++ {
						var gotPushed, gotEdges, wantPushed, wantEdges int
						if workers == 1 {
							gotActive, gotPushed, gotEdges = got.scatterRound(gotActive, 0, 0)
							wantActive, wantPushed, wantEdges = refScatterRound(want, wantActive, 0, 0)
						} else {
							gotActive, gotEdges = got.pullRound(gotActive, 0)
							wantActive, wantEdges = refPullRound(want, wantActive, 0)
						}
						tag := func() string {
							return fmt.Sprintf("k=%d weighted=%v dyadic=%v workers=%d round=%d", k, weighted, dyadic, workers, round)
						}
						if what, i, ok := samePass(got, want); !ok {
							t.Fatalf("%s: %s[%d] differs from the reference", tag(), what, i)
						}
						if workers > 1 {
							// Parallel claims make a pull round's survivor
							// order racy in either version; its set is not.
							slices.Sort(gotActive)
							slices.Sort(wantActive)
						}
						if !slices.Equal(gotActive, wantActive) {
							t.Fatalf("%s: next frontier %v, reference %v", tag(), gotActive, wantActive)
						}
						if gotPushed != wantPushed || gotEdges != wantEdges {
							t.Fatalf("%s: pushed/edges %d/%d, reference %d/%d", tag(), gotPushed, gotEdges, wantPushed, wantEdges)
						}
						for _, nv := range want.nrm {
							if nv == tol {
								atTol++
							}
						}
					}
				}
			}
		}
	}
	if atTol == 0 {
		t.Fatal("no norm landed exactly on tol: the boundary is not exercised")
	}
}

// TestRowWeights: a weighted row comes back as itself, a unit row as ones
// of its length, and a longer unit row after a shorter one still reads all
// ones.
func TestRowWeights(t *testing.T) {
	cols := make([]int32, 300)
	wts := make([]float64, 300)
	if got := RowWeights(cols[:5], wts[:5]); &got[0] != &wts[0] || len(got) != 5 {
		t.Fatal("weighted row not returned as itself")
	}
	for _, n := range []int{0, 3, 300, 7} {
		got := RowWeights(cols[:n], nil)
		if len(got) != n {
			t.Fatalf("unit row of %d: %d weights", n, len(got))
		}
		for _, v := range got {
			if v != 1 {
				t.Fatalf("unit row of %d holds %v", n, v)
			}
		}
	}
}

// TestAddRowNormSignsAndZeros: the sign-masked bit max is the ∞-norm for
// rows of mixed signs, ±0 and infinities, at the unrolled width and others,
// in AddRowNorm and in RowNorm alike.
func TestAddRowNormSignsAndZeros(t *testing.T) {
	rows := [][]float64{
		{math.Copysign(0, -1), 0, math.Copysign(0, -1)},
		{-3, 2, 1},
		{0.5, -0.5, math.Inf(-1)},
		{1e-300, -1e-310, 5e-324, -2},
		{-1},
	}
	for _, row := range rows {
		dst := slices.Clone(row)
		msg := make([]float64, len(row))
		got := AddRowNorm(dst, msg, 1)
		want := 0.0
		for _, v := range row {
			want = math.Max(want, math.Abs(v))
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("row %v: norm %v, want %v", row, got, want)
		}
		if got := RowNorm(row); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("row %v: RowNorm %v, want %v", row, got, want)
		}
	}
}
