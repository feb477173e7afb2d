package exec

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"factorgraph/internal/delta"
	"factorgraph/internal/dense"
	"factorgraph/internal/sparse"
)

// refExactRound is ExactRound as it was written before its flat passes
// were fused and made branch-free: W·F·H̃ into a second n×k scratch, the
// residual re-computed in a per-entry loop with a compare-and-branch
// ∞-norm, and per-round chunk maxima. It is kept as the reference the
// round must match bit for bit.
func refExactRound(p *Pass, x *dense.Matrix) float64 {
	n, k := p.n, p.k
	fh, wfh := dense.New(n, k), dense.New(n, k)
	p.run.Rows(n, func(lo, hi int) {
		f := p.f.Data[lo*k : hi*k]
		for i, v := range p.r.Data[lo*k : hi*k] {
			f[i] += v
		}
		MulRowsH(fh.Data[lo*k:hi*k], f, p.hs, k)
	})
	p.w.MulDenseInto(wfh, fh)
	chunks := p.run.MaxChunks()
	if len(p.sc.next) < chunks {
		p.sc.next = append(p.sc.next, make([][]int32, chunks-len(p.sc.next))...)
	}
	chunkMax := make([]float64, len(p.sc.next))
	for c := range p.sc.next {
		p.sc.next[c] = p.sc.next[c][:0]
	}
	p.run.RowsIndexed(n, chunks, func(chunk, lo, hi int) {
		next, maxNorm := p.sc.next[chunk], 0.0
		for i := lo; i < hi; i++ {
			norm := 0.0
			for j := i * k; j < (i+1)*k; j++ {
				v := x.Data[j] + wfh.Data[j] - p.f.Data[j]
				p.r.Data[j] = v
				if v < 0 {
					v = -v
				}
				if v > norm {
					norm = v
				}
			}
			p.nrm[i] = norm
			if norm > p.tol {
				next = append(next, int32(i))
			}
			if norm > maxNorm {
				maxNorm = norm
			}
		}
		p.sc.next[chunk], chunkMax[chunk] = next, maxNorm
	})
	maxNorm := 0.0
	for _, v := range chunkMax {
		if v > maxNorm {
			maxNorm = v
		}
	}
	return maxNorm
}

// refTracked is the pricing walk as it was written before the row-length
// table: one Row call per active row, every round.
func refTracked(p *Pass, active []int32) bool {
	limit := p.w.NNZ() / p.divisor
	owned := 0
	for _, u := range active {
		cols, _ := p.w.Row(int(u))
		if owned += len(cols); owned > limit {
			return false
		}
	}
	return true
}

// overlayOf wraps w in a delta overlay with added nodes and patched rows:
// edges upserted (a few hubs gain many, and some reach the added nodes) and
// removed, with unit or dyadic weights to match w.
func overlayOf(w *sparse.CSR, weighted bool, seed int64) *delta.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := delta.New(w)
	n := g.AddNodes(1 + rng.Intn(8))
	weight := func() float64 {
		if !weighted {
			return 1
		}
		return []float64{0.5, 1, 2}[rng.Intn(3)]
	}
	for hub := 0; hub < 4; hub++ {
		u := rng.Intn(w.N)
		for e := 0; e < 15+rng.Intn(20); e++ {
			g.SetEdge(u, rng.Intn(n), weight())
		}
	}
	for e := 0; e < 40; e++ {
		g.SetEdge(rng.Intn(n), rng.Intn(n), weight())
	}
	for e := 0; e < 40; e++ {
		u := rng.Intn(w.N)
		if cols, _ := g.Row(u); len(cols) > 0 {
			g.RemoveEdge(u, int(cols[rng.Intn(len(cols))]))
		}
	}
	return g
}

// growRows extends an n×k matrix to rows rows, filling the new ones with
// fill().
func growRows(m *dense.Matrix, rows int, fill func() float64) *dense.Matrix {
	out := dense.New(rows, m.Cols)
	copy(out.Data, m.Data)
	for i := len(m.Data); i < len(out.Data); i++ {
		out.Data[i] = fill()
	}
	return out
}

// exactFixture is stepFixture over the CSR or over a delta overlay of it
// (patched rows, added nodes), plus an X̃ of the same kind of entries.
func exactFixture(t *testing.T, k int, weighted, dyadic, overlay bool, seed int64) (w RowIterator, hs, f, r, x *dense.Matrix, norms []float64, tol float64) {
	t.Helper()
	csr, hs, f, r, norms, _, tol := stepFixture(t, k, weighted, dyadic, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	val := func() float64 {
		if dyadic {
			return float64(rng.Intn(9)-4) / 4
		}
		return 2*rng.Float64() - 1
	}
	w = csr
	if overlay {
		ov := overlayOf(csr, weighted, seed)
		w = ov
		f = growRows(f, ov.Dim(), val)
		r = growRows(r, ov.Dim(), val)
		norms = append(norms, make([]float64, ov.Dim()-csr.N)...)
		for i := csr.N; i < ov.Dim(); i++ {
			norms[i] = infRow(r.Row(i))
		}
	}
	x = growRows(dense.New(0, k), w.Dim(), val)
	return w, hs, f, r, x, norms, tol
}

// TestExactRoundMatchesReference pins the whole-matrix round to the loops
// it replaced: over five rounds from a dirty state, F, R, the norms, the
// survivor lists (in order) and the returned max must be bit-identical to
// refExactRound — for k = 2..9, unit and weighted rows, random and dyadic
// entries (dyadic ones land norms exactly on tol), the CSR and a delta
// overlay with patched rows and added nodes, on one worker and on four.
func TestExactRoundMatchesReference(t *testing.T) {
	atTol := 0
	for k := 2; k <= 9; k++ {
		for _, weighted := range []bool{false, true} {
			for _, dyadic := range []bool{false, true} {
				for _, overlay := range []bool{false, true} {
					for _, workers := range []int{1, 4} {
						tag := fmt.Sprintf("k=%d weighted=%v dyadic=%v overlay=%v workers=%d", k, weighted, dyadic, overlay, workers)
						w, hs, f, r, x, norms, tol := exactFixture(t, k, weighted, dyadic, overlay, int64(31*k+5))
						run := Runner{Workers: workers}
						got := NewPass(w, hs, f.Clone(), r.Clone(), slices.Clone(norms), tol, run, nil)
						want := NewPass(w, hs, f.Clone(), r.Clone(), slices.Clone(norms), tol, run, nil)
						for round := 0; round < 5; round++ {
							gotMax, wantMax := got.ExactRound(x), refExactRound(want, x)
							if what, i, ok := samePass(got, want); !ok {
								t.Fatalf("%s round=%d: %s[%d] differs from the reference", tag, round, what, i)
							}
							if math.Float64bits(gotMax) != math.Float64bits(wantMax) {
								t.Fatalf("%s round=%d: max norm %v, reference %v", tag, round, gotMax, wantMax)
							}
							if g, w := got.survivors(nil), want.survivors(nil); !slices.Equal(g, w) {
								t.Fatalf("%s round=%d: survivors %v, reference %v", tag, round, g, w)
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
	}
	if atTol == 0 {
		t.Fatal("no norm landed exactly on tol: the survivor boundary is not exercised")
	}
}

// TestPassSurvivesGOMAXPROCSRise: a pass built while GOMAXPROCS is 1 and
// run after it rises must widen its per-chunk scratch, not index past it
// on a pool worker, where nothing recovers and the process dies. Three
// whole-matrix rounds, and a drain from the dirty frontier, each on a pass
// built at one worker and run at the restored width, must leave the same
// bits as the same work done at GOMAXPROCS 1 throughout.
func TestPassSurvivesGOMAXPROCSRise(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if chunks := (Runner{}).MaxChunks(); chunks < 2 {
		t.Skipf("the worker pool runs %d chunk: GOMAXPROCS cannot rise past it", chunks)
	}
	defer runtime.GOMAXPROCS(procs)
	w, hs, f, r, x, norms, tol := exactFixture(t, 3, true, false, false, 17)
	var active []int32
	for i, nv := range norms {
		if nv > tol {
			active = append(active, int32(i))
		}
	}
	build := func() *Pass {
		return NewPass(w, hs, f.Clone(), r.Clone(), slices.Clone(norms), tol, Runner{}, nil)
	}
	xf := func() *dense.Matrix { return x }

	runtime.GOMAXPROCS(1)
	want, got := build(), build()
	wantDrain, gotDrain := build(), build() // drains capped at 4 whole-matrix rounds
	var wantMax [3]float64
	for round := range wantMax {
		wantMax[round] = want.ExactRound(x)
	}
	wantPushed, _, _, wantSweeps, wantRem := wantDrain.Drain(slices.Clone(active), xf, 4, nil)

	runtime.GOMAXPROCS(procs)
	for round, m := range wantMax {
		if gotMax := got.ExactRound(x); math.Float64bits(gotMax) != math.Float64bits(m) {
			t.Fatalf("round %d: max norm %v at GOMAXPROCS %d, %v at 1", round, gotMax, procs, m)
		}
	}
	if what, i, ok := samePass(got, want); !ok {
		t.Fatalf("whole-matrix rounds: %s[%d] differs between GOMAXPROCS %d and 1", what, i, procs)
	}
	if g, w := got.survivors(nil), want.survivors(nil); !slices.Equal(g, w) {
		t.Fatalf("survivors %v at GOMAXPROCS %d, %v at 1", g, procs, w)
	}
	gotPushed, _, _, gotSweeps, gotRem := gotDrain.Drain(slices.Clone(active), xf, 4, nil)
	if gotSweeps == 0 || gotPushed != wantPushed || gotSweeps != wantSweeps || !slices.Equal(gotRem, wantRem) {
		t.Fatalf("drain: pushed/sweeps %d/%d at GOMAXPROCS %d, %d/%d at 1", gotPushed, gotSweeps, procs, wantPushed, wantSweeps)
	}
	if what, i, ok := samePass(gotDrain, wantDrain); !ok {
		t.Fatalf("drain: %s[%d] differs between GOMAXPROCS %d and 1", what, i, procs)
	}
}

// TestPricingMatchesReference: the row-length table prices every round as
// the Row walk did. Fresh passes over the CSR and then over a delta overlay
// of it (whose patched hubs own many more entries than their base rows)
// price random active sets cut just below, at and just past the point where
// the walk crosses nnz/DeltaDivisor, repeatedly, so a table that outlived
// its adjacency or missed a row would flip a decision.
func TestPricingMatchesReference(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		csr, hs, f, r, norms, _, tol := stepFixture(t, 3, weighted, false, 77)
		ov := overlayOf(csr, weighted, 78)
		for _, w := range []RowIterator{csr, ov} {
			n := w.Dim()
			p := NewPass(w, hs, growRows(f, n, func() float64 { return 0 }),
				growRows(r, n, func() float64 { return 0 }), append(slices.Clone(norms), make([]float64, n-len(norms))...), tol, Runner{Workers: 1}, nil)
			rng := rand.New(rand.NewSource(int64(n)))
			limit := w.NNZ() / p.divisor
			decisions := map[bool]int{}
			for trial := 0; trial < 300; trial++ {
				order := make([]int32, n)
				for i, v := range rng.Perm(n) {
					order[i] = int32(v)
				}
				cross, owned := n, 0
				for i, u := range order {
					cols, _ := w.Row(int(u))
					if owned += len(cols); owned > limit {
						cross = i
						break
					}
				}
				for _, cut := range []int{cross - 1, cross, cross + 1, rng.Intn(n + 1)} {
					active := order[:max(0, min(cut, n))]
					got, want := p.tracked(active), refTracked(p, active)
					if got != want {
						t.Fatalf("weighted=%v n=%d trial %d: %d active rows priced tracked=%v, reference %v", weighted, n, trial, len(active), got, want)
					}
					decisions[got]++
				}
			}
			if decisions[true] == 0 || decisions[false] == 0 {
				t.Fatalf("weighted=%v n=%d: decisions %v, want both", weighted, n, decisions)
			}
		}
	}
}

// loopAdj is a CSR whose product is a plain sequential loop: the same sums
// in the same order as the CSR kernels, but without their per-product
// closure on the worker pool, so an allocation count over a round measures
// the round alone.
type loopAdj struct{ *sparse.CSR }

func (a loopAdj) MulDenseInto(out, x *dense.Matrix) {
	k := x.Cols
	for i := 0; i < a.N; i++ {
		orow := out.Data[i*k : (i+1)*k]
		clear(orow)
		cols, wts := a.Row(i)
		wts = RowWeights(cols, wts)
		for q, c := range cols {
			for j, v := range x.Data[int(c)*k : int(c+1)*k] {
				orow[j] += wts[q] * v
			}
		}
	}
}

// TestRoundsAllocateNothing: after the first round of a pass has sized its
// scratch, a whole-matrix round and a priced scatter round allocate
// nothing (testing.AllocsPerRun runs at GOMAXPROCS 1). Each run restores
// the same dirty state first, so every run does the same work.
func TestRoundsAllocateNothing(t *testing.T) {
	for _, k := range []int{3, 5} {
		csr, hs, f, r, norms, active, tol := stepFixture(t, k, true, false, 5)
		x := dense.New(csr.N, k)
		f0, r0, n0 := slices.Clone(f.Data), slices.Clone(r.Data), slices.Clone(norms)
		reset := func() {
			copy(f.Data, f0)
			copy(r.Data, r0)
			copy(norms, n0)
		}
		p := NewPass(loopAdj{csr}, hs, f, r, norms, tol, Runner{Workers: 1}, nil)
		if a := testing.AllocsPerRun(10, func() {
			reset()
			p.ExactRound(x)
		}); a != 0 {
			t.Errorf("k=%d: ExactRound allocates %v times per round", k, a)
		}
		// The scatter round takes ownership of its input list and returns
		// the one it held: feed the returned list back as the next input.
		buf := slices.Clone(active)
		if a := testing.AllocsPerRun(10, func() {
			reset()
			buf = append(buf[:0], active...)
			if !p.tracked(buf) {
				t.Fatal("fixture frontier priced as a whole-matrix round")
			}
			buf, _, _ = p.scatterRound(buf, 0, 0)
		}); a != 0 {
			t.Errorf("k=%d: a priced scatter round allocates %v times per round", k, a)
		}
	}
}

// FuzzExactRound builds a small graph, a delta overlay of it (added nodes,
// upserts and removals), k, H̃, F, R, X̃ and tol from the fuzz bytes — every
// entry a small dyadic rational, so no NaN arises — and runs ExactRound and
// refExactRound side by side for a few rounds on the CSR and on the
// overlay. F, R, the norms, the survivors and the returned max must agree
// bit for bit.
func FuzzExactRound(f *testing.F) {
	f.Add([]byte{7, 1, 1, 12, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 0, 6, 2, 2, 8})
	f.Add([]byte{20, 6, 0, 40, 9, 1, 17, 3, 5, 3, 11, 12, 200, 3, 1, 4, 1, 5, 9, 2, 6})
	f.Add([]byte{3, 0, 1, 3, 0, 0, 1, 1, 2, 2, 0, 3, 5, 1, 0, 1, 255, 128, 64, 32, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		val := func() float64 { return float64(int8(next())) / 16 }
		weight := func() float64 { return []float64{0.5, 1, 2, 3}[next()%4] }
		n, k, weighted := 1+next()%24, 2+next()%8, next()%2 == 1
		var edges [][2]int32
		var wts []float64
		for e := next() % 64; e > 0; e-- {
			edges = append(edges, [2]int32{int32(next() % n), int32(next() % n)})
			wts = append(wts, weight())
		}
		if !weighted {
			wts = nil
		}
		csr, err := sparse.NewSymmetricFromEdges(n, edges, wts)
		if err != nil {
			t.Skip(err)
		}
		ov := delta.New(csr)
		dim := ov.AddNodes(next() % 4)
		for op := next() % 16; op > 0; op-- {
			u, v := next()%dim, next()%dim
			if next()%2 == 0 {
				ov.SetEdge(u, v, weight())
			} else {
				ov.RemoveEdge(u, v)
			}
		}
		hs := dense.New(k, k)
		for i := range hs.Data {
			hs.Data[i] = val() / 8
		}
		tol, rounds, run := float64(next()%8)/8, 1+next()%3, Runner{Workers: 1 + next()%4}
		for _, w := range []RowIterator{csr, ov} {
			rows := w.Dim()
			fm, r, x := dense.New(rows, k), dense.New(rows, k), dense.New(rows, k)
			for i := range fm.Data {
				fm.Data[i], r.Data[i], x.Data[i] = val(), val(), val()
			}
			norms := make([]float64, rows)
			for i := range norms {
				norms[i] = RowNorm(r.Row(i))
			}
			got := NewPass(w, hs, fm.Clone(), r.Clone(), slices.Clone(norms), tol, run, nil)
			want := NewPass(w, hs, fm, r, norms, tol, run, nil)
			for round := 0; round < rounds; round++ {
				gotMax, wantMax := got.ExactRound(x), refExactRound(want, x)
				if what, i, ok := samePass(got, want); !ok {
					t.Fatalf("n=%d k=%d round %d: %s[%d] differs from the reference", rows, k, round, what, i)
				}
				if math.Float64bits(gotMax) != math.Float64bits(wantMax) {
					t.Fatalf("n=%d k=%d round %d: max norm %v, reference %v", rows, k, round, gotMax, wantMax)
				}
				if g, w := got.survivors(nil), want.survivors(nil); !slices.Equal(g, w) {
					t.Fatalf("n=%d k=%d round %d: survivors %v, reference %v", rows, k, round, g, w)
				}
			}
		}
	})
}

// refFoldRound is FoldRound unfused, as the propagation solver's round ran
// before the fold: F = (x − c) + G into a matrix of its own, F·H̃ by
// MulRowsH, then W·(F·H̃) into G.
func refFoldRound(w RowIterator, x, g, hs *dense.Matrix, c float64) {
	f, fh := dense.New(g.Rows, g.Cols), dense.New(g.Rows, g.Cols)
	for i, v := range x.Data {
		f.Data[i] = (v - c) + g.Data[i]
	}
	MulRowsH(fh.Data, f.Data, hs.Data, hs.Cols)
	w.MulDenseInto(g, fh)
}

// FuzzFoldRound builds a small graph, a delta overlay of it, k, H̃, X, G
// and the centring shift c ∈ {0, 1/k} from the fuzz bytes — every entry a
// small dyadic rational, so no NaN arises — and runs FoldRound and
// refFoldRound side by side for a few rounds on the CSR and on the overlay,
// on 1 to 4 workers. G must agree bit for bit after every round.
func FuzzFoldRound(f *testing.F) {
	f.Add([]byte{7, 1, 1, 1, 12, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 0, 6, 2, 2, 8})
	f.Add([]byte{20, 3, 0, 0, 40, 9, 1, 17, 3, 5, 3, 11, 12, 200, 3, 1, 4, 1, 5, 9, 2, 6})
	f.Add([]byte{23, 7, 1, 1, 30, 0, 0, 1, 1, 2, 2, 0, 3, 5, 1, 0, 1, 255, 128, 64, 32, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		val := func() float64 { return float64(int8(next())) / 16 }
		weight := func() float64 { return []float64{0.5, 1, 2, 3}[next()%4] }
		n, k, weighted, centred := 1+next()%24, 2+next()%8, next()%2 == 1, next()%2 == 1
		var edges [][2]int32
		var wts []float64
		for e := next() % 64; e > 0; e-- {
			edges = append(edges, [2]int32{int32(next() % n), int32(next() % n)})
			wts = append(wts, weight())
		}
		if !weighted {
			wts = nil
		}
		csr, err := sparse.NewSymmetricFromEdges(n, edges, wts)
		if err != nil {
			t.Skip(err)
		}
		ov := delta.New(csr)
		dim := ov.AddNodes(next() % 4)
		for op := next() % 16; op > 0; op-- {
			u, v := next()%dim, next()%dim
			if next()%2 == 0 {
				ov.SetEdge(u, v, weight())
			} else {
				ov.RemoveEdge(u, v)
			}
		}
		hs := dense.New(k, k)
		for i := range hs.Data {
			hs.Data[i] = val() / 8
		}
		c := 0.0
		if centred {
			c = 1 / float64(k)
		}
		rounds, run := 1+next()%3, Runner{Workers: 1 + next()%4}
		for _, w := range []RowIterator{csr, ov} {
			rows := w.Dim()
			x, want := dense.New(rows, k), dense.New(rows, k)
			for i := range x.Data {
				x.Data[i], want.Data[i] = val(), val()
			}
			got, fh := want.Clone(), dense.New(rows, k)
			for round := 0; round < rounds; round++ {
				run.FoldRound(w, x, got, fh, hs, c)
				refFoldRound(w, x, want, hs, c)
				for i, v := range want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
						t.Fatalf("n=%d k=%d round %d: G[%d] is %v, reference %v", rows, k, round, i, got.Data[i], v)
					}
				}
			}
		}
	})
}
