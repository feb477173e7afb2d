package residual

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"factorgraph/internal/exec"
	"factorgraph/internal/sparse"
)

// refPatchKernel is the heap-tier push step as it was written before the
// tracked schedules shared one step (exec.AddRowNorm): a per-edge weight
// test and a compare-and-branch ∞-norm. It is kept as the reference the
// rewritten push must match bit for bit.
type refPatchKernel struct{ p *Patch }

func (k refPatchKernel) Norm(node int32) float64 { return patchKernel(k).Norm(node) }

func (k refPatchKernel) Push(node int32, dirtied func(int32, float64)) int {
	p := k.p
	base := p.base
	kk := base.k
	rRow := p.resRow(node)
	fRow := p.beliefRow(node)
	for j := 0; j < kk; j++ {
		fRow[j] += rRow[j]
	}
	rowBuf, rhBuf := p.sc.rowBuf, p.sc.rhBuf
	copy(rowBuf, rRow)
	for j := 0; j < kk; j++ {
		rRow[j] = 0
	}
	exec.MulRowsH(rhBuf, rowBuf, base.hScaled.Data, kk)
	cols, wts := base.w.Row(int(node))
	for q, v := range cols {
		wv := 1.0
		if wts != nil {
			wv = wts[q]
		}
		nRow := p.resRow(v)
		norm := 0.0
		for j := 0; j < kk; j++ {
			nRow[j] += wv * rhBuf[j]
			a := nRow[j]
			if a < 0 {
				a = -a
			}
			if a > norm {
				norm = a
			}
		}
		dirtied(v, norm)
	}
	return len(cols)
}

// sessionRows reads a sparse-tier session's slot storage back as node → row
// maps: its cloned belief rows and its residual rows.
func sessionRows(p *Patch) (beliefs, res map[int32][]float64) {
	beliefs, res = map[int32][]float64{}, map[int32][]float64{}
	for i, node := range p.sc.touched {
		res[node] = p.resRow(node)
		if p.sc.owned[i] {
			beliefs[node] = p.Row(int(node))
		}
	}
	return beliefs, res
}

// sameRows reports the first node whose row differs bit for bit between
// two node → row maps.
func sameRows(a, b map[int32][]float64) (int32, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for node, ra := range a {
		rb, ok := b[node]
		if !ok || len(ra) != len(rb) {
			return node, false
		}
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				return node, false
			}
		}
	}
	return 0, true
}

// TestPushMatchesReference: the heap-tier push over the shared step drains
// a label patch exactly as the reference loop does — same pushes, edges and
// outcome, and bit-identical belief and residual rows — for k = 2..9 on
// unit and weighted graphs.
func TestPushMatchesReference(t *testing.T) {
	const n = 300
	for k := 2; k <= 9; k++ {
		for _, weighted := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(k)))
			var edges [][2]int32
			var wts []float64
			for len(edges) < 3*n {
				edges = append(edges, [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))})
				wts = append(wts, 0.25+rng.Float64())
			}
			if !weighted {
				wts = nil
			}
			w, err := sparse.NewSymmetricFromEdges(n, edges, wts)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewState(w, testH(k, 0.6), Options{Tol: 1e-9})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Init(randX(n, k, 0.1, rng)); err != nil {
				t.Fatal(err)
			}
			got, want := s.BeginPatch(), s.BeginPatch()
			for i := 0; i < 3; i++ {
				node := rng.Intn(n)
				delta := make([]float64, k)
				delta[rng.Intn(k)] = 1
				delta[rng.Intn(k)] -= 0.5
				got.AddDelta(node, delta)
				want.AddDelta(node, delta)
			}
			gp, ge, gout := exec.Drain(got.front, patchKernel{got}, 0)
			wp, we, wout := exec.Drain(want.front, refPatchKernel{want}, 0)
			tag := fmt.Sprintf("k=%d weighted=%v", k, weighted)
			if gp != wp || ge != we || gout != wout {
				t.Fatalf("%s: pushed/edges/outcome %d/%d/%v, reference %d/%d/%v", tag, gp, ge, gout, wp, we, wout)
			}
			if gp == 0 {
				t.Fatalf("%s: nothing pushed", tag)
			}
			gotRows, gotRes := sessionRows(got)
			wantRows, wantRes := sessionRows(want)
			if node, ok := sameRows(gotRows, wantRows); !ok {
				t.Fatalf("%s: belief row %d differs from the reference", tag, node)
			}
			if node, ok := sameRows(gotRes, wantRes); !ok {
				t.Fatalf("%s: residual row %d differs from the reference", tag, node)
			}
			got.Abort()
			want.Abort()
		}
	}
}
