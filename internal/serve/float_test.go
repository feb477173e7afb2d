package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"math/rand/v2"
	"reflect"
	"strconv"
	"testing"
)

// refAppendFloat is appendFloat before appendShortestF: strconv for every
// double, kept verbatim as the reference the fast path must reproduce.
func refAppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// checkFloat asserts that appendFloat renders f as the strconv reference
// does, after a prefix it must keep, and fails exactly when it does.
func checkFloat(t testing.TB, f float64) {
	t.Helper()
	var wb, gb [40]byte
	want, wantErr := refAppendFloat(append(wb[:0], "x:"...), f)
	got, err := appendFloat(append(gb[:0], "x:"...), f)
	if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
		t.Fatalf("%#016x (%v): got %q, %v; want %q, %v", math.Float64bits(f), f, got, err, want, wantErr)
	}
}

// FuzzAppendFloat: any float64 bit pattern renders as the strconv reference
// and as json.Marshal render it, NaN and ±Inf failing in all three.
func FuzzAppendFloat(f *testing.F) {
	seeds := []float64{
		0.1 + 0.2, 1e-6, 1e21, 0.25, 1 << 53, 123.456, math.NaN(),
		1<<50 + 0.25,                             // a tie, to the even digit
		math.Float64frombits(0x4378d82e7b7c662b), // wrong with g one short
	}
	for _, v := range seeds {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		v := math.Float64frombits(u)
		checkFloat(t, v)
		got, err := appendFloat(nil, v)
		want, wantErr := json.Marshal(v)
		if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
			t.Fatalf("%#016x: got %q, %v; json.Marshal %q, %v", u, got, err, want, wantErr)
		}
	})
}

// TestAppendFloatBoundaries: the fast path against the strconv reference
// where the two could part — every power of two and its neighbours (the
// asymmetric interval), both ends of the 'f' range, integers about 2^53 —
// and on seeded random mantissas in every binary exponent of the 'f' range,
// which reach all of Schubfach's branches (ties to even at 2^50 among them).
func TestAppendFloatBoundaries(t *testing.T) {
	check := func(f float64) {
		checkFloat(t, f)
		checkFloat(t, -f)
	}
	for e := -1074; e <= 1023; e++ {
		p := math.Ldexp(1, e)
		check(p)
		check(math.Nextafter(p, 0))
		check(math.Nextafter(p, math.Inf(1)))
	}
	for _, f := range []float64{1e-6, 1e21} {
		check(f)
		check(math.Nextafter(f, 0))
		check(math.Nextafter(f, math.Inf(1)))
	}
	for d := 1.0; d <= 4; d++ {
		check(1<<53 + d)
		check(1<<53 - d)
	}
	for _, f := range []float64{0, 0.1 + 0.2, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		check(f)
	}

	perExp := 100_000
	if testing.Short() {
		perExp = 2_000
	}
	rng := rand.New(rand.NewPCG(44, 44))
	for e := math.Ilogb(1e-6); e <= math.Ilogb(1e21); e++ {
		for i := 0; i < perExp; i++ {
			u := rng.Uint64()
			checkFloat(t, math.Copysign(math.Ldexp(1+float64(u>>12)/(1<<52), e), float64(u&1)-0.5))
		}
	}
}

// TestSchubfachTable recomputes every g with math/big: g − 1 = ⌊10^-k/2^r⌋
// with g in [2^125, 2^126).
func TestSchubfachTable(t *testing.T) {
	for i, g := range gTable {
		k := gMinK + i
		num := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(abs(k))), nil)
		den := big.NewInt(1)
		if k > 0 {
			num, den = den, num
		}
		if r := log2Pow10(-k) - 125; r < 0 {
			num.Lsh(num, uint(-r))
		} else {
			den.Lsh(den, uint(r))
		}
		want := new(big.Int).Quo(num, den)
		want.Add(want, big.NewInt(1))
		got := new(big.Int).Lsh(new(big.Int).SetUint64(g[0]), 63)
		got.Or(got, new(big.Int).SetUint64(g[1]))
		if got.Cmp(want) != 0 || want.BitLen() != 126 || g[1] >= 1<<63 {
			t.Errorf("k=%d: g = %#x, want %#x", k, got, want)
		}
	}
	for _, f := range []float64{1e-6, math.Nextafter(1e21, 0)} {
		_, q := math.Frexp(f)
		if k := log10Pow2(q - 53); k < gMinK || k >= gMinK+len(gTable) {
			t.Errorf("%v: k=%d outside the table", f, k)
		}
	}
}

// TestSchubfachLogs checks the multiply-shift logarithms exactly:
// 10^k ≤ 2^q < 10^(k+1) for k = log10Pow2(q), the same around ¾·2^q for
// log10ThreeQuartersPow2, and 2^r ≤ 10^e < 2^(r+1) for r = log2Pow10(e).
func TestSchubfachLogs(t *testing.T) {
	pow := func(base int64, e int) *big.Rat {
		p := new(big.Int).Exp(big.NewInt(base), big.NewInt(int64(abs(e))), nil)
		if e < 0 {
			return new(big.Rat).SetFrac(big.NewInt(1), p)
		}
		return new(big.Rat).SetInt(p)
	}
	within := func(x, lo, hi *big.Rat) bool { return lo.Cmp(x) <= 0 && x.Cmp(hi) < 0 }
	threeQuarters := big.NewRat(3, 4)
	for q := -1100; q <= 1100; q++ {
		x := pow(2, q)
		if k := log10Pow2(q); !within(x, pow(10, k), pow(10, k+1)) {
			t.Errorf("log10Pow2(%d) = %d", q, k)
		}
		x.Mul(x, threeQuarters)
		if k := log10ThreeQuartersPow2(q); !within(x, pow(10, k), pow(10, k+1)) {
			t.Errorf("log10ThreeQuartersPow2(%d) = %d", q, k)
		}
	}
	for e := -340; e <= 340; e++ {
		if r := log2Pow10(e); !within(pow(10, e), pow(2, r), pow(2, r+1)) {
			t.Errorf("log2Pow10(%d) = %d", e, r)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// BenchmarkAppendFloat renders belief-like scores, the stream's floats,
// through the fast path and through the strconv reference.
func BenchmarkAppendFloat(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	scores := make([]float64, 1024)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	for _, bc := range []struct {
		name string
		fn   func([]byte, float64) ([]byte, error)
	}{{"schubfach", appendFloat}, {"strconv", refAppendFloat}} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]byte, 0, 64)
			for i := 0; i < b.N; i++ {
				buf, _ = bc.fn(buf[:0], scores[i%len(scores)])
			}
		})
	}
}
