package serve

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// appendShortestF is strconv.AppendFloat(b, f, 'f', -1, 64) for the doubles
// JSON writes in 'f' form: normal f with 1e-6 ≤ |f| < 1e21, every classify
// score among them. It finds the same shortest, closest decimal as
// strconv's Ryū by Schubfach (R. Giulietti, "The Schubfach way to render
// doubles", 2020): three 128-bit products where Ryū trims digit by digit,
// and the digits go straight into b. ok is false,
// and b returned as it came, for any other f — zero, subnormals, the 'e'
// range, NaN and ±Inf — which appendFloat hands to strconv.
func appendShortestF(b []byte, f float64) ([]byte, bool) {
	if a := math.Abs(f); !(a >= 1e-6 && a < 1e21) {
		return b, false
	}
	u := math.Float64bits(f)
	c := u&(1<<52-1) | 1<<52
	q := int(u>>52&0x7ff) - 1075 // f = ±c·2^q
	var d uint64                 // f = ±d·10^e
	var e int
	if q <= 0 && bits.TrailingZeros64(c) >= -q {
		d = c >> -q // an integer below 2^53, printed exactly as strconv does
	} else {
		var ok bool
		if d, e, ok = schubfach(c, q); !ok {
			return b, false
		}
	}
	for d%10 == 0 {
		d /= 10
		e++
	}

	// Lay the digits out as strconv's fmtF does at precision -1.
	nd := decimalLen(d)
	dp := nd + e // digits before the decimal point; ≤ 0 means 0.000ddd
	var n int
	switch {
	case dp <= 0:
		n = 2 - dp + nd
	case dp < nd:
		n = nd + 1
	default:
		n = dp
	}
	i := len(b)
	if f < 0 {
		n++
	}
	b = slices.Grow(b, n)[:i+n]
	out := b[i:]
	if f < 0 {
		out[0] = '-'
		out = out[1:]
	}
	switch {
	case dp <= 0:
		for j := range out[:2-dp] {
			out[j] = '0'
		}
		out[1] = '.'
		putDigits(out[2-dp:], d)
	case dp < nd:
		putDigits(out[1:], d)
		copy(out, out[1:dp+1])
		out[dp] = '.'
	default:
		putDigits(out[:nd], d)
		for j := nd; j < dp; j++ {
			out[j] = '0'
		}
	}
	return b, true
}

// schubfach returns the shortest decimal d·10^e that rounds to c·2^q, for
// c ∈ [2^52, 2^53), and of two such the closer, a tie going to the even d:
// strconv's choice. The rounding interval's ends are admissible iff c is
// even, as round half to even reads them back as c only then. ok is false
// when e, the k below, falls outside the g table.
func schubfach(c uint64, q int) (d uint64, e int, ok bool) {
	out := c & 1 // 1 when the interval's ends are excluded
	cb := c << 2
	cbl, cbr := cb-2, cb+2
	var k int
	if c != 1<<52 {
		k = log10Pow2(q)
	} else {
		// At a power of two the gap below is half the gap above.
		cbl = cb - 1
		k = log10ThreeQuartersPow2(q)
	}
	if k < gMinK || k >= gMinK+len(gTable) {
		return 0, 0, false
	}
	g := gTable[k-gMinK]
	h := q + log2Pow10(-k) + 2
	vb := rop(g[0], g[1], cb<<h)
	vbl := rop(g[0], g[1], cbl<<h)
	vbr := rop(g[0], g[1], cbr<<h)

	// vb, vbl and vbr are 4·10^-k times v and its interval's ends, rounded
	// to odd, so comparisons against 4·s are exact. The interval holds at
	// most one multiple of 10^(k+1): if it does, that one is the answer.
	s := vb >> 2
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp10, k, true
		}
		return tp10, k, true
	}
	// Otherwise s·10^k or (s+1)·10^k, whichever lies inside, or the closer
	// of the two with ties to even.
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k, true
		}
		return t, k, true
	}
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k, true
	}
	return t, k, true
}

// rop is cp·g·2^-127 rounded to odd, g = g1·2^63 + g0: the floor, with its
// lowest bit set when the product is not an integer.
func rop(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	const mask63 = 1<<63 - 1
	return (y1 + z>>63) | (z&mask63+mask63)>>63
}

// log10Pow2 is ⌊q·log₁₀2⌋, log10ThreeQuartersPow2 ⌊log₁₀(¾·2^q)⌋ and
// log2Pow10 ⌊e·log₂10⌋, by multiply-shift; TestSchubfachLogs checks them
// against math/big far past the range used here.
func log10Pow2(q int) int              { return q * 661_971_961_083 >> 41 }
func log10ThreeQuartersPow2(q int) int { return (q*661_971_961_083 - 274_743_187_321) >> 41 }
func log2Pow10(e int) int              { return e * 913_124_641_741 >> 38 }

// gTable holds g = ⌊10^-k / 2^r⌋ + 1 as {g >> 63, g mod 2^63}, with r the
// one integer that puts g in [2^125, 2^126), for k from gMinK up: the k of
// every double in [1e-6, 1e21). TestSchubfachTable recomputes it.
const gMinK = -22

var gTable = [...][2]uint64{
	{0x43c33c1937564800, 0x0000000000000001}, // -22
	{0x6c6b935b8bbd4000, 0x0000000000000001}, // -21
	{0x56bc75e2d6310000, 0x0000000000000001}, // -20
	{0x4563918244f40000, 0x0000000000000001}, // -19
	{0x6f05b59d3b200000, 0x0000000000000001}, // -18
	{0x58d15e1762800000, 0x0000000000000001}, // -17
	{0x470de4df82000000, 0x0000000000000001}, // -16
	{0x71afd498d0000000, 0x0000000000000001}, // -15
	{0x5af3107a40000000, 0x0000000000000001}, // -14
	{0x48c2739500000000, 0x0000000000000001}, // -13
	{0x746a528800000000, 0x0000000000000001}, // -12
	{0x5d21dba000000000, 0x0000000000000001}, // -11
	{0x4a817c8000000000, 0x0000000000000001}, // -10
	{0x7735940000000000, 0x0000000000000001}, // -9
	{0x5f5e100000000000, 0x0000000000000001}, // -8
	{0x4c4b400000000000, 0x0000000000000001}, // -7
	{0x7a12000000000000, 0x0000000000000001}, // -6
	{0x61a8000000000000, 0x0000000000000001}, // -5
	{0x4e20000000000000, 0x0000000000000001}, // -4
	{0x7d00000000000000, 0x0000000000000001}, // -3
	{0x6400000000000000, 0x0000000000000001}, // -2
	{0x5000000000000000, 0x0000000000000001}, // -1
	{0x4000000000000000, 0x0000000000000001}, // 0
	{0x6666666666666666, 0x3333333333333334}, // 1
	{0x51eb851eb851eb85, 0x0f5c28f5c28f5c29}, // 2
	{0x4189374bc6a7ef9d, 0x5916872b020c49bb}, // 3
	{0x68db8bac710cb295, 0x74f0d844d013a92b}, // 4
	{0x53e2d6238da3c211, 0x43f3e0370cdc8755}, // 5
}

// decimalLen is the number of decimal digits of d > 0.
func decimalLen(d uint64) int {
	t := bits.Len64(d) * 1233 >> 12 // ⌊log₁₀ d⌋ or one more
	if d >= pow10[t] {
		return t + 1
	}
	return t
}

var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// putDigits writes the decimal digits of d into all of dst, right-aligned,
// in blocks of 8 split off at 1e8.
func putDigits(dst []byte, d uint64) {
	i := len(dst)
	for ; i >= 8; i -= 8 {
		binary.LittleEndian.PutUint64(dst[i-8:], digits8(uint32(d%1e8)))
		d /= 1e8
	}
	switch {
	case i == 1:
		dst[0] = '0' + byte(d)
	case i > 1:
		var last [8]byte
		binary.LittleEndian.PutUint64(last[:], digits8(uint32(d)))
		copy(dst[:i], last[8-i:])
	}
}

// digits8 is v < 1e8 as 8 ASCII digits, leading zeros kept, first digit in
// the low byte: the two 4-digit halves, their 2-digit quarters and then the
// digits are split in parallel lanes of one word (divisions by 100 and 10
// as multiply-shifts exact below 10 000 and 100).
func digits8(v uint32) uint64 {
	x := uint64(v/1e4) | uint64(v%1e4)<<32
	y := x * 10486 >> 20 & 0x7f_0000007f
	x = (x-100*y)<<16 | y
	y = x * 103 >> 10 & 0xf000f000f000f
	x = (x-10*y)<<8 | y
	return x | 0x30303030_30303030
}
