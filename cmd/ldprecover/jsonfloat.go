package main

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
)

// appendJSONFloat appends f as encoding/json encodes a float64: the
// shortest decimal that parses back to f (of those, the closest to f,
// ties to an even last digit), in 'f' form when 1e-6 <= |f| < 1e21 or
// f is ±0, and otherwise in 'e' form with a one-digit negative exponent
// unpadded ("1e-7", not "1e-07"). f must be finite.
//
// The 'f' range, which holds every nonzero estimate value in practice,
// takes the Schubfach decision procedure (Giulietti, "The Schubfach way
// to render doubles", 2020) over exact integer arithmetic; see
// shortestDecimal. The 'e' range is left to strconv, as encoding/json
// does it.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs < 1e-6 || abs >= 1e21 {
		if abs == 0 {
			if math.Signbit(f) {
				return append(b, "-0"...)
			}
			return append(b, '0')
		}
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	if f < 0 {
		b = append(b, '-')
	}
	digits, exp := shortestDecimal(abs)
	var buf [17]byte
	ds := putDigits(&buf, digits)
	for ds[len(ds)-1] == '0' {
		ds = ds[:len(ds)-1]
		exp++
	}
	// point is the number of digits before the decimal point, at least -5
	// in this range.
	switch point := len(ds) + exp; {
	case exp >= 0:
		b = append(b, ds...)
		return append(b, "00000000000000000000"[:exp]...)
	case point > 0:
		b = append(b, ds[:point]...)
		b = append(b, '.')
		return append(b, ds[point:]...)
	default:
		b = append(b, "0.00000"[:2-point]...)
		return append(b, ds...)
	}
}

// putDigits writes d < 10^17 as 17 decimal digits and returns them less
// their leading zeros. Each run of eight is formatted in one 64-bit
// register: split into halves of four digits, quarters of two, then
// single digits, every lane of a step with the same multiply and shift.
func putDigits(buf *[17]byte, d uint64) []byte {
	buf[0] = byte('0' + d/1e16)
	binary.LittleEndian.PutUint64(buf[1:], eightDigits(uint32(d/1e8%1e8)))
	binary.LittleEndian.PutUint64(buf[9:], eightDigits(uint32(d%1e8)))
	// t is floor(log10(d)) or one more; 10^t = 5^t·2^t.
	t := bits.Len64(d) * 1233 >> 12
	if d < pow5[t]<<t {
		t--
	}
	return buf[16-t:]
}

// eightDigits returns x < 10^8 as eight ASCII digits, the most
// significant in the low byte.
func eightDigits(x uint32) uint64 {
	v := uint64(x/10000) | uint64(x%10000)<<32
	q := v * 5243 >> 19 & 0x0000007f_0000007f // /100 per 32-bit lane, exact below 43699
	v = q | (v-q*100)<<16
	q = v * 103 >> 10 & 0x000f_000f_000f_000f // /10 per 16-bit lane, exact below 179
	v = q | (v-q*10)<<8
	return v + 0x3030_3030_3030_3030
}

// pow5 holds 5^n for n = 0..22, the odd factor of 10^n = 5^n<<n. The
// 'f' range scales by 10^-k for k in [-22, 5], and 5^22 < 2^52 keeps
// every product below 2^107. TestPow10TableMatchesBig regenerates it.
var pow5 = [...]uint64{
	1,
	5,
	25,
	125,
	625,
	3125,
	15625,
	78125,
	390625,
	1953125,
	9765625,
	48828125,
	244140625,
	1220703125,
	6103515625,
	30517578125,
	152587890625,
	762939453125,
	3814697265625,
	19073486328125,
	95367431640625,
	476837158203125,
	2384185791015625,
}

// floorLog10Pow2 is floor(log10(2^q)) and floorLog10ThreeQuartersPow2
// is floor(log10(3/4·2^q)), exact far beyond |q| <= 72 (Giulietti's
// constants, 2^41·log10(2) and 2^41·log10(4/3)).
func floorLog10Pow2(q int) int {
	return int(int64(q) * 661_971_961_083 >> 41)
}

func floorLog10ThreeQuartersPow2(q int) int {
	return int((int64(q)*661_971_961_083 - 274_743_187_321) >> 41)
}

// scaleToOdd returns x·2^q·10^-k rounded to odd: its floor, with the
// lowest bit set when the quotient is not an integer. Rounding to odd
// keeps every comparison with an even integer exact, which is all
// shortestDecimal asks of it. Callers keep the result below 2^64 and,
// for k > 0, q-k in [3, 13] so the dividend's high word stays below 5^k.
func scaleToOdd(x uint64, q, k int) uint64 {
	if k > 0 {
		// x·2^q / 10^k = x·2^(q-k) / 5^k.
		sh := uint(q - k)
		quo, rem := bits.Div64(x>>(64-sh), x<<sh, pow5[k])
		if rem != 0 {
			quo |= 1
		}
		return quo
	}
	// x·2^q·10^-k = x·5^-k · 2^(q-k).
	hi, lo := bits.Mul64(x, pow5[-k])
	if q > k {
		return lo << uint(q-k)
	}
	sh := uint(k - q)
	r := hi<<(64-sh) | lo>>sh
	if lo<<(64-sh) != 0 {
		r |= 1
	}
	return r
}

// shortestDecimal returns digits and exp with v = digits·10^exp the
// shortest decimal that rounds to v, the closest to v of those, ties to
// an even last digit: strconv's shortest form, though digits may end in
// zeros. v is normal with 1e-6 <= v < 1e21.
//
// This is Schubfach: with v = c·2^q, k is picked so that v's rounding
// interval R (half-way to each neighbour, ends included when c is even)
// is at least 10^k and less than 10^(k+1) wide. So R holds at most one
// multiple of 10^(k+1), which if present is the shortest answer, and at
// least one of s·10^k and (s+1)·10^k, s = floor(v/10^k). The interval's
// ends and v, times 4·10^-k, are compared against the candidates times
// 4 — even integers — so rounding them to odd loses nothing, and in this
// range the scaling is exact in 128-bit integer arithmetic.
func shortestDecimal(v float64) (digits uint64, exp int) {
	fb := math.Float64bits(v)
	frac := fb & (1<<52 - 1)
	q := int(fb>>52) - 1075
	c := 1<<52 | frac
	out := c & 1 // an odd c excludes R's ends
	cb := c << 2
	cbl, k := cb-2, floorLog10Pow2(q)
	if frac == 0 {
		// The neighbour below is half as far: R is 3/4·2^q wide.
		cbl, k = cb-1, floorLog10ThreeQuartersPow2(q)
	}
	vb := scaleToOdd(cb, q, k)
	vbl := scaleToOdd(cbl, q, k)
	vbr := scaleToOdd(cb+2, q, k)

	s := vb >> 2
	sp := s / 10 * 10
	switch {
	case vbl+out <= sp<<2:
		digits = sp
	case (sp+10)<<2+out <= vbr:
		digits = sp + 10
	default:
		t := s + 1
		uin := vbl+out <= s<<2
		win := t<<2+out <= vbr
		mid := (s + t) << 1
		if uin && (!win || vb < mid || vb == mid && s&1 == 0) {
			digits = s
		} else {
			digits = t
		}
	}
	return digits, k
}
