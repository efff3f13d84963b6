package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"
	"strconv"
	"testing"
)

// checkJSONFloat fails unless appendJSONFloat, appending after existing
// bytes, writes exactly what json.Marshal writes for f.
func checkJSONFloat(t testing.TB, f float64) {
	t.Helper()
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	got := appendJSONFloat([]byte{'['}, f)
	if string(got[1:]) != string(want) || got[0] != '[' {
		t.Fatalf("appendJSONFloat(%#016x) = %q, encoding/json writes %q", math.Float64bits(f), got[1:], want)
	}
}

// fastExponents is the biased-exponent span of 1e-6 <= |f| < 1e21, the
// range appendJSONFloat formats itself.
func fastExponents() (lo, hi uint64) {
	return math.Float64bits(1e-6) >> 52, math.Float64bits(math.Nextafter(1e21, 0)) >> 52
}

// TestAppendJSONFloatMatchesEncodingJSON holds the formatter to
// encoding/json byte for byte: random bit patterns across the whole
// float64 space and within the 'f' range, every exponent of that range
// (and a margin either side) at its extreme and random mantissas, powers
// of ten and their neighbours, the range's edges, ±0, subnormals and
// integers.
func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 26))
	lo, hi := fastExponents()
	t.Run("random-bits", func(t *testing.T) {
		for range 200_000 {
			if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				checkJSONFloat(t, f)
			}
		}
		for range 500_000 {
			e := lo + r.Uint64N(hi-lo+1)
			checkJSONFloat(t, math.Float64frombits(r.Uint64()&(1<<63|1<<52-1)|e<<52))
		}
	})
	t.Run("every-exponent", func(t *testing.T) {
		// Mantissa 0 is the one whose neighbour below is closer.
		mantissas := []uint64{0, 1, 2, 3, 1 << 51, 1<<51 + 1, 1<<52 - 3, 1<<52 - 2, 1<<52 - 1}
		for e := lo - 3; e <= hi+3; e++ {
			for _, m := range mantissas {
				checkJSONFloat(t, math.Float64frombits(e<<52|m))
				checkJSONFloat(t, -math.Float64frombits(e<<52|m))
			}
			for range 2000 {
				checkJSONFloat(t, math.Float64frombits(e<<52|r.Uint64N(1<<52)))
			}
		}
	})
	t.Run("powers-of-ten", func(t *testing.T) {
		for n := -9; n <= 23; n++ {
			p, err := strconv.ParseFloat("1e"+strconv.Itoa(n), 64)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range []float64{p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)),
				math.Nextafter(math.Nextafter(p, 0), 0), 9 * p, 5 * p, 0.5 * p, 0.1 * p, 3 * p} {
				checkJSONFloat(t, f)
				checkJSONFloat(t, -f)
			}
		}
		for _, f := range []float64{1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
			1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
			0.1, 0.2, 0.3, 1.0 / 3, 2.0 / 3, 1 << 50, 1<<50 + 0.25, 1<<50 + 0.75, 1<<51 + 0.5} {
			checkJSONFloat(t, f)
			checkJSONFloat(t, -f)
		}
	})
	t.Run("zeros-subnormals-integers", func(t *testing.T) {
		for _, f := range []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
			math.Float64frombits(1<<52 - 1), math.Float64frombits(1 << 51), math.MaxFloat64} {
			checkJSONFloat(t, f)
			checkJSONFloat(t, -f)
		}
		for range 10_000 {
			checkJSONFloat(t, math.Float64frombits(r.Uint64N(1<<52)))
		}
		for i := range 10_000 {
			checkJSONFloat(t, float64(i))
			checkJSONFloat(t, float64(1<<53-i))
			checkJSONFloat(t, float64(r.Int64()))
			checkJSONFloat(t, float64(r.Int64N(1e16)))
		}
	})
}

// TestEightDigits checks eightDigits at every value of each of its
// four-digit lanes. Lanes never carry into each other, so pairing each
// high half with two low halves covers every lane value.
func TestEightDigits(t *testing.T) {
	var buf [8]byte
	for hi := range uint32(10000) {
		for _, x := range []uint32{hi*10000 + hi, hi*10000 + 9999 - hi} {
			binary.LittleEndian.PutUint64(buf[:], eightDigits(x))
			if want := fmt.Sprintf("%08d", x); string(buf[:]) != want {
				t.Fatalf("eightDigits(%d) = %q, want %q", x, buf[:], want)
			}
		}
	}
}

// TestPow10TableMatchesBig regenerates pow5 from math/big and checks
// that every exponent of the 'f' range picks a k whose power of ten it
// covers: 10^k <= w < 10^(k+1) for the rounding interval's width w, 2^q,
// or 3/4·2^q when the mantissa is 0.
func TestPow10TableMatchesBig(t *testing.T) {
	five := big.NewInt(5)
	p := big.NewInt(1)
	for n, got := range pow5 {
		if !p.IsUint64() || p.Uint64() != got {
			t.Fatalf("pow5[%d] = %d, want %s", n, got, p)
		}
		p.Mul(p, five)
	}
	lo, hi := fastExponents()
	// pow10 returns 10^k as a rational, so negative k compares exactly.
	pow10 := func(k int) *big.Rat {
		x := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(k, -k))), nil)
		if k < 0 {
			return new(big.Rat).SetFrac(big.NewInt(1), x)
		}
		return new(big.Rat).SetInt(x)
	}
	for e := lo; e <= hi; e++ {
		q := int(e) - 1075
		two := new(big.Rat).SetFloat64(math.Ldexp(1, q))
		threeQuarters := new(big.Rat).Mul(two, big.NewRat(3, 4))
		for _, c := range []struct {
			name  string
			k     int
			width *big.Rat
		}{
			{"2^q", floorLog10Pow2(q), two},
			{"3/4·2^q", floorLog10ThreeQuartersPow2(q), threeQuarters},
		} {
			if c.width.Cmp(pow10(c.k)) < 0 || c.width.Cmp(pow10(c.k+1)) >= 0 {
				t.Fatalf("q=%d: k=%d does not bracket %s", q, c.k, c.name)
			}
			if -c.k >= len(pow5) || c.k >= len(pow5) {
				t.Fatalf("q=%d: k=%d is outside pow5", q, c.k)
			}
		}
	}
}

// FuzzJSONFloat holds appendJSONFloat to encoding/json on any finite
// float64 bit pattern.
func FuzzJSONFloat(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0),
		math.Nextafter(1e21, 0), 1e21, 0.1, 1 << 50, 1<<50 + 0.25, 0.000244140625,
		math.SmallestNonzeroFloat64, math.MaxFloat64, -123.456} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, fb uint64) {
		if v := math.Float64frombits(fb); !math.IsNaN(v) && !math.IsInf(v, 0) {
			checkJSONFloat(t, v)
		}
	})
}
