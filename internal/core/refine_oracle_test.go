package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"ldprecover/internal/rng"
	"ldprecover/internal/stats"
)

// refineKKTRef is Algorithm 1 as a full-domain scan per round behind an
// active flag per item. RefineKKT must return exactly what it returns.
func refineKKTRef(estimate []float64) ([]float64, error) {
	if len(estimate) == 0 {
		return nil, errors.New("core: refine on empty vector")
	}
	if !stats.AllFinite(estimate) {
		return nil, errors.New("core: refine on non-finite vector")
	}
	d := len(estimate)
	active := make([]bool, d)
	for v := range active {
		active[v] = true
	}
	nActive := d
	out := make([]float64, d)
	for iter := 0; iter < d; iter++ {
		var sum float64
		for v := range estimate {
			if active[v] {
				sum += estimate[v]
			}
		}
		shift := (sum - 1) / float64(nActive)
		anyNegative := false
		for v := range estimate {
			if !active[v] {
				out[v] = 0
				continue
			}
			out[v] = estimate[v] - shift
			if out[v] < 0 {
				active[v] = false
				nActive--
				anyNegative = true
			}
		}
		if !anyNegative {
			return out, nil
		}
		if nActive == 0 {
			return nil, errors.New("core: refinement emptied the active set")
		}
	}
	return nil, errors.New("core: refinement failed to converge")
}

// checkRefineAgainstRef fails t unless RefineKKT and the reference
// agree bit for bit on every output entry and on the error text.
func checkRefineAgainstRef(t *testing.T, in []float64) {
	t.Helper()
	got, gotErr := RefineKKT(in)
	want, wantErr := refineKKTRef(in)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("in %v: error %v, reference %v", in, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("in %v: %d outputs, reference %d", in, len(got), len(want))
	}
	for v := range got {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("d=%d item %d: %v (%#x), reference %v (%#x)", len(in), v,
				got[v], math.Float64bits(got[v]), want[v], math.Float64bits(want[v]))
		}
	}
}

// TestRefineKKTMatchesReference: the compacted active list computes the
// reference's floats on hand-built edge cases and on random noisy
// estimates that take several demotion rounds.
func TestRefineKKTMatchesReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := [][]float64{
		nil,
		{0.3}, {-2}, {0}, {negZero}, {1e300},
		{-1, -2, -3, 0.5, -4},           // all negative but one
		{-1, -1, -1, -1, -1, -1, -1, 7}, // all negative but one, at the end
		{0.5, 0.5, 0.5, -1},             // shift lands exactly on the ties: outputs of 0 stay active
		{0.25, 0.25, 0.75, 0.75, -0.5},
		{1, 1, 1, 0, 0, 0},
		{1e-300, -1e-300, 1e10, -1e10, 0.5, 3e-8, -7},
		{math.NaN(), 1}, {math.Inf(1), 0},
		{math.MaxFloat64, math.MaxFloat64, -1},
	}
	for _, in := range cases {
		checkRefineAgainstRef(t, in)
	}
	r := rng.New(35)
	for trial := 0; trial < 400; trial++ {
		d := 1 + r.Intn(700)
		in := make([]float64, d)
		for v := range in {
			switch r.Intn(4) {
			case 0: // quarter steps: exact ties
				in[v] = float64(r.Intn(9)-4) / 4
			case 1: // mixed magnitudes
				in[v] = math.Ldexp(r.Float64()-0.5, r.Intn(80)-60)
			default: // an unbiased estimate: 1/d plus noise of either sign
				in[v] = 1/float64(d) + 0.05*r.NormFloat64()
			}
		}
		checkRefineAgainstRef(t, in)
	}
}

// FuzzRefineKKT checks RefineKKT against the reference on arbitrary
// vectors: raw float64 bit patterns (non-finite, subnormal, huge), or
// quarter steps that make ties at the threshold common.
func FuzzRefineKKT(f *testing.F) {
	f.Add([]byte{4, 4, 4, 252}, true)
	f.Add([]byte{255, 252, 1, 2, 3, 8, 0, 128}, true)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0xf0, 0xbf}, false)
	f.Fuzz(func(t *testing.T, raw []byte, quarter bool) {
		var in []float64
		if quarter {
			for _, b := range raw {
				in = append(in, float64(int8(b))/4)
			}
		} else {
			for ; len(raw) >= 8; raw = raw[8:] {
				var bits uint64
				for i := 7; i >= 0; i-- {
					bits = bits<<8 | uint64(raw[i])
				}
				in = append(in, math.Float64frombits(bits))
			}
		}
		checkRefineAgainstRef(t, in)
	})
}

// BenchmarkRefineKKT refines one noisy unbiased estimate at d=4096:
// a Zipf-like head under OUE ε=0.5 noise at 2^20 reports, so most of
// the tail goes negative and the loop runs several demotion rounds.
func BenchmarkRefineKKT(b *testing.B) {
	const d = 4096
	r := rng.New(43)
	in := make([]float64, d)
	for v := range in {
		in[v] = 0.1/float64(v+1) + 3.87e-3*r.NormFloat64()
	}
	b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RefineKKT(in); err != nil {
				b.Fatal(err)
			}
		}
	})
}
