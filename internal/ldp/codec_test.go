package ldp

import (
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"ldprecover/internal/rng"
)

func TestCodecRoundTripGRR(t *testing.T) {
	in := GRRReport(42)
	buf, err := MarshalReport(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalReport(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(GRRReport); got != in {
		t.Fatalf("round trip %v -> %v", in, got)
	}
}

func TestCodecRoundTripUnary(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130, 490} {
		bits := NewBitset(n)
		bits.Set(0)
		if n > 5 {
			bits.Set(5)
		}
		bits.Set(n - 1)
		in := OUEReport{Bits: bits}
		buf, err := MarshalReport(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := UnmarshalReport(buf)
		if err != nil {
			t.Fatal(err)
		}
		got := out.(OUEReport)
		if got.Bits.Len() != n || got.Bits.Count() != bits.Count() {
			t.Fatalf("n=%d: round trip lost bits", n)
		}
		for v := 0; v < n; v++ {
			if got.Bits.Get(v) != bits.Get(v) {
				t.Fatalf("n=%d: bit %d mismatch", n, v)
			}
		}
	}
}

func TestCodecRoundTripOLH(t *testing.T) {
	in := OLHReport{Seed: 0xdeadbeefcafef00d, Value: 2, G: 3}
	buf, err := MarshalReport(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalReport(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(OLHReport); got != in {
		t.Fatalf("round trip %+v -> %+v", in, got)
	}
}

func TestCodecMarshalValidation(t *testing.T) {
	if _, err := MarshalReport(GRRReport(-1)); err == nil {
		t.Fatal("negative GRR accepted")
	}
	if _, err := MarshalReport(OUEReport{}); err == nil {
		t.Fatal("nil bitset accepted")
	}
	if _, err := MarshalReport(OLHReport{Seed: 1, Value: 5, G: 3}); err == nil {
		t.Fatal("value >= g accepted")
	}
	if _, err := MarshalReport(nil); err == nil {
		t.Fatal("nil report accepted")
	}
}

// reportFrame assembles a single-report wire frame from a version, a
// tag and little-endian uint32 payload fields.
func reportFrame(version, tag byte, fields ...uint32) []byte {
	b := []byte{version, tag}
	for _, f := range fields {
		b = binary.LittleEndian.AppendUint32(b, f)
	}
	return b
}

// TestCodecUnmarshalValidation is the wire-format spec of a single
// report: one case per rejection rule. Each case must fail
// UnmarshalReport on its own and, wrapped as a one-report batch and as
// the second report of a batch behind a valid one, must fail
// ValidateReportBatchFrame, UnmarshalReportBatch and
// Accumulator.AddBatchFrame with ErrCodec (and the case's text, if it
// names one), leaving the accumulator as it was.
func TestCodecUnmarshalValidation(t *testing.T) {
	cases := reportRejections(t)

	const d = 8
	bits := bitsetOf(d, 1, 6)
	valid, err := MarshalReport(OUEReport{Bits: bits})
	if err != nil {
		t.Fatal(err)
	}
	good, err := MarshalReportBatch([]Report{GRRReport(3), OUEReport{Bits: bits}})
	if err != nil {
		t.Fatal(err)
	}
	acc, _ := NewAccumulator(d)
	if err := acc.AddBatchFrame(good); err != nil {
		t.Fatal(err)
	}
	wantCounts, wantTotal := acc.Counts(), acc.Total()

	for _, tc := range cases {
		check := func(what string, err error) {
			t.Helper()
			if !errors.Is(err, ErrCodec) || !strings.Contains(err.Error(), tc.text) {
				t.Errorf("%s: %s error %v, want ErrCodec naming %q", tc.name, what, err, tc.text)
			}
		}
		_, err := UnmarshalReport(tc.frame)
		check("UnmarshalReport", err)
		for _, batch := range [][]byte{batchOf([][]byte{tc.frame}), batchOf([][]byte{valid, tc.frame})} {
			_, err = ValidateReportBatchFrame(batch)
			check("ValidateReportBatchFrame", err)
			_, err = UnmarshalReportBatch(batch)
			check("UnmarshalReportBatch", err)
			check("AddBatchFrame", acc.AddBatchFrame(batch))
			if acc.Total() != wantTotal || !reflect.DeepEqual(acc.Counts(), wantCounts) {
				t.Fatalf("%s: a rejected frame moved the accumulator", tc.name)
			}
		}
	}
}

// rejection is one malformed single-report frame of the wire-format
// spec; text, when set, is what its error must say.
type rejection struct {
	name  string
	frame []byte
	text  string
}

// reportRejections returns the single-report spec cases of
// TestCodecUnmarshalValidation, one per rejection rule.
func reportRejections(t testing.TB) []rejection {
	t.Helper()
	const maxBits = 1 << 26
	// Unary with stray bits beyond the declared length.
	bits := NewBitset(65)
	bits.Set(64)
	stray, err := MarshalReport(OUEReport{Bits: bits})
	if err != nil {
		t.Fatal(err)
	}
	stray[len(stray)-1] |= 0x80 // set a bit past position 64

	return []rejection{
		{"empty", nil, ""},
		{"short", []byte{1}, ""},
		{"bad version", reportFrame(9, tagGRR, 0), ""},
		{"unknown tag", reportFrame(1, 99, 0), ""},
		{"short GRR payload", []byte{1, tagGRR, 0, 0}, ""},
		{"long GRR payload", reportFrame(1, tagGRR, 0, 0), ""},
		{"short unary payload", []byte{1, tagUnary, 0, 0}, ""},
		{"unary zero bit count", reportFrame(1, tagUnary, 0), ""},
		{"unary bit count above 2^26", reportFrame(1, tagUnary, maxBits+1), ""},
		{"unary payload length mismatch", reportFrame(1, tagUnary, 65, 0, 0), ""},
		{"unary stray bits", stray, ""},
		{"retired OLH v1 tag", reportFrame(1, tagOLHV1, 9, 0, 1, 4), "retired v1"},
		{"short OLH payload", []byte{1, tagOLH, 0, 0, 0}, ""},
		{"OLH g<2", reportFrame(1, tagOLH, 9, 0, 0, 1), ""},
		{"OLH value>=g", reportFrame(1, tagOLH, 9, 0, 4, 4), ""},
		// A well-formed sparse unary frame: 4096 bits, supports 1, 17,
		// 400 and 4095 (the FuzzUnmarshalReport seed-sparse bytes).
		{"retired sparse unary tag", reportFrame(1, tagSparse, 4096, 4, 1, 17, 400, 4095), "retired"},
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed uint64, pick uint8) bool {
		r := rng.New(seed)
		var in Report
		switch pick % 3 {
		case 0:
			in = GRRReport(r.Intn(1 << 20))
		case 1:
			n := r.Intn(300) + 1
			bits := NewBitset(n)
			for i := 0; i < n; i++ {
				if r.Bernoulli(0.3) {
					bits.Set(i)
				}
			}
			in = OUEReport{Bits: bits}
		default:
			g := r.Intn(14) + 2
			in = OLHReport{Seed: r.Uint64(), Value: r.Intn(g), G: g}
		}
		buf, err := MarshalReport(in)
		if err != nil {
			return false
		}
		out, err := UnmarshalReport(buf)
		if err != nil {
			return false
		}
		// Supports must agree over a generous probe range.
		for v := 0; v < 64; v++ {
			if in.Supports(v) != out.Supports(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestCodecThroughAggregation shuttles a whole population across the
// wire and checks the estimates are unchanged.
func TestCodecThroughAggregation(t *testing.T) {
	const d, eps = 12, 0.8
	oue, _ := NewOUE(d, eps)
	r := rng.New(9)
	counts := make([]int64, d)
	for i := range counts {
		counts[i] = 200
	}
	reports, err := PerturbAll(oue, r, counts)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := EstimateFrequencies(reports, oue.Params())
	if err != nil {
		t.Fatal(err)
	}
	wire := make([]Report, len(reports))
	for i, rep := range reports {
		buf, err := MarshalReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		wire[i], err = UnmarshalReport(buf)
		if err != nil {
			t.Fatal(err)
		}
	}
	viaWire, err := EstimateFrequencies(wire, oue.Params())
	if err != nil {
		t.Fatal(err)
	}
	for v := range direct {
		if direct[v] != viaWire[v] {
			t.Fatalf("estimates diverged at %d: %v vs %v", v, direct[v], viaWire[v])
		}
	}
}

func FuzzUnmarshalReport(f *testing.F) {
	// Seed with valid encodings of each type plus junk.
	grr, _ := MarshalReport(GRRReport(7))
	f.Add(grr)
	bits := NewBitset(70)
	bits.Set(3)
	unary, _ := MarshalReport(OUEReport{Bits: bits})
	f.Add(unary)
	olh, _ := MarshalReport(OLHReport{Seed: 99, Value: 1, G: 3})
	f.Add(olh)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := UnmarshalReport(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted reports must be internally consistent.
		buf, err := MarshalReport(rep)
		if err != nil {
			t.Fatalf("re-marshal of accepted report failed: %v", err)
		}
		back, err := UnmarshalReport(buf)
		if err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		for v := 0; v < 16; v++ {
			if rep.Supports(v) != back.Supports(v) {
				t.Fatal("support set changed across round trip")
			}
		}
	})
}

// TestCodecRejectsLegacyOLHFamily: wire tag 3 carried hash values from
// the retired v1 family; decoding them under the current two-stage
// family would silently destroy every estimate, so the codec must
// refuse them loudly.
func TestCodecRejectsLegacyOLHFamily(t *testing.T) {
	legacy := []byte{
		1, 3, // version 1, legacy OLH tag
		0, 0, 0, 0, 0, 0, 0, 42, // seed
		1, 0, 0, 0, // value
		3, 0, 0, 0, // g
	}
	if _, err := UnmarshalReport(legacy); err == nil {
		t.Fatal("legacy v1-family OLH report decoded without error")
	}
	// Current OLH reports round-trip under the v2 tag.
	rep := OLHReport{Seed: 42, Value: 1, G: 3}
	buf, err := MarshalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	if buf[1] != 5 {
		t.Fatalf("OLH marshaled with tag %d, want 5 (v2 family)", buf[1])
	}
	back, err := UnmarshalReport(buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.(OLHReport) != rep {
		t.Fatalf("round trip changed report: %+v", back)
	}
}
