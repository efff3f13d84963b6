package ldp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"ldprecover/internal/rng"
)

// denseReports perturbs n reports through OUE at d bits and ε=0.5, a
// budget at which every report is dense.
func denseReports(t testing.TB, d, n int, seed uint64) []Report {
	t.Helper()
	oue, err := NewOUE(d, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	reps := make([]Report, n)
	for i := range reps {
		if reps[i], err = oue.Perturb(r, r.Intn(d)); err != nil {
			t.Fatal(err)
		}
		if _, ok := reps[i].(OUEReport); !ok {
			t.Fatalf("report %d is %T, want a dense OUEReport", i, reps[i])
		}
	}
	return reps
}

// allOnes returns n dense reports of d bits with every bit set.
func allOnes(d, n int) []Report {
	reps := make([]Report, n)
	for i := range reps {
		b := NewBitset(d)
		for v := 0; v < d; v++ {
			b.Set(v)
		}
		reps[i] = OUEReport{Bits: b}
	}
	return reps
}

// marshalSubs marshals each report as a single-report wire frame.
func marshalSubs(t testing.TB, reps []Report) [][]byte {
	t.Helper()
	subs := make([][]byte, len(reps))
	for i, rep := range reps {
		b, err := MarshalReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = b
	}
	return subs
}

// batchOf frames sub-frames as an "LB" batch, as MarshalReportBatch
// would, whether or not they are valid.
func batchOf(subs [][]byte) []byte {
	out := append([]byte{batchMagic[0], batchMagic[1], batchVersion}, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(out[3:], uint32(len(subs)))
	for _, s := range subs {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s)))
		out = append(out, s...)
	}
	return out
}

// TestValidateStridedMatchesReference plants every unary rejection rule
// of the wire-format spec, plus the two faults a repeated dense head
// can hide (bits past the bit count, a sub-frame cut short), in
// sub-frame k of uniform dense batches, and cuts the declared count
// below the sub-frames present. The validator's fast path must
// refuse each exactly as the per-report reference does, error text and
// all, and must accept the intact batch.
func TestValidateStridedMatchesReference(t *testing.T) {
	const n = 17
	var unary []rejection
	for _, rc := range reportRejections(t) {
		if len(rc.frame) >= 2 && rc.frame[1] == tagUnary {
			unary = append(unary, rc)
		}
	}
	if len(unary) < 5 {
		t.Fatalf("found %d unary rejection rules in the spec, want at least 5", len(unary))
	}
	for _, d := range []int{64, 127, 128} {
		subs := marshalSubs(t, denseReports(t, d, n, uint64(d)))
		good := batchOf(subs)
		view, err := ValidateReportBatchFrame(good)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if view.Reports() != n {
			t.Fatalf("d=%d: %d reports, want %d", d, view.Reports(), n)
		}
		for _, k := range []int{0, 1, 7, 8, n - 1} {
			cases := append([]rejection(nil), unary...)
			if d%64 != 0 {
				stray := bytes.Clone(subs[k])
				stray[len(stray)-1] |= 0x80 // bit 63 of the last word, past bit d-1
				cases = append(cases, rejection{"same head, stray bit past the bit count", stray})
			}
			for _, rc := range cases {
				planted := append([][]byte(nil), subs...)
				planted[k] = rc.frame
				checkSameVerdict(t, fmt.Sprintf("d=%d k=%d %s", d, k, rc.name), batchOf(planted))
			}
			// A batch that ends inside sub-frame k, whose head still
			// matches: the fast path's length check must refuse it.
			cut := 7 + k*(4+len(subs[0])) + 4 + len(subs[0])/2
			checkSameVerdict(t, fmt.Sprintf("d=%d k=%d cut inside", d, k), good[:cut])
			// The same, with the count cut to k+1 so it passes the
			// frame-level size check.
			short := bytes.Clone(good[:cut])
			binary.LittleEndian.PutUint32(short[3:], uint32(k+1))
			checkSameVerdict(t, fmt.Sprintf("d=%d k=%d cut inside, count %d", d, k, k+1), short)
			// Every sub-frame present but the count cut to k+1: the run
			// of repeats must stop at the declared count.
			if k+1 < n {
				over := bytes.Clone(good)
				binary.LittleEndian.PutUint32(over[3:], uint32(k+1))
				checkSameVerdict(t, fmt.Sprintf("d=%d count %d of %d present", d, k+1, n), over)
			}
		}
	}
}

// checkSameVerdict fails unless ValidateReportBatchFrame refuses frame
// with the reference validator's error text.
func checkSameVerdict(t *testing.T, label string, frame []byte) {
	t.Helper()
	_, got := ValidateReportBatchFrame(frame)
	_, want := refValidateBatchFrame(frame)
	if want == nil {
		t.Fatalf("%s: the reference accepts the planted frame", label)
	}
	if got == nil || got.Error() != want.Error() {
		t.Errorf("%s: error %v, reference %v", label, got, want)
	}
}

// TestReportFrameStrideFolds: frames whose dense head changes partway —
// 127-bit then 128-bit reports (same word count), two widths, dense →
// sparse → dense — and frames of one repeated head must fold exactly as
// the decoded reports do through AddBatch and as the header-parsing
// reference walker does.
func TestReportFrameStrideFolds(t *testing.T) {
	sparseOUE, err := NewOUE(128, 4.5)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	sparse := make([]Report, 3)
	for i := range sparse {
		if sparse[i], err = sparseOUE.Perturb(r, i); err != nil {
			t.Fatal(err)
		}
		if _, ok := sparse[i].(SparseUnaryReport); !ok {
			t.Fatalf("report %d is %T, want sparse", i, sparse[i])
		}
	}
	cat := func(parts ...[]Report) []Report {
		var out []Report
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	cases := []struct {
		name string
		d    int
		reps []Report
	}{
		{"127 then 128 bits", 128, cat(denseReports(t, 127, 9, 1), denseReports(t, 128, 12, 2))},
		{"128 then 127 bits", 128, cat(denseReports(t, 128, 16, 3), denseReports(t, 127, 3, 4))},
		{"64 then 128 bits", 128, cat(denseReports(t, 64, 8, 5), denseReports(t, 128, 21, 6))},
		{"dense sparse dense", 128, cat(denseReports(t, 128, 10, 7), sparse, denseReports(t, 128, 11, 8))},
		{"sparse then dense", 128, cat(sparse, denseReports(t, 128, 17, 9))},
		{"uniform 127 bits", 127, denseReports(t, 127, 8*3+5, 10)},
		{"uniform 128 bits, 7 reports", 128, denseReports(t, 128, 7, 11)},
		// Past denseCSAGroups groups, so the strided kernel flushes
		// mid-run, and, with every bit set, past what the counter planes
		// hold without that flush.
		{"uniform 64 bits past a flush", 64, denseReports(t, 64, 8*(denseCSAGroups+1)+3, 12)},
		{"all ones past the plane capacity", 64, allOnes(64, 1<<planeLevels+5)},
	}
	for _, tc := range cases {
		frame, err := MarshalReportBatch(tc.reps)
		if err != nil {
			t.Fatal(err)
		}
		view, err := ValidateReportBatchFrame(frame)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ref, _ := NewAccumulator(tc.d)
		if err := ref.AddBatch(tc.reps); err != nil {
			t.Fatal(err)
		}
		walker, _ := NewAccumulator(tc.d)
		walker.refAddReportFrame(view)
		got, _ := NewAccumulator(tc.d)
		got.addReportFrame(view)
		for name, acc := range map[string]*Accumulator{"reference walker": walker, "strided fold": got} {
			if acc.Total() != ref.Total() || !reflect.DeepEqual(acc.Counts(), ref.Counts()) {
				t.Errorf("%s: %s diverged from AddBatch", tc.name, name)
			}
		}
	}
}
