package ldp

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"ldprecover/internal/rng"
)

// wireReports builds a deterministic mix of every marshalable report
// shape — dense unary, sparse unary, OLH, GRR — interleaved so the
// frame walkers see many run boundaries.
func wireReports(t testing.TB, d, n int) []Report {
	t.Helper()
	r := rng.New(271)
	oue, err := NewOUE(d, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	oueSparse, err := NewOUE(d, 4.5)
	if err != nil {
		t.Fatal(err)
	}
	olh, err := NewOLH(d, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	grr, err := NewGRR(d, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var reps []Report
	for i := 0; i < n; i++ {
		v := r.Intn(d)
		var proto Protocol
		switch i % 6 {
		case 0, 1, 2:
			proto = oue
		case 3:
			proto = oueSparse
		case 4:
			proto = olh
		default:
			proto = grr
		}
		rep, err := proto.Perturb(r, v)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	return reps
}

// TestAddBatchFrameMatchesDecodedExact pins the zero-copy lane's core
// guarantee: folding the wire frame in place is bit-identical to
// decoding it and folding the reports, through both the sequential and
// the sharded engines.
func TestAddBatchFrameMatchesDecodedExact(t *testing.T) {
	for _, d := range []int{64, 100, 130, 200} {
		reps := wireReports(t, d, 700)
		frame, err := MarshalReportBatch(reps)
		if err != nil {
			t.Fatal(err)
		}

		decoded, err := UnmarshalReportBatch(frame)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewAccumulator(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.AddBatch(decoded); err != nil {
			t.Fatal(err)
		}

		zc, err := NewAccumulator(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := zc.AddBatchFrame(frame); err != nil {
			t.Fatal(err)
		}
		if zc.Total() != ref.Total() {
			t.Fatalf("d=%d: totals %d vs %d", d, zc.Total(), ref.Total())
		}
		if !reflect.DeepEqual(zc.Counts(), ref.Counts()) {
			t.Fatalf("d=%d: zero-copy counts diverged from decoded", d)
		}

		sa, err := NewShardedAccumulator(d, 3)
		if err != nil {
			t.Fatal(err)
		}
		view, err := ValidateReportBatchFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		sa.AddReportFrame(view)
		if !reflect.DeepEqual(sa.Counts(), ref.Counts()) {
			t.Fatalf("d=%d: sharded zero-copy counts diverged", d)
		}
	}
}

// TestAddBatchFrameOverlongReports: reports wider than the accumulator's
// domain must drop out-of-domain bits exactly like the decoded path.
func TestAddBatchFrameOverlongReports(t *testing.T) {
	const repBits = 192
	const d = 100
	reps := wireReports(t, repBits, 300)
	reps = append(reps, SparseUnaryReport{N: repBits, Items: []int32{5, 99, 100, 191}})
	frame, err := MarshalReportBatch(reps)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := NewAccumulator(d)
	decoded, err := UnmarshalReportBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.AddBatch(decoded); err != nil {
		t.Fatal(err)
	}
	zc, _ := NewAccumulator(d)
	if err := zc.AddBatchFrame(frame); err != nil {
		t.Fatal(err)
	}
	if zc.Total() != ref.Total() || !reflect.DeepEqual(zc.Counts(), ref.Counts()) {
		t.Fatal("zero-copy over-long fold diverged from decoded")
	}
}

// TestAddBatchFrameLongDenseRun pushes a homogeneous dense frame through
// several CSA flush boundaries plus a non-multiple-of-8 tail.
func TestAddBatchFrameLongDenseRun(t *testing.T) {
	const d = 193
	oue, err := NewOUE(d, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(88)
	reps := make([]Report, 8*300+5)
	for i := range reps {
		rep, err := oue.Perturb(r, i%d)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	frame, err := MarshalReportBatch(reps)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := NewAccumulator(d)
	if err := ref.AddBatch(reps); err != nil {
		t.Fatal(err)
	}
	zc, _ := NewAccumulator(d)
	if err := zc.AddBatchFrame(frame); err != nil {
		t.Fatal(err)
	}
	if zc.Total() != ref.Total() || !reflect.DeepEqual(zc.Counts(), ref.Counts()) {
		t.Fatal("zero-copy dense run diverged from AddBatch")
	}
}

// TestValidateFrameMatchesDecode: the allocation-free validator must
// accept exactly the frames the decoder accepts — checked over a valid
// frame, every single-bit corruption of it, and every truncation.
func TestValidateFrameMatchesDecode(t *testing.T) {
	const d = 130
	reps := wireReports(t, d, 40)
	frame, err := MarshalReportBatch(reps)
	if err != nil {
		t.Fatal(err)
	}
	check := func(data []byte) {
		t.Helper()
		view, verr := ValidateReportBatchFrame(data)
		decoded, derr := UnmarshalReportBatch(data)
		if (verr == nil) != (derr == nil) {
			t.Fatalf("validator/decoder disagree: validate=%v decode=%v", verr, derr)
		}
		if verr == nil && view.Reports() != len(decoded) {
			t.Fatalf("validator count %d, decoder count %d", view.Reports(), len(decoded))
		}
	}
	check(frame)
	for i := range frame {
		bad := bytes.Clone(frame)
		bad[i] ^= 0x40
		check(bad)
	}
	for n := 0; n < len(frame); n++ {
		check(frame[:n])
	}
	check(append(bytes.Clone(frame), 0))
}

// TestAddBatchFrameErrorLeavesUntouched: a frame that fails validation
// must fold nothing — validation completes before any count moves.
func TestAddBatchFrameErrorLeavesUntouched(t *testing.T) {
	const d = 64
	reps := wireReports(t, d, 50)
	frame, err := MarshalReportBatch(reps)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate inside the last report so a streaming fold would have
	// already counted everything before it.
	bad := frame[:len(frame)-1]
	acc, _ := NewAccumulator(d)
	if err := acc.AddBatchFrame(bad); err == nil {
		t.Fatal("corrupt frame folded cleanly")
	}
	if acc.Total() != 0 {
		t.Fatalf("failed fold moved the total to %d", acc.Total())
	}
	for v, c := range acc.Counts() {
		if c != 0 {
			t.Fatalf("failed fold moved count[%d] to %d", v, c)
		}
	}
	// The same accumulator still works after a rejected frame.
	if err := acc.AddBatchFrame(frame); err != nil {
		t.Fatal(err)
	}
	if acc.Total() != int64(len(reps)) {
		t.Fatalf("total %d want %d", acc.Total(), len(reps))
	}
}

// TestAddReportFrameZeroViewAndRejectedFrame: only a validated view
// reaches the fold. A frame whose last report is corrupt, which a
// streaming fold would already have half counted, is stopped by
// validation; the zero view folds nothing; and the accumulator still
// folds good frames exactly around both.
func TestAddReportFrameZeroViewAndRejectedFrame(t *testing.T) {
	const d = 64
	reps := wireReports(t, d, 50)
	good, err := MarshalReportBatch(reps)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := MarshalReportBatch(append(reps, GRRReport(1)))
	if err != nil {
		t.Fatal(err)
	}
	bad[len(bad)-5] = 99 // the last report's protocol tag
	acc, _ := NewAccumulator(d)
	if err := acc.AddBatchFrame(good); err != nil {
		t.Fatal(err)
	}
	if err := acc.AddBatchFrame(bad); !errors.Is(err, ErrCodec) {
		t.Fatalf("corrupt last report: error %v, want ErrCodec", err)
	}
	acc.addReportFrame(ReportFrame{})
	view, err := ValidateReportBatchFrame(good)
	if err != nil {
		t.Fatal(err)
	}
	acc.addReportFrame(view)
	ref, _ := NewAccumulator(d)
	for range 2 {
		if err := ref.AddBatch(reps); err != nil {
			t.Fatal(err)
		}
	}
	if acc.Total() != ref.Total() || !reflect.DeepEqual(acc.Counts(), ref.Counts()) {
		t.Fatal("folds around a rejected frame and the zero view diverged from AddBatch")
	}
}

// TestAddBatchFrameSteadyStateZeroAlloc pins the lane's reason to
// exist: with warmed scratch, folding a wire frame allocates nothing —
// no reports, no bitsets, no per-call state — whether the frame comes
// as bytes (AddBatchFrame) or is validated into a view and folded
// (ValidateReportBatchFrame + AddReportFrame, what serve runs).
func TestAddBatchFrameSteadyStateZeroAlloc(t *testing.T) {
	const d = 128
	reps := wireReports(t, d, 512)
	frame, err := MarshalReportBatch(reps)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewAccumulator(d)
	if err != nil {
		t.Fatal(err)
	}
	for name, fold := range map[string]func(){
		"AddBatchFrame": func() {
			if err := acc.AddBatchFrame(frame); err != nil {
				t.Fatal(err)
			}
		},
		"validate+AddReportFrame": func() {
			view, err := ValidateReportBatchFrame(frame)
			if err != nil {
				t.Fatal(err)
			}
			acc.addReportFrame(view)
		},
	} {
		fold() // warm the scratch
		if allocs := testing.AllocsPerRun(10, fold); allocs > 0 {
			t.Errorf("%s: %v allocs per zero-copy fold, want 0", name, allocs)
		}
	}
}

// FuzzReportBatchFrame drives the validator, the decoder, and the
// zero-copy folds against each other over arbitrary bytes: they must
// agree on acceptance, and on accepted frames the view's report count
// must equal the decoded length and both in-place folds (AddBatchFrame
// and AddReportFrame of the view) must equal the decoded fold exactly.
func FuzzReportBatchFrame(f *testing.F) {
	seedReps := []Report{GRRReport(3), SparseUnaryReport{N: 64, Items: []int32{1, 7}},
		OLHReport{Seed: 9, Value: 1, G: 16}}
	if frame, err := MarshalReportBatch(seedReps); err == nil {
		f.Add(frame)
	}
	if frame, err := MarshalReportBatch(nil); err == nil {
		f.Add(frame)
	}
	f.Add([]byte("LB"))
	// Uniform dense batches, which the validator checks and the fold
	// reads by stride: 17 reports of 127 bits (tail bits to check), the
	// same with a stray bit past the bit count in report 9, and 17
	// reports of 128 bits.
	for _, d := range []int{127, 128} {
		subs := marshalSubs(f, denseReports(f, d, 17, uint64(d)))
		f.Add(batchOf(subs))
		if d%64 != 0 {
			subs[9] = bytes.Clone(subs[9])
			subs[9][len(subs[9])-1] |= 0x80
			f.Add(batchOf(subs))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const d = 96
		view, verr := ValidateReportBatchFrame(data)
		decoded, derr := UnmarshalReportBatch(data)
		if (verr == nil) != (derr == nil) {
			t.Fatalf("validator/decoder disagree: validate=%v decode=%v", verr, derr)
		}
		if _, rerr := refValidateBatchFrame(data); (verr == nil) != (rerr == nil) ||
			(verr != nil && verr.Error() != rerr.Error()) {
			t.Fatalf("validator error %v, per-report reference %v", verr, rerr)
		}
		if verr != nil {
			return
		}
		if view.Reports() != len(decoded) {
			t.Fatalf("validator count %d, decoder count %d", view.Reports(), len(decoded))
		}
		ref, _ := NewAccumulator(d)
		if err := ref.AddBatch(decoded); err != nil {
			t.Fatal(err)
		}
		zc, _ := NewAccumulator(d)
		if err := zc.AddBatchFrame(data); err != nil {
			t.Fatalf("validated frame failed to fold: %v", err)
		}
		if zc.Total() != ref.Total() || !reflect.DeepEqual(zc.Counts(), ref.Counts()) {
			t.Fatal("zero-copy fold diverged from decoded fold")
		}
		viewAcc, _ := NewAccumulator(d)
		viewAcc.addReportFrame(view)
		if viewAcc.Total() != ref.Total() || !reflect.DeepEqual(viewAcc.Counts(), ref.Counts()) {
			t.Fatal("fold of the validated view diverged from decoded fold")
		}
	})
}

// BenchmarkReportFrame times the two stages a report frame passes
// through on the report lane and in WAL replay, separately, on one
// 269-report OUE d=128, ε=0.5 frame (the report count of ldpload's
// crash-replay frames): validate is ValidateReportBatchFrame, fold is
// the fold of the validated view. ns/report is per report in the frame.
func BenchmarkReportFrame(b *testing.B) {
	const d, n = 128, 269
	oue, err := NewOUE(d, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(5)
	reps := make([]Report, n)
	for i := range reps {
		if reps[i], err = oue.Perturb(r, r.Intn(d)); err != nil {
			b.Fatal(err)
		}
	}
	frame, err := MarshalReportBatch(reps)
	if err != nil {
		b.Fatal(err)
	}
	view, err := ValidateReportBatchFrame(frame)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("validate/oue-d128", func(b *testing.B) {
		for b.Loop() {
			if _, err := ValidateReportBatchFrame(frame); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/report")
	})
	b.Run("fold/oue-d128", func(b *testing.B) {
		acc, err := NewAccumulator(d)
		if err != nil {
			b.Fatal(err)
		}
		for b.Loop() {
			acc.addReportFrame(view)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/report")
	})
}
