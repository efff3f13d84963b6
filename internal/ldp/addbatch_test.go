package ldp

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"ldprecover/internal/rng"
)

// fallbackReport exercises addBatch's generic path: a report type the
// fast paths do not know.
type fallbackReport struct{ v int }

func (f fallbackReport) Supports(v int) bool { return v == f.v }
func (f fallbackReport) AddSupports(counts []int64) {
	if f.v >= 0 && f.v < len(counts) {
		counts[f.v]++
	}
}

// mixedReports builds a deterministic grab-bag of every report shape:
// dense unary at ε=0.5 and ε=4.5 (value and pointer boxed), OLH, GRR,
// and the fallback type, interleaved so addBatch sees many run
// boundaries.
func mixedReports(t *testing.T, d int) []Report {
	t.Helper()
	r := rng.New(314)
	oue, err := NewOUE(d, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	oueHighEps, err := NewOUE(d, 4.5)
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
	for i := 0; i < 700; i++ {
		v := r.Intn(d)
		switch i % 7 {
		case 0, 1:
			rep, err := oue.Perturb(r, v)
			if err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				o := rep.(OUEReport)
				reps = append(reps, &o)
			} else {
				reps = append(reps, rep)
			}
		case 2:
			rep, err := oueHighEps.Perturb(r, v)
			if err != nil {
				t.Fatal(err)
			}
			o := rep.(OUEReport)
			if i%2 == 0 {
				reps = append(reps, &o)
			} else {
				reps = append(reps, o)
			}
		case 3, 4:
			rep, err := olh.Perturb(r, v)
			if err != nil {
				t.Fatal(err)
			}
			ol := rep.(OLHReport)
			if i%2 == 0 {
				reps = append(reps, &ol)
			} else {
				reps = append(reps, ol)
			}
		case 5:
			rep, err := grr.Perturb(r, v)
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, rep)
		default:
			reps = append(reps, fallbackReport{v: v})
		}
	}
	return reps
}

// TestAddBatchMatchesSequentialExact: the batched fast paths must be
// bit-identical to folding the same reports one at a time.
func TestAddBatchMatchesSequentialExact(t *testing.T) {
	for _, d := range []int{64, 100, 130, 200} {
		reps := mixedReports(t, d)

		seq, err := NewAccumulator(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range reps {
			if err := seq.Add(rep); err != nil {
				t.Fatal(err)
			}
		}

		bat, err := NewAccumulator(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := bat.AddBatch(reps); err != nil {
			t.Fatal(err)
		}

		if seq.Total() != bat.Total() {
			t.Fatalf("d=%d: totals %d vs %d", d, seq.Total(), bat.Total())
		}
		sc, bc := seq.Counts(), bat.Counts()
		for v := range sc {
			if sc[v] != bc[v] {
				t.Fatalf("d=%d item %d: sequential %d batched %d", d, v, sc[v], bc[v])
			}
		}

		// Same through the sharded engine.
		sa, err := NewShardedAccumulator(d, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := sa.AddBatch(reps); err != nil {
			t.Fatal(err)
		}
		shc := sa.Counts()
		for v := range sc {
			if sc[v] != shc[v] {
				t.Fatalf("d=%d item %d: sequential %d sharded-batched %d", d, v, sc[v], shc[v])
			}
		}
	}
}

// TestAddBatchPlaneFlushBoundary pushes a long homogeneous dense run
// (several multiples of the 255-report counter capacity, plus a
// remainder) through the bit-plane path.
func TestAddBatchPlaneFlushBoundary(t *testing.T) {
	const d = 193 // tail word with 1 live bit
	oue, err := NewOUE(d, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(88)
	reps := make([]Report, 255*3+17)
	for i := range reps {
		rep, err := oue.Perturb(r, i%d)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	seq, _ := NewAccumulator(d)
	for _, rep := range reps {
		_ = seq.Add(rep)
	}
	bat, _ := NewAccumulator(d)
	if err := bat.AddBatch(reps); err != nil {
		t.Fatal(err)
	}
	sc, bc := seq.Counts(), bat.Counts()
	for v := range sc {
		if sc[v] != bc[v] {
			t.Fatalf("item %d: sequential %d batched %d", v, sc[v], bc[v])
		}
	}
}

// TestAddBatchOverlongReports: reports wider than the accumulator's
// domain must drop out-of-domain bits exactly like AddSupports does.
func TestAddBatchOverlongReports(t *testing.T) {
	const repBits = 192
	const d = 100
	oue, err := NewOUE(repBits, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(19)
	reps := make([]Report, 300)
	for i := range reps {
		rep, err := oue.Perturb(r, i%repBits)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	// An over-long report whose set bits straddle the domain edge.
	reps = append(reps, OUEReport{Bits: bitsetOf(repBits, 5, 99, 100, 191)})

	seq, _ := NewAccumulator(d)
	for _, rep := range reps {
		_ = seq.Add(rep)
	}
	bat, _ := NewAccumulator(d)
	if err := bat.AddBatch(reps); err != nil {
		t.Fatal(err)
	}
	sc, bc := seq.Counts(), bat.Counts()
	for v := range sc {
		if sc[v] != bc[v] {
			t.Fatalf("item %d: sequential %d batched %d", v, sc[v], bc[v])
		}
	}
}

// TestAddBatchDegenerateOLHReports: hand-built OLH reports with
// out-of-range value/g must aggregate bit-identically to the
// one-at-a-time path (the branchless fast loop assumes value ∈ [0, g)
// and must not be fed them).
func TestAddBatchDegenerateOLHReports(t *testing.T) {
	const d = 64
	olh, err := NewOLH(d, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(21)
	var reps []Report
	for i := 0; i < 40; i++ {
		rep, err := olh.Perturb(r, i%d)
		if err != nil {
			t.Fatal(err)
		}
		ol := rep.(OLHReport)
		switch i % 4 {
		case 0:
			ol.Value = -1 // negative: must support nothing
		case 1:
			ol.Value = ol.G + 3 // beyond g: must support nothing
		case 2:
			ol.G = 0 // degenerate range
		}
		reps = append(reps, ol)
	}
	seq, _ := NewAccumulator(d)
	for _, rep := range reps {
		_ = seq.Add(rep)
	}
	bat, _ := NewAccumulator(d)
	if err := bat.AddBatch(reps); err != nil {
		t.Fatal(err)
	}
	if seq.Total() != bat.Total() {
		t.Fatalf("totals %d vs %d", seq.Total(), bat.Total())
	}
	sc, bc := seq.Counts(), bat.Counts()
	for v := range sc {
		if sc[v] != bc[v] {
			t.Fatalf("item %d: sequential %d batched %d", v, sc[v], bc[v])
		}
	}
}

// TestPerturbAllIntoBitExact: with the same generator seed,
// PerturbAllInto must reproduce the exact per-user reports of calling
// Perturb user by user (compared through their wire encodings, which
// normalize value vs pointer boxing).
func TestPerturbAllIntoBitExact(t *testing.T) {
	const d = 90
	trueCounts := make([]int64, d)
	for v := range trueCounts {
		trueCounts[v] = int64(v % 5)
	}
	protos := map[string]func() (Protocol, error){
		"GRR":        func() (Protocol, error) { return NewGRR(d, 0.5) },
		"OUE-dense":  func() (Protocol, error) { return NewOUE(d, 0.5) },
		"OUE-eps4.2": func() (Protocol, error) { return NewOUE(d, 4.2) },
		"SUE-eps8":   func() (Protocol, error) { return NewSUE(d, 8) },
		"OLH":        func() (Protocol, error) { return NewOLH(d, 0.5) },
		"BLH":        func() (Protocol, error) { return NewBLH(d, 0.5) },
	}
	for name, mk := range protos {
		p, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r1 := rng.New(2024)
		var want []Report
		for v, c := range trueCounts {
			for k := int64(0); k < c; k++ {
				rep, err := p.Perturb(r1, v)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, rep)
			}
		}
		got, err := PerturbAllInto(p, rng.New(2024), trueCounts, &PerturbScratch{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d reports want %d", name, len(got), len(want))
		}
		for i := range got {
			wb, err := MarshalReport(want[i])
			if err != nil {
				t.Fatal(err)
			}
			gb, err := MarshalReport(got[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wb, gb) {
				t.Fatalf("%s: report %d diverged", name, i)
			}
		}
	}
}

// TestPerturbAllIntoSteadyStateZeroAlloc pins the tentpole property:
// with a warmed scratch, bulk perturbation plus batched ingest allocate
// nothing per report.
func TestPerturbAllIntoSteadyStateZeroAlloc(t *testing.T) {
	const d = 128
	trueCounts := make([]int64, d)
	for v := range trueCounts {
		trueCounts[v] = 40
	}
	for name, mk := range map[string]func() (Protocol, error){
		"OUE-dense":  func() (Protocol, error) { return NewOUE(d, 0.5) },
		"OUE-eps4.2": func() (Protocol, error) { return NewOUE(d, 4.2) },
		"OLH":        func() (Protocol, error) { return NewOLH(d, 0.5) },
		"GRR":        func() (Protocol, error) { return NewGRR(d, 0.5) },
	} {
		p, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		scratch := &PerturbScratch{}
		acc, err := NewAccumulator(d)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(7)
		loop := func() {
			r.Reseed(7) // same stream keeps arena sizes stable
			reps, err := PerturbAllInto(p, r, trueCounts, scratch)
			if err != nil {
				t.Fatal(err)
			}
			if err := acc.AddBatch(reps); err != nil {
				t.Fatal(err)
			}
		}
		loop() // warm the arenas (same seed keeps their sizes stable)
		if allocs := testing.AllocsPerRun(10, loop); allocs > 0 {
			t.Errorf("%s: %v allocs per steady-state round, want 0", name, allocs)
		}
	}
}

// TestShardedAddBatchFastPathsConcurrent drives the type-specialized
// batch paths from many goroutines with concurrent snapshots; run under
// -race it doubles as the item-major AddBatch race test.
func TestShardedAddBatchFastPathsConcurrent(t *testing.T) {
	const d = 130
	reps := mixedReports(t, d)
	want, err := CountSupports(reps, d)
	if err != nil {
		t.Fatal(err)
	}

	sa, err := NewShardedAccumulator(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	var wg sync.WaitGroup
	const rounds = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				// Uneven chunking so run boundaries differ per goroutine.
				lo := (w * 13) % len(reps)
				if err := sa.AddBatch(reps[lo:]); err != nil {
					t.Error(err)
					return
				}
				if err := sa.AddBatch(reps[:lo]); err != nil {
					t.Error(err)
					return
				}
				_ = sa.Snapshot()
			}
		}(w)
	}
	wg.Wait()

	if got, wantTotal := sa.Total(), int64(len(reps)*workers*rounds); got != wantTotal {
		t.Fatalf("total %d want %d", got, wantTotal)
	}
	counts := sa.Counts()
	mult := int64(workers * rounds)
	for v := range counts {
		if counts[v] != want[v]*mult {
			t.Fatalf("item %d: %d want %d", v, counts[v], want[v]*mult)
		}
	}
}
