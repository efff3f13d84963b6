package ldp_test

import (
	"fmt"
	"slices"
	"testing"

	"ldprecover/internal/attack"
	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
)

// olhKernels are the sweep kernels a host can run: the portable Go loop
// always, the AVX-512 one when the CPU has it. A missing vector leg is
// logged, never skipped silently.
func olhKernels(tb testing.TB) []bool {
	if !ldp.OLHAVX512Detected {
		tb.Log("host lacks AVX512F/AVX512DQ (or the OS does not save ZMM state): vector leg skipped, generic leg runs")
		return []bool{false}
	}
	return []bool{false, true}
}

func kernelName(vector bool) string {
	if vector {
		return "vector"
	}
	return "generic"
}

// referenceOLH folds reports one at a time through OLHReport.AddSupports,
// the reference every batch kernel must match exactly.
func referenceOLH(d int, reps []ldp.Report) []int64 {
	counts := make([]int64, d)
	for _, rep := range reps {
		rep.AddSupports(counts)
	}
	return counts
}

// checkOLHKernels folds reps through AddBatch and AddBatchFrame on every
// kernel this host runs and requires exact equality with the reference.
func checkOLHKernels(t *testing.T, d int, reps []ldp.Report) {
	t.Helper()
	want := referenceOLH(d, reps)
	frame, err := ldp.MarshalReportBatch(reps)
	if err != nil {
		t.Fatal(err)
	}
	for _, vector := range olhKernels(t) {
		batch, err := ldp.NewAccumulator(d)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := ldp.NewAccumulator(d)
		if err != nil {
			t.Fatal(err)
		}
		restore := ldp.SetOLHAVX512(vector)
		berr := batch.AddBatch(reps)
		ferr := wire.AddBatchFrame(frame)
		restore()
		if berr != nil || ferr != nil {
			t.Fatalf("%s: AddBatch %v, AddBatchFrame %v", kernelName(vector), berr, ferr)
		}
		for lane, acc := range map[string]*ldp.Accumulator{"AddBatch": batch, "AddBatchFrame": wire} {
			if got := acc.Counts(); !slices.Equal(got, want) {
				i := 0
				for got[i] == want[i] {
					i++
				}
				t.Fatalf("%s %s: counts[%d] = %d, reference %d", kernelName(vector), lane, i, got[i], want[i])
			}
			if acc.Total() != int64(len(reps)) {
				t.Fatalf("%s %s: total %d, want %d", kernelName(vector), lane, acc.Total(), len(reps))
			}
		}
	}
}

// TestSweepOLHKernelsMatchReference pins the Go and AVX-512 OLH sweeps
// against one-at-a-time AddSupports on honest and MGA-crafted reports.
// The domains put item counts on both sides of the 8-lane chunk edge and
// of the olhBlockItems (4096) block edge, so whole chunks, Go tails and
// partial last blocks all run; d = 2, the smallest domain an accumulator
// takes, is all tail.
func TestSweepOLHKernelsMatchReference(t *testing.T) {
	ds := []int{2, 7, 8, 9, 1023, 1024, 1025, 4096, 4097, 8200}
	gs := []int{2, 3, 5, 16, 1000}
	for _, d := range ds {
		for _, g := range gs {
			olh, err := ldp.NewOLHWithG(d, 1, g)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(uint64(d)*31 + uint64(g))
			honest := make([]ldp.Report, 269)
			for i := range honest {
				if honest[i], err = olh.Perturb(r, r.Intn(d)); err != nil {
					t.Fatal(err)
				}
			}
			targets, err := attack.RandomTargets(r, d, min(d, 5))
			if err != nil {
				t.Fatal(err)
			}
			mga, err := attack.NewMGA(targets)
			if err != nil {
				t.Fatal(err)
			}
			crafted, err := mga.CraftReports(r, olh, 269)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("d=%d/g=%d", d, g), func(t *testing.T) {
				checkOLHKernels(t, d, honest[:1])
				checkOLHKernels(t, d, honest)
				checkOLHKernels(t, d, crafted[:1])
				checkOLHKernels(t, d, crafted)
			})
		}
	}
}

// FuzzSweepOLH drives the vector and generic sweeps against the
// reference over fuzzer-chosen seeds, values, hash range and domain.
func FuzzSweepOLH(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint32(0), uint32(1), uint32(3), uint16(1024))
	f.Add(uint64(0), uint64(0), uint32(1), uint32(1), uint32(2), uint16(8))
	f.Add(uint64(0x9e3779b97f4a7c15), uint64(1<<63), uint32(999), uint32(0), uint32(1000), uint16(4097))
	f.Fuzz(func(t *testing.T, seed0, seed1 uint64, value0, value1, g uint32, d uint16) {
		if g < 2 || d < 2 || d > 8200 {
			return
		}
		reps := []ldp.Report{
			ldp.OLHReport{Seed: seed0, Value: int(value0 % g), G: int(g)},
			ldp.OLHReport{Seed: seed1, Value: int(value1 % g), G: int(g)},
			ldp.OLHReport{Seed: seed0 ^ seed1, Value: int(g - 1), G: int(g)},
		}
		checkOLHKernels(t, int(d), reps)
	})
}
