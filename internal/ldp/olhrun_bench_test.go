package ldp

import (
	"testing"

	"ldprecover/internal/rng"
)

// BenchmarkAddOLHRun folds one 269-report OLH frame at d=1024, ε=0.5
// (g=3) through AddBatchFrame — the shape of the ldpload olh-fold
// workload — on each sweep kernel, and reports ns per report. /vector
// runs only where the CPU has AVX-512.
func BenchmarkAddOLHRun(b *testing.B) {
	const d, n = 1024, 269
	olh, err := NewOLH(d, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(3)
	reps := make([]Report, n)
	for i := range reps {
		if reps[i], err = olh.Perturb(r, r.Intn(d)); err != nil {
			b.Fatal(err)
		}
	}
	frame, err := MarshalReportBatch(reps)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []struct {
		name   string
		vector bool
	}{{"vector", true}, {"generic", false}} {
		b.Run(k.name, func(b *testing.B) {
			if k.vector && !olhAVX512 {
				b.Skip("host lacks AVX512F/AVX512DQ")
			}
			defer func(prev bool) { olhAVX512 = prev }(olhAVX512)
			olhAVX512 = k.vector
			acc, err := NewAccumulator(d)
			if err != nil {
				b.Fatal(err)
			}
			for b.Loop() {
				if err := acc.AddBatchFrame(frame); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/report")
		})
	}
}
