package ldprecover_test

import (
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"ldprecover"
	"ldprecover/internal/experiment"
	"ldprecover/internal/ldp"
	"ldprecover/internal/persist"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (§VI–§VII) at bench scale (2% of the paper's users, 2
// trials) so `go test -bench=.` finishes in minutes; cmd/experiments runs
// the same generators at paper scale. Each benchmark reports the headline
// metric of its experiment via b.ReportMetric so regressions in recovery
// quality — not just speed — are visible in benchmark diffs.

// benchConfig is the reduced-scale configuration shared by all paper
// benchmarks.
func benchConfig() experiment.Config {
	return experiment.Config{Scale: 0.02, Trials: 2, Seed: 1}
}

// runFigure executes a registered experiment generator b.N times.
func runFigure(b *testing.B, id string) {
	b.Helper()
	gen := experiment.Registry[id]
	if gen == nil {
		b.Fatalf("experiment %q not registered", id)
	}
	for i := 0; i < b.N; i++ {
		tables, err := gen(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables produced")
		}
	}
}

// BenchmarkFigure3_MSEByAttackAndMethod regenerates Fig. 3 (both
// datasets, 7 attack-protocol combos, 4 methods).
func BenchmarkFigure3_MSEByAttackAndMethod(b *testing.B) { runFigure(b, "fig3") }

// BenchmarkFigure4_FrequencyGain regenerates Fig. 4 (FG under MGA).
func BenchmarkFigure4_FrequencyGain(b *testing.B) { runFigure(b, "fig4") }

// BenchmarkFigure5_SweepsIPUMS regenerates Fig. 5 (beta/eps/eta sweeps).
func BenchmarkFigure5_SweepsIPUMS(b *testing.B) { runFigure(b, "fig5") }

// BenchmarkFigure6_SweepsFire regenerates Fig. 6.
func BenchmarkFigure6_SweepsFire(b *testing.B) { runFigure(b, "fig6") }

// BenchmarkFigure7_MaliciousEstimation regenerates Fig. 7.
func BenchmarkFigure7_MaliciousEstimation(b *testing.B) { runFigure(b, "fig7") }

// BenchmarkTableI_UnpoisonedRecovery regenerates Table I.
func BenchmarkTableI_UnpoisonedRecovery(b *testing.B) { runFigure(b, "table1") }

// BenchmarkFigure8_MGAvsIPA regenerates Fig. 8.
func BenchmarkFigure8_MGAvsIPA(b *testing.B) { runFigure(b, "fig8") }

// BenchmarkFigure9_KMeansDefense regenerates Fig. 9.
func BenchmarkFigure9_KMeansDefense(b *testing.B) { runFigure(b, "fig9") }

// BenchmarkFigure10_MultiAttacker regenerates Fig. 10.
func BenchmarkFigure10_MultiAttacker(b *testing.B) { runFigure(b, "fig10") }

// BenchmarkAblationRefiner compares Algorithm 1 vs exact projection.
func BenchmarkAblationRefiner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationRefiner(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSimFidelity compares count- vs report-level paths.
func BenchmarkAblationSimFidelity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationSimFidelity(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDetectionRule compares any- vs all-target detection.
func BenchmarkAblationDetectionRule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationDetectionRule(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoveryQuality_MGA_OUE tracks the paper's headline numbers
// (MSE before/after, FG suppression) as benchmark metrics on a fixed
// MGA-OUE scenario, so quality regressions surface in benchmark diffs.
func BenchmarkRecoveryQuality_MGA_OUE(b *testing.B) {
	ds, err := ldprecover.SyntheticIPUMS().Scaled(0.05)
	if err != nil {
		b.Fatal(err)
	}
	var m *experiment.Metrics
	for i := 0; i < b.N; i++ {
		m, err = experiment.Run(experiment.Scenario{
			Dataset:  ds,
			Protocol: experiment.OUE,
			Attack:   experiment.MGAAttack,
			Trials:   3,
			Seed:     7,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if m != nil {
		b.ReportMetric(m.MSEBefore, "mse-before")
		b.ReportMetric(m.MSEAfter, "mse-after")
		b.ReportMetric(m.MSEStar, "mse-star")
		b.ReportMetric(m.FGBefore, "fg-before")
		b.ReportMetric(m.FGAfter, "fg-after")
	}
}

// BenchmarkRecoverCore measures the recovery algorithm itself (no
// simulation): d=1024 poisoned vector through learning + estimation +
// Algorithm 1.
func BenchmarkRecoverCore(b *testing.B) {
	const d = 1024
	proto, err := ldprecover.NewOUE(d, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	r := ldprecover.NewRand(9)
	poisoned := make([]float64, d)
	for v := range poisoned {
		poisoned[v] = 2*(rFloat(r))*0.01 - 0.002
	}
	poisoned[3] = 0.4 // a spike
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ldprecover.Recover(poisoned, proto.Params(), ldprecover.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func rFloat(r *ldprecover.Rand) float64 { return r.Float64() }

// BenchmarkEndToEndPipeline_OLH measures the full report-level pipeline
// (perturb, attack, aggregate, recover) on OLH at small scale, in three
// variants:
//
//   - itemwise ("before"): the seed implementation's cost model —
//     per-report perturbation re-deriving the perturbation probability
//     (two math.Exp per report), one boxed report allocation per user,
//     and one full, unamortized hash evaluation per (report, item) pair
//     during aggregation (Supports premixes per call, matching the
//     retired single-stage hash's per-pair cost while keeping the
//     statistical workload identical across the three variants);
//   - batched ("after", single core): arena-backed PerturbAllInto plus
//     the premixed item-major batch aggregation, allocating nothing per
//     report in steady state;
//   - sharded ("after", concurrent): the same fast path with ingest
//     fanned out over GOMAXPROCS goroutines through ShardedAccumulator,
//     the production report-level configuration.
func BenchmarkEndToEndPipeline_OLH(b *testing.B) {
	const d, eps = 102, 0.5
	ds, err := ldprecover.SyntheticIPUMS().Scaled(0.01)
	if err != nil {
		b.Fatal(err)
	}
	proto, err := ldprecover.NewOLH(d, eps)
	if err != nil {
		b.Fatal(err)
	}
	// craft and finish return errors so each sub-benchmark reports
	// failures on its own *testing.B (Fatal on the parent from a
	// sub-benchmark goroutine is not allowed).
	craft := func(r *ldprecover.Rand, m int64) ([]ldprecover.Report, error) {
		targets, err := ldprecover.RandomTargets(r, d, 10)
		if err != nil {
			return nil, err
		}
		mga, err := ldprecover.NewMGA(targets)
		if err != nil {
			return nil, err
		}
		return mga.CraftReports(r, proto, m)
	}
	finish := func(all []ldprecover.Report, counts []int64) error {
		poisoned, err := ldprecover.Unbias(counts, int64(len(all)), proto.Params())
		if err != nil {
			return err
		}
		_, err = ldprecover.Recover(poisoned, proto.Params(), ldprecover.Options{})
		return err
	}

	b.Run("itemwise", func(b *testing.B) {
		g := proto.G()
		for i := 0; i < b.N; i++ {
			r := ldprecover.NewRand(uint64(i) + 1)
			var reports []ldprecover.Report
			for v, c := range ds.Counts {
				for k := int64(0); k < c; k++ {
					// Seed-faithful OLH perturbation: probability derived
					// from scratch per report, value-boxed report.
					seed := r.Uint64()
					h := proto.Hash(seed, v)
					value := h
					pPerturb := math.Exp(eps) / (math.Exp(eps) + float64(g) - 1)
					if !r.Bernoulli(pPerturb) {
						value = r.Intn(g - 1)
						if value >= h {
							value++
						}
					}
					reports = append(reports, ldp.OLHReport{Seed: seed, Value: value, G: g})
				}
			}
			malicious, err := craft(r, int64(len(reports)/19))
			if err != nil {
				b.Fatal(err)
			}
			all := append(reports, malicious...)
			counts := make([]int64, d)
			for _, rep := range all {
				// Seed-faithful aggregation: one full hash (premix
				// included — Supports cannot amortize it) per
				// (report, item) pair.
				for v := 0; v < d; v++ {
					if rep.Supports(v) {
						counts[v]++
					}
				}
			}
			if err := finish(all, counts); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("batched", func(b *testing.B) {
		scratch := &ldprecover.PerturbScratch{}
		for i := 0; i < b.N; i++ {
			r := ldprecover.NewRand(uint64(i) + 1)
			reports, err := ldprecover.PerturbAllInto(proto, r, ds.Counts, scratch)
			if err != nil {
				b.Fatal(err)
			}
			malicious, err := craft(r, int64(len(reports)/19))
			if err != nil {
				b.Fatal(err)
			}
			all := append(reports, malicious...)
			acc, err := ldprecover.NewAccumulator(d)
			if err != nil {
				b.Fatal(err)
			}
			if err := acc.AddBatch(all); err != nil {
				b.Fatal(err)
			}
			if err := finish(all, acc.Counts()); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("sharded", func(b *testing.B) {
		scratch := &ldprecover.PerturbScratch{}
		workers := runtime.GOMAXPROCS(0)
		for i := 0; i < b.N; i++ {
			r := ldprecover.NewRand(uint64(i) + 1)
			reports, err := ldprecover.PerturbAllInto(proto, r, ds.Counts, scratch)
			if err != nil {
				b.Fatal(err)
			}
			malicious, err := craft(r, int64(len(reports)/19))
			if err != nil {
				b.Fatal(err)
			}
			all := append(reports, malicious...)
			sa, err := ldprecover.NewShardedAccumulator(d, 0)
			if err != nil {
				b.Fatal(err)
			}
			var wg sync.WaitGroup
			chunk := (len(all) + workers - 1) / workers
			for w := 0; w < workers; w++ {
				lo := w * chunk
				hi := lo + chunk
				if hi > len(all) {
					hi = len(all)
				}
				if lo >= hi {
					break
				}
				wg.Add(1)
				go func(part []ldprecover.Report) {
					defer wg.Done()
					if err := sa.AddBatch(part); err != nil {
						b.Error(err)
					}
				}(all[lo:hi])
			}
			wg.Wait()
			if err := finish(all, sa.Counts()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtensionHarmony regenerates the Harmony mean-recovery table.
func BenchmarkExtensionHarmony(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.ExtensionHarmony(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionKeyValue regenerates the key-value recovery table.
func BenchmarkExtensionKeyValue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.ExtensionKeyValue(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTheoryValidation regenerates the theory-validation table.
func BenchmarkTheoryValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.TheoryValidation(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// Per-protocol perturbation micro-benchmarks (one user each).
func benchPerturb(b *testing.B, mk func() (ldprecover.Protocol, error)) {
	b.Helper()
	proto, err := mk()
	if err != nil {
		b.Fatal(err)
	}
	r := ldprecover.NewRand(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proto.Perturb(r, i%102); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPerturbGRR(b *testing.B) {
	benchPerturb(b, func() (ldprecover.Protocol, error) { return ldprecover.NewGRR(102, 0.5) })
}

func BenchmarkPerturbOUE(b *testing.B) {
	benchPerturb(b, func() (ldprecover.Protocol, error) { return ldprecover.NewOUE(102, 0.5) })
}

func BenchmarkPerturbOLH(b *testing.B) {
	benchPerturb(b, func() (ldprecover.Protocol, error) { return ldprecover.NewOLH(102, 0.5) })
}

// Ingest workload shared by the sharded/batch benchmarks: a 2^20-user
// OUE population over a 128-item domain, generated once per test binary.
const (
	ingestDomain = 128
	ingestUsers  = 1 << 20
)

var ingestSetup struct {
	once       sync.Once
	proto      ldprecover.Protocol
	trueCounts []int64
	reports    []ldprecover.Report
	err        error
}

func ingestWorkload(b *testing.B) (ldprecover.Protocol, []int64, []ldprecover.Report) {
	b.Helper()
	s := &ingestSetup
	s.once.Do(func() {
		s.proto, s.err = ldprecover.NewOUE(ingestDomain, 0.5)
		if s.err != nil {
			return
		}
		s.trueCounts = make([]int64, ingestDomain)
		var left int64 = ingestUsers
		for v := 0; v < ingestDomain-1; v++ {
			c := left / 3
			s.trueCounts[v] = c
			left -= c
		}
		s.trueCounts[ingestDomain-1] = left
		s.reports, s.err = ldprecover.PerturbAll(s.proto, ldprecover.NewRand(77), s.trueCounts)
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.proto, s.trueCounts, s.reports
}

// BenchmarkShardedIngest compares the server-side aggregation paths on
// the same >=10^6-report workload:
//
//   - sequential-reports: the report-level baseline ("before"), one
//     Accumulator fed one report at a time through the interface;
//   - batched-reports: the same single core fed through
//     Accumulator.AddBatch's bit-plane fast path ("after" — the
//     report-level speedup the batched ingest contributes on its own);
//   - sharded-reports: concurrent chunked ingest through
//     ShardedAccumulator.AddBatch from GOMAXPROCS goroutines;
//   - batch-counts: the count-level path (SimulateGenuineCounts), which never
//     materializes reports at all (population -> aggregate counts).
func BenchmarkShardedIngest(b *testing.B) {
	proto, trueCounts, reports := ingestWorkload(b)

	b.Run("sequential-reports", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			acc, err := ldprecover.NewAccumulator(ingestDomain)
			if err != nil {
				b.Fatal(err)
			}
			for _, rep := range reports {
				if err := acc.Add(rep); err != nil {
					b.Fatal(err)
				}
			}
			if acc.Total() != int64(len(reports)) {
				b.Fatal("lost reports")
			}
		}
	})

	b.Run("batched-reports", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			acc, err := ldprecover.NewAccumulator(ingestDomain)
			if err != nil {
				b.Fatal(err)
			}
			if err := acc.AddBatch(reports); err != nil {
				b.Fatal(err)
			}
			if acc.Total() != int64(len(reports)) {
				b.Fatal("lost reports")
			}
		}
	})

	b.Run("sharded-reports", func(b *testing.B) {
		workers := runtime.GOMAXPROCS(0)
		const batchSize = 4096
		for i := 0; i < b.N; i++ {
			sa, err := ldprecover.NewShardedAccumulator(ingestDomain, 0)
			if err != nil {
				b.Fatal(err)
			}
			var wg sync.WaitGroup
			chunk := (len(reports) + workers - 1) / workers
			for w := 0; w < workers; w++ {
				lo := w * chunk
				hi := lo + chunk
				if hi > len(reports) {
					hi = len(reports)
				}
				if lo >= hi {
					break
				}
				wg.Add(1)
				go func(part []ldprecover.Report) {
					defer wg.Done()
					for len(part) > 0 {
						n := batchSize
						if n > len(part) {
							n = len(part)
						}
						if err := sa.AddBatch(part[:n]); err != nil {
							b.Error(err)
							return
						}
						part = part[n:]
					}
				}(reports[lo:hi])
			}
			wg.Wait()
			if sa.Snapshot().Total() != int64(len(reports)) {
				b.Fatal("lost reports")
			}
		}
	})

	b.Run("batch-counts", func(b *testing.B) {
		var n int64
		for _, c := range trueCounts {
			n += c
		}
		for i := 0; i < b.N; i++ {
			r := ldprecover.NewRand(uint64(i) + 1)
			counts, err := proto.SimulateGenuineCounts(r, trueCounts)
			if err != nil {
				b.Fatal(err)
			}
			sa, err := ldprecover.NewShardedAccumulator(ingestDomain, 0)
			if err != nil {
				b.Fatal(err)
			}
			if err := sa.AddCounts(counts, n); err != nil {
				b.Fatal(err)
			}
			if sa.Total() != n {
				b.Fatal("lost reports")
			}
		}
	})
}

// BenchmarkWireRoundTrip measures report serialization.
func BenchmarkWireRoundTrip(b *testing.B) {
	proto, err := ldprecover.NewOUE(490, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	r := ldprecover.NewRand(2)
	rep, err := proto.Perturb(r, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := ldprecover.MarshalReport(rep)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ldprecover.UnmarshalReport(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSealEpoch measures the epoch-boundary primitive on a loaded
// accumulator: the per-shard swap plus the sealed merge.
func BenchmarkSealEpoch(b *testing.B) {
	const d = 4096
	counts := make([]int64, d)
	for v := range counts {
		counts[v] = int64(50 + v%97)
	}
	sa, err := ldprecover.NewShardedAccumulator(d, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sa.AddCounts(counts, 1<<20); err != nil {
			b.Fatal(err)
		}
		ep := sa.SealEpoch()
		if ep.Total() != 1<<20 {
			b.Fatal("lost reports across seal")
		}
	}
}

// BenchmarkWALAppend measures the durable ingest hot path: appending a
// 256-report OUE batch frame (the serve layer's wire unit) to the
// write-ahead log, under the default fsync-every-batch policy and under
// the lazy policy that syncs only at epoch seals.
func BenchmarkWALAppend(b *testing.B) {
	const d, eps, batch = 128, 0.5, 256
	proto, err := ldprecover.NewOUE(d, eps)
	if err != nil {
		b.Fatal(err)
	}
	r := ldprecover.NewRand(4)
	trueCounts := make([]int64, d)
	for v := range trueCounts {
		trueCounts[v] = batch / d
	}
	reps, err := ldprecover.PerturbAll(proto, r, trueCounts)
	if err != nil {
		b.Fatal(err)
	}
	frame, err := ldprecover.MarshalReportBatch(reps)
	if err != nil {
		b.Fatal(err)
	}
	for _, pol := range []struct {
		name  string
		every int
	}{
		{"fsync-every-batch", 1},
		{"fsync-at-seals", -1},
	} {
		b.Run(pol.name, func(b *testing.B) {
			w, err := persist.OpenWAL(filepath.Join(b.TempDir(), "wal"),
				persist.WALOptions{SyncEvery: pol.every})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			// Warm up before the clock starts: the first append pays
			// one-off costs (segment file creation, dirty-page and
			// allocator warm-up) that dwarf a steady-state append, so an
			// unwarmed run under a small -benchtime measures setup, not
			// appends — it once reported the never-fsyncing policy
			// *slower* than fsync-every-batch.
			for i := 0; i < 8; i++ {
				if _, err := w.Append(frame); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Sync(); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(frame)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Append(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDurableIngest measures report-equivalent durable ingest
// throughput — MB/s of report-level wire bytes made durable AND counted
// — for the two ingest lanes at equal user volume (4096 users per op,
// as sixteen 256-report OUE frames):
//
//	zero-copy      ValidateReportBatchFrame checks each frame in place
//	               and AppendBatchFrame logs and counts the view's wire
//	               bytes; no []Report ever exists
//	partial-tally  the same 4096 users pre-aggregated at an edge
//	               Collector into ONE partial-tally frame (DESIGN.md §8);
//	               ValidatePartialFrame checks it in place and
//	               AppendPartial logs and folds its wire bytes
//
// Both lanes report SetBytes of the report lane's total frame bytes, so
// the MB/s column answers "how fast does this lane move the same users
// durably" — the partial lane's frame is ~250x smaller, which is the
// point. The WAL syncs lazily (at epoch seals), so the comparison is
// CPU + write volume, not sixteen fsyncs against one; `make
// bench-ingest` regenerates these rows in BENCH_report.json and CI
// gates on partial-tally ≥ 5x zero-copy.
func BenchmarkDurableIngest(b *testing.B) {
	const d, eps = 128, 0.5
	const perFrame, numFrames = 256, 16
	proto, err := ldprecover.NewOUE(d, eps)
	if err != nil {
		b.Fatal(err)
	}
	r := ldprecover.NewRand(7)
	trueCounts := make([]int64, d)
	for v := range trueCounts {
		trueCounts[v] = perFrame / d
	}
	var frames [][]byte
	var wireBytes int64
	col, err := ldp.NewCollector("bench-edge", d)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < numFrames; i++ {
		reps, err := ldprecover.PerturbAll(proto, r, trueCounts)
		if err != nil {
			b.Fatal(err)
		}
		frame, err := ldprecover.MarshalReportBatch(reps)
		if err != nil {
			b.Fatal(err)
		}
		frames = append(frames, frame)
		wireBytes += int64(len(frame))
		if err := col.AddBatch(reps); err != nil {
			b.Fatal(err)
		}
	}
	pframe, err := col.Flush(0)
	if err != nil {
		b.Fatal(err)
	}
	partial, err := ldprecover.ValidatePartialFrame(pframe)
	if err != nil {
		b.Fatal(err)
	}

	newStore := func(b *testing.B) *ldprecover.DurableStore {
		b.Helper()
		mgr, err := ldprecover.NewEpochManager(ldprecover.StreamConfig{
			Params: proto.Params(), TargetK: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		store, err := ldprecover.OpenDurableStore(b.TempDir(), mgr,
			ldprecover.DurableOptions{SyncEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { store.Close() })
		return store
	}

	b.Run("zero-copy", func(b *testing.B) {
		store := newStore(b)
		b.SetBytes(wireBytes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, frame := range frames {
				f, err := ldprecover.ValidateReportBatchFrame(frame)
				if err != nil {
					b.Fatal(err)
				}
				if err := store.AppendBatchFrame(f); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("partial-tally", func(b *testing.B) {
		store := newStore(b)
		b.SetBytes(wireBytes) // report-equivalent: the same users moved
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := ldprecover.ValidatePartialFrame(pframe)
			if err != nil {
				b.Fatal(err)
			}
			if err := store.AppendPartial(p); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Sanity outside the timed regions: both lanes must count the same
	// users per op (the equivalence the tests pin bit-for-bit).
	if got, want := partial.Total, int64(numFrames*perFrame); got != want {
		b.Fatalf("partial covers %d users, lanes move %d", got, want)
	}
}

// BenchmarkStoreOpenReplay measures boot-time WAL replay: OpenDurableStore
// on a crashed store with no snapshot, so the whole log is read,
// CRC-checked, validated and folded. Each arm logs OUE d=128 report-batch
// frames:
//
//   - oue-d128: 2048 frames of 256 reports (524288 reports, about 14 MB)
//     over 1 MiB segments;
//   - crash-replay: the shape of ldpload's crash-replay WAL, 10000 frames
//     of 256 genuine reports plus 13 MGA reports (2.69 M reports, about
//     70 MB) over the default 8 MiB segments.
//
// The WAL is built once per arm outside the timer; each op opens it into
// a fresh manager and closes it again. ns/report is the replay cost per
// logged report.
func BenchmarkStoreOpenReplay(b *testing.B) {
	b.Run("oue-d128", func(b *testing.B) { benchStoreOpenReplay(b, 256, 0, 2048, 1<<20) })
	b.Run("crash-replay", func(b *testing.B) { benchStoreOpenReplay(b, 256, 13, 10000, 0) })
}

// benchStoreOpenReplay times replay of numFrames logged frames, each of
// perFrame genuine OUE d=128 reports followed by mal MGA reports, cycling
// through 32 distinct frames.
func benchStoreOpenReplay(b *testing.B, perFrame, mal, numFrames int, segmentBytes int64) {
	const d, eps, distinct = 128, 0.5, 32
	proto, err := ldprecover.NewOUE(d, eps)
	if err != nil {
		b.Fatal(err)
	}
	r := ldprecover.NewRand(9)
	targets, err := ldprecover.RandomTargets(r, d, 10)
	if err != nil {
		b.Fatal(err)
	}
	mga, err := ldprecover.NewMGA(targets)
	if err != nil {
		b.Fatal(err)
	}
	trueCounts := make([]int64, d)
	for v := range trueCounts {
		trueCounts[v] = int64(perFrame / d)
	}
	frames := make([]ldprecover.ReportFrame, distinct)
	for i := range frames {
		reps, err := ldprecover.PerturbAll(proto, r, trueCounts)
		if err != nil {
			b.Fatal(err)
		}
		if mal > 0 {
			crafted, err := mga.CraftReports(r, proto, int64(mal))
			if err != nil {
				b.Fatal(err)
			}
			reps = append(reps, crafted...)
		}
		frame, err := ldprecover.MarshalReportBatch(reps)
		if err != nil {
			b.Fatal(err)
		}
		if frames[i], err = ldprecover.ValidateReportBatchFrame(frame); err != nil {
			b.Fatal(err)
		}
	}
	cfg := ldprecover.StreamConfig{Params: proto.Params(), TargetK: -1}
	opts := ldprecover.DurableOptions{SegmentBytes: segmentBytes, SyncEvery: -1}
	dir := b.TempDir()
	mgr, err := ldprecover.NewEpochManager(cfg)
	if err != nil {
		b.Fatal(err)
	}
	store, err := ldprecover.OpenDurableStore(dir, mgr, opts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < numFrames; i++ {
		if err := store.AppendBatchFrame(frames[i%distinct]); err != nil {
			b.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
	reports := int64((perFrame + mal) * numFrames)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mgr, err := ldprecover.NewEpochManager(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		store, err := ldprecover.OpenDurableStore(dir, mgr, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := store.Restored().ReplayedReports; got != reports {
			b.Fatalf("replayed %d reports, logged %d", got, reports)
		}
		if err := store.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*reports), "ns/report")
}

// BenchmarkSnapshotWrite measures the per-seal durability cost: encoding
// and atomically writing (temp file + fsync + rename) the full state of
// a d=4096 manager with a loaded retention ring and outlier history —
// the work a durable seal adds over an in-memory one.
func BenchmarkSnapshotWrite(b *testing.B) {
	const d = 4096
	proto, err := ldprecover.NewOUE(d, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := ldprecover.NewEpochManager(ldprecover.StreamConfig{
		Params: proto.Params(), Window: 4, History: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	counts := make([]int64, d)
	for v := range counts {
		counts[v] = int64(200 + v%53)
	}
	for e := 0; e < 16; e++ {
		if err := mgr.AddCounts(counts, 1<<20); err != nil {
			b.Fatal(err)
		}
		if _, err := mgr.Seal(); err != nil {
			b.Fatal(err)
		}
	}
	st := mgr.SnapshotState()
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := persist.WriteSnapshot(dir, uint64(i), st); err != nil {
			b.Fatal(err)
		}
	}
}
