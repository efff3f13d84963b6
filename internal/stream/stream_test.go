package stream

import (
	"reflect"
	"sync"
	"testing"

	"ldprecover/internal/attack"
	"ldprecover/internal/core"
	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
)

func testConfig(t *testing.T, d int, eps float64) (Config, ldp.Protocol) {
	t.Helper()
	proto, err := ldp.NewOUE(d, eps)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Params: proto.Params()}, proto
}

func TestConfigValidation(t *testing.T) {
	cfg, _ := testConfig(t, 16, 0.5)

	bad := cfg
	bad.Params.Domain = 1
	if _, err := NewEpochManager(bad); err == nil {
		t.Fatal("domain 1 accepted")
	}
	bad = cfg
	bad.History = 2
	bad.Window = 5
	if _, err := NewEpochManager(bad); err == nil {
		t.Fatal("history < window accepted")
	}
	bad = cfg
	bad.Eta = -0.1
	if _, err := NewEpochManager(bad); err == nil {
		t.Fatal("negative eta accepted")
	}
	bad = cfg
	bad.TargetK = 99
	if _, err := NewEpochManager(bad); err == nil {
		t.Fatal("target cap beyond domain accepted")
	}

	m, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Config()
	if got.Window != 1 || got.History != DefaultHistoryMin || got.Eta != core.DefaultEta ||
		got.TargetK != DefaultTargetK || got.MinZ != DefaultMinZ || got.StableAfter != DefaultStableAfter {
		t.Fatalf("defaults not applied: %+v", got)
	}
	if m.Latest() != nil {
		t.Fatal("latest estimate before first seal")
	}
	if _, err := m.EstimateWindow(1); err == nil {
		t.Fatal("window estimate before first seal")
	}
	if _, err := m.EstimateWindow(0); err == nil {
		t.Fatal("zero-epoch window accepted")
	}
}

// TestStreamMatchesBatchPipeline is the acceptance equivalence: feeding
// reports through epochs whose window spans them all must reproduce the
// batch pipeline (EstimateFrequencies + core.Recover on everything) bit
// for bit.
func TestStreamMatchesBatchPipeline(t *testing.T) {
	const d, eps, epochs = 20, 0.6, 3
	cfg, proto := testConfig(t, d, eps)
	cfg.Window = epochs
	cfg.TargetK = -1 // pure LDPRecover; targets tested separately
	m, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}

	trueCounts := make([]int64, d)
	for v := range trueCounts {
		trueCounts[v] = int64(80 + 7*v)
	}
	r := rng.New(3)
	mga, err := attack.NewMGA([]int{2, 11})
	if err != nil {
		t.Fatal(err)
	}

	var all []ldp.Report
	var last *WindowEstimate
	for e := 0; e < epochs; e++ {
		genuine, err := ldp.PerturbAll(proto, r, trueCounts)
		if err != nil {
			t.Fatal(err)
		}
		malicious, err := mga.CraftReports(r, proto, 40)
		if err != nil {
			t.Fatal(err)
		}
		reps := append(genuine, malicious...)
		all = append(all, reps...)
		if err := m.AddBatch(reps); err != nil {
			t.Fatal(err)
		}
		if last, err = m.Seal(); err != nil {
			t.Fatal(err)
		}
		if last.Seq != e || last.Epochs != e+1 {
			t.Fatalf("epoch %d: estimate seq=%d epochs=%d", e, last.Seq, last.Epochs)
		}
	}

	wantPoisoned, err := ldp.EstimateFrequencies(all, cfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	prCore := core.Params{P: cfg.Params.P, Q: cfg.Params.Q, Domain: d}
	wantRec, err := core.Recover(wantPoisoned, prCore, core.Options{Eta: m.Config().Eta})
	if err != nil {
		t.Fatal(err)
	}

	if last.Total != int64(len(all)) {
		t.Fatalf("window total %d, want %d", last.Total, len(all))
	}
	if !reflect.DeepEqual(last.Poisoned, wantPoisoned) {
		t.Fatal("windowed poisoned estimate differs from batch pipeline")
	}
	if !reflect.DeepEqual(last.Recovered, wantRec.Frequencies) {
		t.Fatal("windowed recovered estimate differs from batch pipeline")
	}
	if last.PartialKnowledge {
		t.Fatal("partial knowledge with detection disabled")
	}
	if got := m.Latest(); !reflect.DeepEqual(got, last) {
		t.Fatal("Latest() differs from the Seal return")
	}

	// The on-demand ring merge over all retained epochs agrees too.
	onDemand, err := m.EstimateWindow(epochs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDemand.Poisoned, wantPoisoned) {
		t.Fatal("EstimateWindow differs from batch pipeline")
	}
	// Clamped beyond retention.
	clamped, err := m.EstimateWindow(1000)
	if err != nil {
		t.Fatal(err)
	}
	if clamped.Epochs != epochs {
		t.Fatalf("clamped window spans %d epochs, want %d", clamped.Epochs, epochs)
	}
}

// TestSlidingWindowEviction pins the incremental window maintenance:
// with Window=2 the estimate at epoch e must equal the direct aggregate
// of epochs e-1..e only, including when History == Window so the ring
// evicts at every seal.
func TestSlidingWindowEviction(t *testing.T) {
	const d = 8
	cfg, _ := testConfig(t, d, 0.8)
	cfg.Window = 2
	cfg.History = 2
	cfg.TargetK = -1
	m, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Epoch e ingests a distinct pre-aggregated partial so window sums
	// are recognizable.
	perEpoch := func(e int) ([]int64, int64) {
		counts := make([]int64, d)
		var total int64 = 1000
		for v := range counts {
			counts[v] = int64(100*(e+1) + v)
		}
		return counts, total
	}
	for e := 0; e < 5; e++ {
		counts, total := perEpoch(e)
		if err := m.AddCounts(counts, total); err != nil {
			t.Fatal(err)
		}
		est, err := m.Seal()
		if err != nil {
			t.Fatal(err)
		}
		wantEpochs := 2
		if e == 0 {
			wantEpochs = 1
		}
		if est.Epochs != wantEpochs {
			t.Fatalf("epoch %d: window spans %d, want %d", e, est.Epochs, wantEpochs)
		}
		// Direct aggregate of the window's epochs.
		wantCounts := make([]int64, d)
		var wantTotal int64
		for _, we := range []int{e - 1, e} {
			if we < 0 {
				continue
			}
			c, tot := perEpoch(we)
			for v := range wantCounts {
				wantCounts[v] += c[v]
			}
			wantTotal += tot
		}
		if est.Total != wantTotal {
			t.Fatalf("epoch %d: window total %d, want %d", e, est.Total, wantTotal)
		}
		wantPoisoned, err := ldp.Unbias(wantCounts, wantTotal, cfg.Params)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(est.Poisoned, wantPoisoned) {
			t.Fatalf("epoch %d: window estimate diverged from direct aggregate", e)
		}
	}
	if got := len(m.Epochs()); got != 2 {
		t.Fatalf("ring retains %d epochs, want 2", got)
	}
	st := m.Stats()
	if st.Epochs != 5 || st.LiveTotal != 0 || st.WindowTotal != 2000 || st.IngestedTotal != 5000 {
		t.Fatalf("stats %+v", st)
	}
}

// TestStreamUpgradesToPartialKnowledge drives the self-upgrade loop: a
// clean stream establishes history, an MGA attacker appears mid-stream,
// the cross-epoch z-score flags the promoted items, and after StableAfter
// agreeing epochs recovery switches to LDPRecover* with exactly those
// targets.
func TestStreamUpgradesToPartialKnowledge(t *testing.T) {
	const d, eps = 32, 1.0
	cfg, proto := testConfig(t, d, eps)
	cfg.Window = 1
	cfg.History = 12
	cfg.StableAfter = 2
	cfg.TargetK = 4
	targets := []int{5, 21}

	m, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trueCounts := make([]int64, d)
	for v := range trueCounts {
		trueCounts[v] = 400
	}
	r := rng.New(9)
	mga, err := attack.NewMGA(targets)
	if err != nil {
		t.Fatal(err)
	}

	const quiet, attacked = 6, 6
	engaged := -1
	for e := 0; e < quiet+attacked; e++ {
		counts, err := proto.SimulateGenuineCounts(r, trueCounts)
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		for _, c := range trueCounts {
			n += c
		}
		if err := m.AddCounts(counts, n); err != nil {
			t.Fatal(err)
		}
		if e >= quiet {
			mal, err := mga.CraftCounts(r, proto, n/10)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.AddCounts(mal, n/10); err != nil {
				t.Fatal(err)
			}
		}
		est, err := m.Seal()
		if err != nil {
			t.Fatal(err)
		}
		if e < quiet {
			if est.PartialKnowledge {
				t.Fatalf("epoch %d: partial knowledge before any attack", e)
			}
		} else if est.PartialKnowledge && engaged < 0 {
			engaged = e
			got := append([]int(nil), est.Targets...)
			if !reflect.DeepEqual(got, targets) {
				t.Fatalf("epoch %d: stable targets %v, want %v", e, got, targets)
			}
		}
	}
	if engaged < 0 {
		t.Fatal("LDPRecover* never engaged")
	}
	// Promotion needs StableAfter consecutive flagged epochs after the
	// attack starts, so it cannot precede quiet+StableAfter-1.
	if engaged < quiet+cfg.StableAfter-1 {
		t.Fatalf("engaged at epoch %d, before %d consecutive observations were possible",
			engaged, cfg.StableAfter)
	}
	if st := m.Stats(); !reflect.DeepEqual(st.Targets, targets) {
		t.Fatalf("stats targets %v, want %v", st.Targets, targets)
	}
}

// TestEmptyEpochs seals windows with no reports: no estimates, no
// recovery, and quiet epochs still count toward target demotion.
func TestEmptyEpochs(t *testing.T) {
	cfg, _ := testConfig(t, 8, 0.5)
	m, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := m.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if est.Poisoned != nil || est.Recovered != nil || est.Total != 0 {
		t.Fatalf("empty epoch produced estimates: %+v", est)
	}
	// An empty on-demand window is fine too.
	if _, err := m.EstimateWindow(1); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentIngestAndSeal hammers ingest from several goroutines
// while sealing continuously; run under -race by make race. Conservation
// across all sealed epochs plus the live remainder is exact.
func TestConcurrentIngestAndSeal(t *testing.T) {
	const d = 16
	cfg, proto := testConfig(t, d, 0.5)
	cfg.Window = 4
	cfg.History = 8
	m, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}

	trueCounts := make([]int64, d)
	for v := range trueCounts {
		trueCounts[v] = 200
	}
	const ingesters = 4
	var wg sync.WaitGroup
	var wantTotal int64
	reportsPer := make([][]ldp.Report, ingesters)
	for g := 0; g < ingesters; g++ {
		reps, err := ldp.PerturbAll(proto, rng.New(uint64(g)+1), trueCounts)
		if err != nil {
			t.Fatal(err)
		}
		reportsPer[g] = reps
		wantTotal += int64(len(reps))
	}
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(reps []ldp.Report) {
			defer wg.Done()
			for len(reps) > 0 {
				n := 128
				if n > len(reps) {
					n = len(reps)
				}
				if err := m.AddBatch(reps[:n]); err != nil {
					t.Error(err)
					return
				}
				reps = reps[n:]
			}
		}(reportsPer[g])
	}
	var sealedTotal int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			est, err := m.Seal()
			if err != nil {
				t.Error(err)
				return
			}
			_ = est
		}
	}()
	wg.Wait()
	<-done
	final, err := m.Seal()
	if err != nil {
		t.Fatal(err)
	}
	_ = final
	st := m.Stats()
	for _, ep := range m.Epochs() {
		sealedTotal += ep.Total
	}
	// The ring may have evicted early epochs, so check the running total
	// instead: everything ingested was sealed.
	if st.IngestedTotal != wantTotal || st.LiveTotal != 0 {
		t.Fatalf("ingested %d live %d, want %d ingested and 0 live", st.IngestedTotal, st.LiveTotal, wantTotal)
	}
	if sealedTotal > wantTotal {
		t.Fatalf("retained epochs hold %d reports, more than the %d ingested", sealedTotal, wantTotal)
	}
}
