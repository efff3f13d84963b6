package ldprecover_test

import (
	"fmt"
	"math"
	"testing"

	"ldprecover"
	"ldprecover/internal/ldp"
)

// TestRecoveryGeneralityAcrossProtocols verifies the paper's claim that
// LDPRecover applies to any pure LDP protocol: the same attack and
// recovery pipeline runs over GRR, OUE, OLH, SUE and BLH, and recovery
// improves the poisoned estimate on each.
func TestRecoveryGeneralityAcrossProtocols(t *testing.T) {
	const d, eps = 24, 0.8
	ds, err := ldprecover.ZipfDataset("gen", d, 40000, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	truth := ds.Frequencies()

	build := []struct {
		name string
		mk   func() (ldprecover.Protocol, error)
	}{
		{"GRR", func() (ldprecover.Protocol, error) { return ldprecover.NewGRR(d, eps) }},
		{"OUE", func() (ldprecover.Protocol, error) { return ldprecover.NewOUE(d, eps) }},
		{"OLH", func() (ldprecover.Protocol, error) { return ldprecover.NewOLH(d, eps) }},
		{"SUE", func() (ldprecover.Protocol, error) { return ldp.NewSUE(d, eps) }},
		{"BLH", func() (ldprecover.Protocol, error) { return ldp.NewBLH(d, eps) }},
	}
	for _, b := range build {
		b := b
		t.Run(b.name, func(t *testing.T) {
			proto, err := b.mk()
			if err != nil {
				t.Fatal(err)
			}
			if proto.Name() != b.name {
				t.Fatalf("name %q want %q", proto.Name(), b.name)
			}
			r := ldprecover.NewRand(11)
			genuine, err := ldprecover.PerturbAll(proto, r, ds.Counts)
			if err != nil {
				t.Fatal(err)
			}
			targets, err := ldprecover.RandomTargets(r, d, 4)
			if err != nil {
				t.Fatal(err)
			}
			mga, err := ldprecover.NewMGA(targets)
			if err != nil {
				t.Fatal(err)
			}
			malicious, err := mga.CraftReports(r, proto, int64(len(genuine)/19))
			if err != nil {
				t.Fatal(err)
			}
			all := append(append([]ldprecover.Report{}, genuine...), malicious...)
			poisoned, err := ldprecover.EstimateFrequencies(all, proto.Params())
			if err != nil {
				t.Fatal(err)
			}
			// LDPRecover* with the true targets: the strongest, most
			// stable comparison across protocols.
			res, err := ldprecover.RecoverWithTargets(poisoned, proto.Params(), targets, ldprecover.DefaultEta)
			if err != nil {
				t.Fatal(err)
			}
			mseBefore, err := ldprecover.MSE(poisoned, truth)
			if err != nil {
				t.Fatal(err)
			}
			mseAfter, err := ldprecover.MSE(res.Frequencies, truth)
			if err != nil {
				t.Fatal(err)
			}
			if mseAfter >= mseBefore {
				t.Fatalf("recovery failed on %s: before %v after %v",
					b.name, mseBefore, mseAfter)
			}
			// Output is a simplex point.
			var sum float64
			for _, f := range res.Frequencies {
				if f < 0 {
					t.Fatal("negative recovered frequency")
				}
				sum += f
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("recovered sum %v", sum)
			}
		})
	}
}

// TestHarmonyFacade exercises the mean-estimation extension through the
// public API.
func TestHarmonyFacade(t *testing.T) {
	h, err := ldprecover.NewHarmony(0.8)
	if err != nil {
		t.Fatal(err)
	}
	r := ldprecover.NewRand(6)
	var reports []ldprecover.Report
	for i := 0; i < 30000; i++ {
		rep, err := h.Perturb(r, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	freqs, err := ldprecover.EstimateFrequencies(reports, h.Params())
	if err != nil {
		t.Fatal(err)
	}
	mean, err := ldprecover.HarmonyMean(freqs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-0.4) > 0.05 {
		t.Fatalf("harmony mean %v want 0.4", mean)
	}
}

// ExampleMaliciousSum shows the server-side learnt statistic (Eq. 21).
func ExampleMaliciousSum() {
	proto, _ := ldprecover.NewGRR(102, 0.5)
	sum, _ := ldprecover.MaliciousSum(proto.Params())
	fmt.Printf("GRR malicious frequency summation: %.3f\n", sum)
	// Output: GRR malicious frequency summation: 1.000
}

// TestWireAndStreamingPipeline runs client-side perturbation, wire
// serialization (the per-report codec), streaming sharded aggregation and
// recovery end to end — the deployment shape a real collector would use.
func TestWireAndStreamingPipeline(t *testing.T) {
	const d, eps = 16, 0.8
	proto, err := ldprecover.NewOLH(d, eps)
	if err != nil {
		t.Fatal(err)
	}
	r := ldprecover.NewRand(21)
	ds, err := ldprecover.ZipfDataset("wire", d, 8000, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := ldprecover.PerturbAll(proto, r, ds.Counts)
	if err != nil {
		t.Fatal(err)
	}
	// Client -> wire -> two server shards -> merge.
	shards := make([]*ldprecover.Accumulator, 2)
	for i := range shards {
		if shards[i], err = ldprecover.NewAccumulator(d); err != nil {
			t.Fatal(err)
		}
	}
	for i, rep := range reports {
		buf, err := ldp.MarshalReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ldp.UnmarshalReport(buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := shards[i%2].Add(back); err != nil {
			t.Fatal(err)
		}
	}
	if err := shards[0].Merge(shards[1]); err != nil {
		t.Fatal(err)
	}
	est, err := shards[0].Estimate(proto.Params())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ldprecover.Recover(est, proto.Params(), ldprecover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mse, err := ldprecover.MSE(res.Frequencies, ds.Frequencies())
	if err != nil {
		t.Fatal(err)
	}
	if mse > 5e-3 {
		t.Fatalf("pipeline MSE %v too large", mse)
	}
}
