package main

import (
	"math"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// TestSmokeEveryWorkload runs every workload with ~300 ms phases against
// a real spawned serve, correctness gate on, and checks that each run
// reports exactly the metrics BENCHMARK.json names.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns serve; skipped with -short")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := readBench(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildServer(root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			// Shrunk so that, on partial-seal, enough epochs seal for
			// LDPRecover* to engage before the gate checks it did.
			w.crashFill = min(w.crashFill, 2000)
			if w.satSealEvery > 0 {
				w.satSealEvery = 25 * time.Millisecond
			}
			cfg := runConfig{w: w, seed: 1, phase: 300 * time.Millisecond, sealEvery: 25 * time.Millisecond,
				trace: true, serverBin: bin, workDir: t.TempDir()}
			in, err := genInputs(w, cfg.seed)
			if err != nil {
				t.Fatal(err)
			}
			d := &driver{cfg: cfg, in: in, c: newClient()}
			live, verifyErr, err := d.run()
			if err != nil {
				t.Fatal(err)
			}
			if verifyErr != nil {
				t.Fatalf("correctness gate: %v", verifyErr)
			}
			if f := d.failed.Load(); f != 0 {
				t.Errorf("%d of %d operations failed", f, d.attempted.Load())
			}
			e2e := endToEnd(live, &result{Attempted: d.attempted.Load(), Failed: d.failed.Load()})
			for name, m := range e2e {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("end-to-end metric %s = %v, want a positive value", name, m.Value)
				}
			}
			checkNames(t, "end-to-end", e2e, doc.EndToEnd)
			layers, err := traceLayers(cfg, in, live)
			if err != nil {
				t.Fatal(err)
			}
			checkNames(t, "per-layer", layers, doc.PerLayer)
			// Every stage is timed on every workload, the lane it does
			// not use included.
			for name, m := range layers {
				if m.Unit == "ns" && !(m.Value > 0) {
					t.Errorf("per-layer metric %s = %v ns, want a positive time", name, m.Value)
				}
			}
		})
	}
}

// checkNames checks that a run reports exactly the listed metrics, each
// with the listed unit.
func checkNames(t *testing.T, kind string, got map[string]metric, want []benchMetric) {
	t.Helper()
	var names []string
	for _, m := range want {
		names = append(names, m.Name)
		if g, ok := got[m.Name]; !ok {
			t.Errorf("%s metric %s is not reported", kind, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s metric %s has unit %q, BENCHMARK.json says %q", kind, m.Name, g.Unit, m.Unit)
		}
	}
	for name := range got {
		if !slices.Contains(names, name) {
			t.Errorf("%s metric %s is missing from BENCHMARK.json", kind, name)
		}
	}
}
