package ldprecover_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ldprecover"
	"ldprecover/internal/detect"
	"ldprecover/internal/ldp"
)

// TestFacadeEndToEnd exercises the public API exactly as a downstream
// user would: simulate, attack, recover, evaluate.
func TestFacadeEndToEnd(t *testing.T) {
	const d, eps = 30, 0.5
	r := ldprecover.NewRand(1)

	ds, err := ldprecover.ZipfDataset("demo", d, 30000, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := ldprecover.NewOUE(d, eps)
	if err != nil {
		t.Fatal(err)
	}
	genuine, err := ldprecover.PerturbAll(proto, r, ds.Counts)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := ldprecover.RandomTargets(r, d, 5)
	if err != nil {
		t.Fatal(err)
	}
	mga, err := ldprecover.NewMGA(targets)
	if err != nil {
		t.Fatal(err)
	}
	malicious, err := mga.CraftReports(r, proto, 1500)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]ldprecover.Report{}, genuine...), malicious...)

	poisoned, err := ldprecover.EstimateFrequencies(all, proto.Params())
	if err != nil {
		t.Fatal(err)
	}
	genuineEst, err := ldprecover.EstimateFrequencies(genuine, proto.Params())
	if err != nil {
		t.Fatal(err)
	}

	res, err := ldprecover.Recover(poisoned, proto.Params(), ldprecover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resStar, err := ldprecover.RecoverWithTargets(poisoned, proto.Params(), targets, ldprecover.DefaultEta)
	if err != nil {
		t.Fatal(err)
	}

	trueF := ds.Frequencies()
	mseBefore, err := ldprecover.MSE(poisoned, trueF)
	if err != nil {
		t.Fatal(err)
	}
	mseAfter, err := ldprecover.MSE(res.Frequencies, trueF)
	if err != nil {
		t.Fatal(err)
	}
	if mseAfter >= mseBefore {
		t.Fatalf("recovery failed: before %v after %v", mseBefore, mseAfter)
	}

	fgBefore, err := ldprecover.FrequencyGain(poisoned, genuineEst, targets)
	if err != nil {
		t.Fatal(err)
	}
	fgStar, err := ldprecover.FrequencyGain(resStar.Frequencies, genuineEst, targets)
	if err != nil {
		t.Fatal(err)
	}
	if fgBefore <= 0 || fgStar >= fgBefore/2 {
		t.Fatalf("FG not suppressed: before %v star %v", fgBefore, fgStar)
	}

	// Detection baseline runs on the same reports.
	det, err := ldprecover.Detection(all, targets, proto.Params())
	if err != nil {
		t.Fatal(err)
	}
	if det.Removed == 0 {
		t.Fatal("detection removed nobody")
	}
}

// TestFacadeShardedBatchPipeline exercises the concurrent ingest engine
// and the count-level simulation path through the public API: a genuine
// population simulated at count level, a poisoning attack's counts folded in,
// and recovery run on the sharded aggregate's estimate.
func TestFacadeShardedBatchPipeline(t *testing.T) {
	const d, eps = 24, 0.8
	r := ldprecover.NewRand(9)

	ds, err := ldprecover.ZipfDataset("sharded-demo", d, 40000, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := ldprecover.NewOUE(d, eps)
	if err != nil {
		t.Fatal(err)
	}
	genCounts, err := proto.SimulateGenuineCounts(r, ds.Counts)
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
	const m = 2000
	malCounts, err := mga.CraftCounts(r, proto, m)
	if err != nil {
		t.Fatal(err)
	}

	sa, err := ldprecover.NewShardedAccumulator(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.AddCounts(genCounts, ds.N()); err != nil {
		t.Fatal(err)
	}
	if err := sa.AddCounts(malCounts, m); err != nil {
		t.Fatal(err)
	}
	if sa.Total() != ds.N()+m {
		t.Fatalf("total %d want %d", sa.Total(), ds.N()+m)
	}

	poisoned, err := sa.Estimate(proto.Params())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ldprecover.Recover(poisoned, proto.Params(), ldprecover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	trueF := ds.Frequencies()
	mseBefore, err := ldprecover.MSE(poisoned, trueF)
	if err != nil {
		t.Fatal(err)
	}
	mseAfter, err := ldprecover.MSE(res.Frequencies, trueF)
	if err != nil {
		t.Fatal(err)
	}
	if mseAfter >= mseBefore {
		t.Fatalf("recovery failed on batch pipeline: before %v after %v", mseBefore, mseAfter)
	}
}

func TestFacadeMaliciousSum(t *testing.T) {
	proto, _ := ldprecover.NewGRR(102, 0.5)
	sum, err := ldprecover.MaliciousSum(proto.Params())
	if err != nil {
		t.Fatal(err)
	}
	if sum < 0.9 || sum > 1.1 {
		t.Fatalf("GRR malicious sum %v", sum)
	}
}

func TestFacadeOutlierPipeline(t *testing.T) {
	ds := ldprecover.SyntheticIPUMS()
	small, err := ds.Scaled(0.02)
	if err != nil {
		t.Fatal(err)
	}
	r := ldprecover.NewRand(3)
	hist, err := ldprecover.GenerateHistory(small, 8, 0.02, r)
	if err != nil {
		t.Fatal(err)
	}
	current := append([]float64(nil), small.Frequencies()...)
	current[11] += 0.2
	found, err := ldprecover.ZScoreOutliers(hist, current, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 1 || found[0] != 11 {
		t.Fatalf("outliers %v want [11]", found)
	}
}

func TestFacadeSyntheticCorpora(t *testing.T) {
	if ldprecover.SyntheticIPUMS().Domain() != 102 {
		t.Fatal("IPUMS surrogate domain wrong")
	}
	if ldprecover.SyntheticFire().Domain() != 490 {
		t.Fatal("Fire surrogate domain wrong")
	}
}

// ExampleRecover demonstrates non-knowledge recovery on an analytically
// poisoned vector.
func ExampleRecover() {
	proto, _ := ldprecover.NewGRR(4, 1.0)
	// A poisoned estimate: item 0's frequency has been inflated.
	poisoned := []float64{0.70, 0.15, 0.10, 0.05}
	res, _ := ldprecover.Recover(poisoned, proto.Params(), ldprecover.Options{})
	var sum float64
	for _, f := range res.Frequencies {
		sum += f
	}
	fmt.Printf("simplex sum = %.3f\n", sum)
	// Output: simplex sum = 1.000
}

// TestFacadeStreamingPipeline exercises the streaming re-exports as a
// downstream service would: batch frames off the wire into an
// EpochManager, seal epochs, and read window estimates.
func TestFacadeStreamingPipeline(t *testing.T) {
	const d, eps = 16, 0.8
	proto, err := ldprecover.NewOUE(d, eps)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := ldprecover.NewEpochManager(ldprecover.StreamConfig{
		Params: proto.Params(),
		Window: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := ldprecover.NewRand(4)
	counts := make([]int64, d)
	for v := range counts {
		counts[v] = 500
	}
	for e := 0; e < 3; e++ {
		reports, err := ldprecover.PerturbAll(proto, r, counts)
		if err != nil {
			t.Fatal(err)
		}
		// Round-trip one epoch through the batch wire codec, the way the
		// serve endpoint receives it.
		frame, err := ldprecover.MarshalReportBatch(reports[:256])
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := ldp.UnmarshalReportBatch(frame)
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.AddBatch(decoded); err != nil {
			t.Fatal(err)
		}
		if err := mgr.AddBatch(reports[256:]); err != nil {
			t.Fatal(err)
		}
		est, err := mgr.Seal()
		if err != nil {
			t.Fatal(err)
		}
		wantEpochs := 2
		if e == 0 {
			wantEpochs = 1
		}
		if est.Epochs != wantEpochs || est.Total != int64(wantEpochs*len(reports)) {
			t.Fatalf("epoch %d: window %d epochs / %d reports", e, est.Epochs, est.Total)
		}
		var sum float64
		for _, f := range est.Recovered {
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("recovered window estimate sums to %v", sum)
		}
	}
	st := mgr.Stats()
	if st.Epochs != 3 || st.IngestedTotal != int64(3*d*500) {
		t.Fatalf("stream stats %+v", st)
	}
	if mgr.Latest() == nil {
		t.Fatal("no latest window estimate")
	}
	// The tracker hysteresis behind the LDPRecover* upgrade.
	tr, err := detect.NewTargetTracker(2)
	if err != nil {
		t.Fatal(err)
	}
	tr.Observe([]int{3})
	if got := tr.Observe([]int{3}); len(got) != 1 || got[0] != 3 {
		t.Fatalf("tracker stable set %v", got)
	}
}

// TestFacadeFunctionsHaveCallers keeps the facade to its client API:
// each exported function in ldprecover.go needs a ldprecover.<Name>
// use in a program under examples/ (test files do not count) or in
// README.md, which shows the client-side API to code outside this
// module. The commands under cmd/ import the internal packages
// directly, so no non-test file there may import the facade: a function
// only a command reaches belongs in its internal package, not here.
func TestFacadeFunctionsHaveCallers(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "ldprecover.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	use := regexp.MustCompile(`\bldprecover\.([A-Z]\w*)`)
	reached := map[string]bool{}
	collect := func(path string) error {
		src, err := os.ReadFile(path)
		for _, m := range use.FindAllSubmatch(src, -1) {
			reached[string(m[1])] = true
		}
		return err
	}
	if err := collect("README.md"); err != nil {
		t.Fatal(err)
	}
	walkPrograms := func(root string, fn func(path string) error) {
		t.Helper()
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			return fn(path)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	walkPrograms("examples", collect)
	walkPrograms("cmd", func(path string) error {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"ldprecover"` {
				t.Errorf("%s imports the facade; commands import ldprecover/internal/... directly", path)
			}
		}
		return nil
	})
	var funcs int
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv != nil || !fn.Name.IsExported() {
			continue
		}
		funcs++
		if !reached[fn.Name.Name] {
			t.Errorf("facade function %s has no caller in examples/ or README.md", fn.Name.Name)
		}
	}
	if funcs == 0 {
		t.Fatal("found no exported functions in ldprecover.go")
	}
}
