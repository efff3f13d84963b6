package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: ldprecover
cpu: Example CPU @ 3.00GHz
BenchmarkShardedIngest/sequential-reports-8         	       5	  75471791 ns/op
BenchmarkShardedIngest/batched-reports-8            	       5	  10938629 ns/op
BenchmarkRecoveryQuality_MGA_OUE 	       1	 212962964 ns/op	         0.04507 fg-after	         0.9323 fg-before	         0.0001805 mse-after	         0.004276 mse-before	         0.0001608 mse-star
BenchmarkPerturbOUE-8   	  705834	      1690 ns/op
PASS
ok  	ldprecover	5.047s
?   	ldprecover/cmd/datagen	[no test files]
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" {
		t.Fatalf("metadata wrong: %+v", rep)
	}
	if len(rep.Packages) != 1 || rep.Packages[0] != "ldprecover" {
		t.Fatalf("packages wrong: %v", rep.Packages)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(rep.Benchmarks))
	}
	b0 := rep.Benchmarks[0]
	if b0.Name != "BenchmarkShardedIngest/sequential-reports-8" || b0.Runs != 5 || b0.NsPerOp != 75471791 {
		t.Fatalf("first benchmark wrong: %+v", b0)
	}
	q := rep.Benchmarks[2]
	if q.NsPerOp != 212962964 {
		t.Fatalf("quality ns/op wrong: %+v", q)
	}
	if q.Metrics["mse-after"] != 0.0001805 || q.Metrics["fg-after"] != 0.04507 {
		t.Fatalf("quality metrics wrong: %+v", q.Metrics)
	}
}

func TestParseIgnoresGarbage(t *testing.T) {
	rep, err := parse(strings.NewReader("hello\nBenchmarkBroken 12 nonsense ns/op\nok pkg 1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Fatalf("garbage parsed as benchmarks: %+v", rep.Benchmarks)
	}
}

func TestRunEmitsValidJSON(t *testing.T) {
	var out bytes.Buffer
	if _, err := run(strings.NewReader(sample), &out, nil); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("round trip lost benchmarks: %d", len(rep.Benchmarks))
	}
}

func TestRunRejectsEmpty(t *testing.T) {
	var out bytes.Buffer
	if _, err := run(strings.NewReader("nothing here\n"), &out, nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestRunMerge: a fresh ingest-only run replaces its rows in the base
// report in place, keeps unrelated rows, and appends new names.
func TestRunMerge(t *testing.T) {
	base := &Report{
		GOOS: "linux",
		Benchmarks: []Benchmark{
			{Name: "BenchmarkPerturbOUE-8", Runs: 1, NsPerOp: 99},
			{Name: "BenchmarkStale/only-in-base", Runs: 1, NsPerOp: 42},
		},
	}
	var out bytes.Buffer
	rep, err := run(strings.NewReader(sample), &out, base)
	if err != nil {
		t.Fatal(err)
	}
	// 2 base rows, one replaced in place + 3 new names from the sample.
	if len(rep.Benchmarks) != 5 {
		t.Fatalf("merged %d benchmarks, want 5: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	if rep.Benchmarks[0].Name != "BenchmarkPerturbOUE-8" || rep.Benchmarks[0].NsPerOp != 1690 {
		t.Fatalf("same-name row not replaced in place: %+v", rep.Benchmarks[0])
	}
	if rep.Benchmarks[1].Name != "BenchmarkStale/only-in-base" || rep.Benchmarks[1].NsPerOp != 42 {
		t.Fatalf("base-only row lost in merge: %+v", rep.Benchmarks[1])
	}
}

// TestCheckGate: the MB/s ratio gate passes, fails, and tolerates the
// -GOMAXPROCS suffix on report names.
func TestCheckGate(t *testing.T) {
	rep := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkDurableIngest/report-level-8", NsPerOp: 1, Metrics: map[string]float64{"MB/s": 10}},
		{Name: "BenchmarkDurableIngest/partial-tally-8", NsPerOp: 1, Metrics: map[string]float64{"MB/s": 120}},
		{Name: "BenchmarkDurableIngest/no-bytes"},
	}}
	if err := checkGate(rep, "BenchmarkDurableIngest/partial-tally", "BenchmarkDurableIngest/report-level", 5); err != nil {
		t.Fatalf("12x ratio failed a 5x gate: %v", err)
	}
	if err := checkGate(rep, "BenchmarkDurableIngest/partial-tally", "BenchmarkDurableIngest/report-level", 50); err == nil {
		t.Fatal("12x ratio passed a 50x gate")
	}
	if err := checkGate(rep, "BenchmarkDurableIngest/no-bytes", "BenchmarkDurableIngest/report-level", 1); err == nil {
		t.Fatal("missing MB/s metric passed the gate")
	}
	if err := checkGate(rep, "BenchmarkDurableIngest/missing", "BenchmarkDurableIngest/report-level", 1); err == nil {
		t.Fatal("unknown benchmark passed the gate")
	}
}

// TestRunMergeReplacesAcrossProcsSuffix: a fresh run on a multi-core
// host names every row with Go's -GOMAXPROCS suffix. Merged over a
// report holding the same benchmarks without it, the fresh rows must
// replace the stored ones in place — no stale twin left behind — and
// the gate must read the fresh numbers.
func TestRunMergeReplacesAcrossProcsSuffix(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkMergeParallel/d=65536/sequential", Runs: 1, NsPerOp: 1, Metrics: map[string]float64{"MB/s": 100}},
		{Name: "BenchmarkMergeParallel/d=65536/parallel", Runs: 1, NsPerOp: 1, Metrics: map[string]float64{"MB/s": 900}},
	}}
	fresh := `BenchmarkMergeParallel/d=65536/sequential-2   100   5000 ns/op   400.00 MB/s
BenchmarkMergeParallel/d=65536/parallel-2     100   2000 ns/op   500.00 MB/s
`
	var out bytes.Buffer
	rep, err := run(strings.NewReader(fresh), &out, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("merged %d rows, want the 2 stored rows replaced: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	if rep.Benchmarks[1].Name != "BenchmarkMergeParallel/d=65536/parallel" || rep.Benchmarks[1].NsPerOp != 2000 {
		t.Fatalf("fresh row not merged over the stored one: %+v", rep.Benchmarks[1])
	}
	// Fresh rows read 1.25x; the stale ones would have read 9x.
	if err := checkGate(rep, "BenchmarkMergeParallel/d=65536/parallel",
		"BenchmarkMergeParallel/d=65536/sequential", 2); err == nil {
		t.Fatal("gate passed on the stale rows instead of the fresh run")
	}
}

// TestParseKeepsDigitSuffixedNames: the suffix is stripped only when
// every row of the run carries the same one, so sub-benchmark names
// that end in "-<digits>" on a single-core host survive.
func TestParseKeepsDigitSuffixedNames(t *testing.T) {
	rep, err := parse(strings.NewReader(`BenchmarkFanIn/nodes-4    10   100 ns/op
BenchmarkFanIn/nodes-16   10   200 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Benchmarks[0].Name != "BenchmarkFanIn/nodes-4" || rep.Benchmarks[1].Name != "BenchmarkFanIn/nodes-16" {
		t.Fatalf("names rewritten: %+v", rep.Benchmarks)
	}
	rep, err = parse(strings.NewReader(`BenchmarkFanIn/nodes-4-2    10   100 ns/op
BenchmarkFanIn/nodes-16-2   10   200 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Benchmarks[0].Name != "BenchmarkFanIn/nodes-4" || rep.Benchmarks[1].Name != "BenchmarkFanIn/nodes-16" {
		t.Fatalf("shared -2 suffix not stripped: %+v", rep.Benchmarks)
	}
}

// TestRepeatedSamplesKeepMedian: `go test -count N` prints N rows per
// benchmark. The report keeps one, the sample with the median ns/op
// (the lower middle one for even N) and that sample's own metrics,
// whether or not it merges over a stored report.
func TestRepeatedSamplesKeepMedian(t *testing.T) {
	const fresh = `BenchmarkFold/odd-2    10   200 ns/op   20.00 MB/s
BenchmarkFold/even-2   10   400 ns/op   40.00 MB/s
BenchmarkFold/odd-2    10   100 ns/op   10.00 MB/s
BenchmarkFold/even-2   10   100 ns/op   10.00 MB/s
BenchmarkFold/odd-2    10   300 ns/op   30.00 MB/s
BenchmarkFold/even-2   10   200 ns/op   20.00 MB/s
BenchmarkFold/even-2   10   300 ns/op   30.00 MB/s
`
	check := func(label string, rep *Report) {
		t.Helper()
		if len(rep.Benchmarks) != 2 {
			t.Fatalf("%s: %d rows, want one per name: %+v", label, len(rep.Benchmarks), rep.Benchmarks)
		}
		for i, want := range []Benchmark{
			{Name: "BenchmarkFold/odd", NsPerOp: 200, Metrics: map[string]float64{"MB/s": 20}},
			{Name: "BenchmarkFold/even", NsPerOp: 200, Metrics: map[string]float64{"MB/s": 20}},
		} {
			got := rep.Benchmarks[i]
			if got.Name != want.Name || got.NsPerOp != want.NsPerOp || got.Metrics["MB/s"] != want.Metrics["MB/s"] {
				t.Fatalf("%s: row %d = %+v, want %+v", label, i, got, want)
			}
		}
	}
	var out bytes.Buffer
	rep, err := run(strings.NewReader(fresh), &out, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("fresh report", rep)
	base := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkFold/odd", Runs: 1, NsPerOp: 999},
		{Name: "BenchmarkFold/even", Runs: 1, NsPerOp: 999},
	}}
	rep, err = run(strings.NewReader(fresh), &out, base)
	if err != nil {
		t.Fatal(err)
	}
	check("merged report", rep)
}

// TestRepeatedSamplesRecordSpread: a row collapsed from repeated samples
// carries their count and ns/op range next to the kept median, and a
// single-sample row carries neither (the fields are omitted from JSON).
func TestRepeatedSamplesRecordSpread(t *testing.T) {
	const in = `BenchmarkFold/repeated-2   10   200 ns/op
BenchmarkFold/single-2     10   500 ns/op
BenchmarkFold/repeated-2   10   100 ns/op
BenchmarkFold/repeated-2   10   400 ns/op
BenchmarkFold/repeated-2   10   300 ns/op
BenchmarkFold/repeated-2   10   250 ns/op
`
	var out bytes.Buffer
	rep, err := run(strings.NewReader(in), &out, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []Benchmark{
		{Name: "BenchmarkFold/repeated", Runs: 10, NsPerOp: 250, Samples: 5, MinNsPerOp: 100, MaxNsPerOp: 400},
		{Name: "BenchmarkFold/single", Runs: 10, NsPerOp: 500},
	}
	if !reflect.DeepEqual(rep.Benchmarks, want) {
		t.Fatalf("rows %+v, want %+v", rep.Benchmarks, want)
	}
	var doc struct {
		Benchmarks []map[string]any `json:"benchmarks"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if got := doc.Benchmarks[0]; got["samples"] != 5.0 || got["min_ns_per_op"] != 100.0 || got["max_ns_per_op"] != 400.0 {
		t.Errorf("repeated row JSON %v lacks samples 5, min 100, max 400", got)
	}
	for _, key := range []string{"samples", "min_ns_per_op", "max_ns_per_op"} {
		if _, ok := doc.Benchmarks[1][key]; ok {
			t.Errorf("single-sample row JSON carries %q: %v", key, doc.Benchmarks[1])
		}
	}
}
