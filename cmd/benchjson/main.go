// Command benchjson converts `go test -bench` output into a
// machine-readable JSON report, so CI can archive per-commit benchmark
// trajectories (ns/op plus the recovery-quality metrics the benchmarks
// emit via b.ReportMetric, e.g. mse-after and fg-after).
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 1x ./... | benchjson -o BENCH_report.json
//
// Reading stdin and writing stdout are the defaults; non-benchmark lines
// (test summaries, package headers) pass through unparsed. Repeated
// samples of one benchmark (`go test -count N`) collapse to the sample
// with the median ns/op, the lower middle one for even N, which also
// records N and the samples' ns/op range.
//
// -merge folds the freshly parsed results into an existing report
// instead of starting from scratch: same-name benchmarks are replaced in
// place, new ones append. `make bench-ingest` uses it to re-baseline just
// the ingest rows of BENCH_report.json at a longer benchtime without
// re-running the full figure suite.
//
// -gate-num/-gate-den/-gate-min assert a throughput ratio between two
// benchmarks in the final report: the run fails (exit 1) unless the
// numerator's MB/s is at least min times the denominator's. CI gates
// the tally-first ingest lanes with it — the partial-tally lane must
// stay ≥5x the report lane.
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Benchmark is one benchmark result line.
type Benchmark struct {
	// Name is the benchmark's printed name and sub-benchmark path, less
	// the GOMAXPROCS suffix when every row of the run shares it.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS of that stripped suffix, so a row records
	// the parallelism it ran at; zero when the run printed no suffix
	// (GOMAXPROCS=1) or its rows did not share one.
	Procs int `json:"procs,omitempty"`
	// Runs is the measured iteration count (b.N).
	Runs int64 `json:"runs"`
	// NsPerOp is the headline latency.
	NsPerOp float64 `json:"ns_per_op"`
	// Metrics holds every further "value unit" pair on the line: B/op,
	// allocs/op, and custom b.ReportMetric outputs such as mse-after.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Samples, MinNsPerOp and MaxNsPerOp record the spread when the row
	// is the median of repeated samples (`go test -count N`, N > 1);
	// a single sample leaves them unset.
	Samples    int     `json:"samples,omitempty"`
	MinNsPerOp float64 `json:"min_ns_per_op,omitempty"`
	MaxNsPerOp float64 `json:"max_ns_per_op,omitempty"`
}

// Report is the emitted document.
type Report struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Packages   []string    `json:"packages,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// parseLine parses one benchmark result line, returning ok=false for
// anything that is not one.
func parseLine(line string) (Benchmark, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Benchmark{}, false
	}
	fields := strings.Fields(line)
	// Name, N, then (value, unit) pairs: at least "Name N value ns/op".
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Runs: runs}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			b.NsPerOp = val
			seen = true
			continue
		}
		if b.Metrics == nil {
			b.Metrics = make(map[string]float64)
		}
		b.Metrics[unit] = val
	}
	if !seen {
		return Benchmark{}, false
	}
	return b, true
}

// parse consumes full `go test -bench` output.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Packages = append(rep.Packages, strings.TrimPrefix(line, "pkg: "))
		default:
			if b, ok := parseLine(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	stripProcsSuffix(rep.Benchmarks)
	rep.Benchmarks = medianSamples(rep.Benchmarks)
	return rep, nil
}

// medianSamples keeps one row per name, in first-seen order: of a
// name's samples, the one with the median ns/op (the lower middle one
// for an even count). The whole row is kept, so its metrics come from
// the same measured run as its ns/op; a name with more than one sample
// also records their count and ns/op range.
func medianSamples(rows []Benchmark) []Benchmark {
	samples := make(map[string][]Benchmark, len(rows))
	var names []string
	for _, b := range rows {
		if _, ok := samples[b.Name]; !ok {
			names = append(names, b.Name)
		}
		samples[b.Name] = append(samples[b.Name], b)
	}
	out := make([]Benchmark, 0, len(names))
	for _, name := range names {
		s := samples[name]
		slices.SortStableFunc(s, func(a, b Benchmark) int { return cmp.Compare(a.NsPerOp, b.NsPerOp) })
		median := s[(len(s)-1)/2]
		if len(s) > 1 {
			median.Samples, median.MinNsPerOp, median.MaxNsPerOp = len(s), s[0].NsPerOp, s[len(s)-1].NsPerOp
		}
		out = append(out, median)
	}
	return out
}

// stripProcsSuffix drops the "-N" GOMAXPROCS suffix Go appends to every
// row of a run with N > 1, so fresh rows merge over stored ones on any
// host, and records N as each row's Procs. A suffix not shared by every
// row is part of a name and stays.
func stripProcsSuffix(rows []Benchmark) {
	suffix := ""
	for _, b := range rows {
		i := strings.LastIndexByte(b.Name, '-')
		_, err := strconv.ParseUint(b.Name[i+1:], 10, 0)
		if i < 0 || err != nil || (suffix != "" && b.Name[i:] != suffix) {
			return
		}
		suffix = b.Name[i:]
	}
	if suffix == "" {
		return
	}
	procs, _ := strconv.Atoi(suffix[1:])
	for i := range rows {
		rows[i].Name = strings.TrimSuffix(rows[i].Name, suffix)
		rows[i].Procs = procs
	}
}

// mergeInto folds fresh results into base: same-name benchmarks are
// replaced in place (preserving the report's ordering), new ones
// append. Environment fields follow the fresh run when it reported
// them.
func mergeInto(base, fresh *Report) *Report {
	idx := make(map[string]int, len(base.Benchmarks))
	for i, b := range base.Benchmarks {
		idx[b.Name] = i
	}
	for _, b := range fresh.Benchmarks {
		if i, ok := idx[b.Name]; ok {
			base.Benchmarks[i] = b
		} else {
			idx[b.Name] = len(base.Benchmarks)
			base.Benchmarks = append(base.Benchmarks, b)
		}
	}
	if fresh.GOOS != "" {
		base.GOOS = fresh.GOOS
	}
	if fresh.GOARCH != "" {
		base.GOARCH = fresh.GOARCH
	}
	if fresh.CPU != "" {
		base.CPU = fresh.CPU
	}
	for _, p := range fresh.Packages {
		if !slices.Contains(base.Packages, p) {
			base.Packages = append(base.Packages, p)
		}
	}
	return base
}

// findBench resolves name in the report, tolerating Go's -GOMAXPROCS
// suffix (BenchmarkX/lane vs BenchmarkX/lane-8).
func findBench(rep *Report, name string) (Benchmark, error) {
	for _, b := range rep.Benchmarks {
		if b.Name == name || strings.HasPrefix(b.Name, name+"-") {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("benchmark %q not in report", name)
}

// checkGate enforces MB/s(num) >= min * MB/s(den).
func checkGate(rep *Report, num, den string, min float64) error {
	nb, err := findBench(rep, num)
	if err != nil {
		return err
	}
	db, err := findBench(rep, den)
	if err != nil {
		return err
	}
	nv, ok := nb.Metrics["MB/s"]
	if !ok {
		return fmt.Errorf("benchmark %q reports no MB/s (missing b.SetBytes?)", nb.Name)
	}
	dv, ok := db.Metrics["MB/s"]
	if !ok {
		return fmt.Errorf("benchmark %q reports no MB/s (missing b.SetBytes?)", db.Name)
	}
	if dv <= 0 || nv < min*dv {
		return fmt.Errorf("gate failed: %s at %.2f MB/s is %.2fx %s (%.2f MB/s), need >= %.1fx",
			nb.Name, nv, nv/dv, db.Name, dv, min)
	}
	fmt.Fprintf(os.Stderr, "benchjson: gate ok: %s at %.2f MB/s is %.2fx %s (%.2f MB/s, need >= %.1fx)\n",
		nb.Name, nv, nv/dv, db.Name, dv, min)
	return nil
}

func run(in io.Reader, out io.Writer, base *Report) (*Report, error) {
	rep, err := parse(in)
	if err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in input")
	}
	if base != nil {
		rep = mergeInto(base, rep)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return rep, enc.Encode(rep)
}

func main() {
	outPath := flag.String("o", "", "output file (default stdout)")
	mergePath := flag.String("merge", "", "existing report to fold results into (may equal -o)")
	gateNum := flag.String("gate-num", "", "gate numerator benchmark name")
	gateDen := flag.String("gate-den", "", "gate denominator benchmark name")
	gateMin := flag.Float64("gate-min", 0, "minimum MB/s ratio numerator/denominator")
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	} else if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "usage: benchjson [-o out.json] [-merge base.json] [bench-output.txt]")
		os.Exit(2)
	}

	// Load the merge base before -o possibly truncates the same file.
	var base *Report
	if *mergePath != "" {
		data, err := os.ReadFile(*mergePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		base = &Report{}
		if err := json.Unmarshal(data, base); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: parsing %s: %v\n", *mergePath, err)
			os.Exit(1)
		}
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}

	rep, err := run(in, out, base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *gateNum != "" || *gateDen != "" {
		if *gateNum == "" || *gateDen == "" || *gateMin <= 0 {
			fmt.Fprintln(os.Stderr, "benchjson: -gate-num, -gate-den and -gate-min must be set together")
			os.Exit(2)
		}
		if err := checkGate(rep, *gateNum, *gateDen, *gateMin); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
}
