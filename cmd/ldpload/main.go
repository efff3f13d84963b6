// Command ldpload is the end-to-end benchmark of `ldprecover serve`: a
// single-process, seeded load driver. It builds cmd/ldprecover from the
// working tree, spawns `serve` on loopback, drives one workload over at
// most two HTTP connections, checks that the server's estimates are
// correct, and prints every metric with its unit. The last line of its
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which keeps every
// build artefact inside the checkout:
//
//	bash cmd/ldpload/run.sh --workload olh-fold --seed 1 --seconds 30 --trace 0
//
// --trace 1 runs the same live workload and then replays its inputs
// in-process through the layers' public functions, reporting per-layer
// metrics instead of end-to-end ones. Every run also appends a record to
// .bench_build/results.jsonl; two such files compare with
//
//	bash cmd/ldpload/run.sh -compare base.jsonl head.jsonl
//
// See README.md for the workloads, the metrics and their bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

// realMain runs the command and returns its exit code: 0 for a correct
// run, 1 for a failed check or run, 2 for bad usage.
func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("ldpload", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: olh-fold, partial-seal or crash-replay")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 30, "measured seconds: the rate, seal and saturate phases get a third each, in 5 blocks")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run; 0: end-to-end metrics")
	cmp := fs.Bool("compare", false, "compare two results files: -compare base.jsonl head.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ldpload:", err)
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "ldpload: -compare takes two results files")
			return 2
		}
		return runCompare(stdout, filepath.Join(root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1))
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 3 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "ldpload: need --workload <name> --seed <n> --seconds <>=3> --trace <0|1> (%v)\n", err)
		return 2
	}
	work := filepath.Join(root, ".bench_build")
	runDir := filepath.Join(work, fmt.Sprintf("run-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "ldpload:", err)
		return 1
	}
	bin, err := buildServer(root, work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ldpload:", err)
		return 1
	}
	cfg := runConfig{
		w: w, seed: *seed, trace: *trace == 1, serverBin: bin, workDir: runDir,
		phase:     time.Duration(*seconds) * time.Second / (3 * blocks),
		sealEvery: 100 * time.Millisecond,
	}
	start := now()
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ldpload: %s: %v (server log kept in %s)\n", w.name, err, runDir)
		return 1
	}
	_ = os.RemoveAll(runDir) // kept only when a run fails, for its server log
	rec := record{result: *res, Workload: w.name, Seed: *seed, Trace: cfg.trace, Seconds: *seconds,
		WallS: since(start).Seconds(), Commit: commit(), NProc: runtime.NumCPU(), GoVersion: runtime.Version()}
	if err := appendRecord(filepath.Join(work, "results.jsonl"), rec); err != nil {
		fmt.Fprintln(os.Stderr, "ldpload:", err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Fprintf(stdout, "%s seed=%d trace=%v wall=%.1fs attempted=%d failed=%d correct=%v\n",
		w.name, *seed, cfg.trace, rec.WallS, res.Attempted, res.Failed, res.Correct)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ldpload:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// execute generates the inputs, runs the workload against a live server
// and derives the metrics: end-to-end ones, or per-layer ones from the
// traced replay.
func execute(cfg runConfig) (*result, error) {
	in, err := genInputs(cfg.w, cfg.seed)
	if err != nil {
		return nil, err
	}
	d := &driver{cfg: cfg, in: in, c: newClient()}
	live, verifyErr, err := d.run()
	if err != nil {
		return nil, err
	}
	res := &result{Correct: verifyErr == nil, Attempted: d.attempted.Load(), Failed: d.failed.Load()}
	if verifyErr != nil {
		fmt.Fprintf(os.Stderr, "ldpload: %s: correctness check failed: %v\n", cfg.w.name, verifyErr)
	}
	if cfg.trace {
		res.Metrics, err = traceLayers(cfg, in, live)
	} else {
		res.Metrics = endToEnd(live, res)
	}
	if err != nil {
		return nil, err
	}
	for n, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s has no value: the run collected no samples for it", n)
		}
	}
	return res, nil
}

// endToEnd names the end-to-end metrics of an untraced run.
func endToEnd(lr liveRun, res *result) map[string]metric {
	return map[string]metric{
		"setup_s":                  {median(lr.setups), "s"},
		"ingest_ack_p50_ms":        {percentile(lr.rate.ack, 50), "ms"},
		"seal_p50_ms":              {percentile(lr.seals.seal, 50), "ms"},
		"estimate_p50_ms":          {percentile(lr.seals.read, 50), "ms"},
		"acked_share":              {1 - float64(res.Failed)/float64(res.Attempted), "ratio"},
		"server_cpu_ns_per_report": {lr.cpuPerReport(), "ns"},
		"server_rss_mb":            {median(lr.rate.rss), "MB"},
	}
}

// commit names the source revision the driver was built from, when the
// build recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// appendRecord appends one JSON record line to the results file.
func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	return errors.Join(err, f.Close())
}

// runCompare compares two results files under BENCHMARK.json's bounds;
// it fails when any end-to-end metric regressed.
func runCompare(stdout io.Writer, benchPath, basePath, headPath string) int {
	doc, err := readBench(benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ldpload:", err)
		return 2
	}
	base, err1 := readRecords(basePath)
	head, err2 := readRecords(headPath)
	if err := errors.Join(err1, err2); err != nil {
		fmt.Fprintln(os.Stderr, "ldpload:", err)
		return 2
	}
	if compare(stdout, doc.byName(), base, head) {
		return 1
	}
	return 0
}
