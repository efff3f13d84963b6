// Command ldpaudit empirically audits the repository's privacy and
// recovery claims (internal/audit; DESIGN.md §11).
//
// Privacy mode drives each protocol's real client paths — itemwise
// Perturb, the PerturbAllInto bulk arena, and the SimulateGenuineCounts
// count-level path — over neighboring inputs and certifies an empirical
// privacy budget eps_emp with exact Clopper-Pearson bounds. Recovery
// mode replays the streamed MGA scenario across an attacker-strength
// grid and bounds the violation rate of the recovery guarantees.
//
//	ldpaudit -mode privacy  -protocol all -path all -eps 1,4 -trials 200000
//	ldpaudit -mode recovery -protocol OUE -betas 0.05,0.1 -rec-runs 8
//	ldpaudit -mode all -bench | benchjson -merge -o BENCH_report.json
//
// The process exits 1 if any audited cell fails its gate
// (eps_emp <= eps + slack for privacy cells; the certified
// violation-rate bound for recovery), so CI can wire it directly.
// -bench prints Go-benchmark-formatted lines that benchjson folds into
// BENCH_report.json next to the figure benchmarks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"ldprecover/internal/audit"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "ldpaudit: %v\n", err)
		os.Exit(1)
	}
}

// options collects the parsed flag set.
type options struct {
	mode       string
	protocols  []string
	paths      []audit.Path
	trials     int64
	epsList    []float64
	domain     int
	confidence float64
	slack      float64
	seed       uint64
	jsonOut    bool
	benchOut   bool

	betas         []float64
	recConfidence float64
	recRuns       int
	recEpochs     int
	recDomain     int
	recN          int64
}

// report is the -json document.
type report struct {
	Privacy  []audit.Result          `json:"privacy,omitempty"`
	Recovery []*audit.RecoveryResult `json:"recovery,omitempty"`
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ldpaudit", flag.ContinueOnError)
	mode := fs.String("mode", "privacy", "audit mode: privacy, recovery, or all")
	protocol := fs.String("protocol", "all", "protocol to audit (GRR, OUE, SUE, OLH, or all)")
	path := fs.String("path", "all", "client path to audit (itemwise, bulk, count, or all)")
	trials := fs.Int64("trials", 200000, "reports observed per neighboring input per cell")
	eps := fs.String("eps", "1,4", "comma-separated privacy budgets to audit")
	d := fs.Int("d", 16, "item-domain size for the privacy audit")
	confidence := fs.Float64("confidence", 0.99, "Clopper-Pearson confidence level")
	slack := fs.Float64("slack", 0.05, "privacy gate allowance: pass iff eps_emp <= eps + slack")
	seed := fs.Uint64("seed", 1, "deterministic audit seed")
	jsonOut := fs.Bool("json", false, "emit the full audit document as JSON")
	benchOut := fs.Bool("bench", false, "emit Go-benchmark-formatted lines for benchjson -merge")
	betas := fs.String("betas", "0.05,0.1,0.15", "attacker-strength grid for the recovery audit")
	recConfidence := fs.Float64("rec-confidence", 0.95, "confidence of the recovery violation-rate bound (looser than the privacy level: the exact bound must clear the gate on a short grid)")
	recRuns := fs.Int("rec-runs", 8, "stream seeds per beta in the recovery audit")
	recEpochs := fs.Int("rec-epochs", 16, "stream length for the recovery audit")
	recDomain := fs.Int("rec-d", 64, "domain size for the recovery audit")
	recN := fs.Int64("rec-n", 60000, "population size for the recovery audit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	opts := options{
		mode:          *mode,
		trials:        *trials,
		domain:        *d,
		confidence:    *confidence,
		slack:         *slack,
		seed:          *seed,
		jsonOut:       *jsonOut,
		benchOut:      *benchOut,
		recConfidence: *recConfidence,
		recRuns:       *recRuns,
		recEpochs:     *recEpochs,
		recDomain:     *recDomain,
		recN:          *recN,
	}
	var err error
	if opts.protocols, err = parseProtocols(*protocol); err != nil {
		return err
	}
	if opts.paths, err = parsePaths(*path); err != nil {
		return err
	}
	if opts.epsList, err = parseFloats(*eps); err != nil {
		return fmt.Errorf("-eps: %w", err)
	}
	if opts.betas, err = parseFloats(*betas); err != nil {
		return fmt.Errorf("-betas: %w", err)
	}
	if opts.recRuns < 1 {
		return fmt.Errorf("-rec-runs %d", opts.recRuns)
	}

	var rep report
	switch opts.mode {
	case "privacy":
		rep.Privacy, err = privacySweep(opts, w)
	case "recovery":
		rep.Recovery, err = recoverySweep(opts, w)
	case "all":
		if rep.Privacy, err = privacySweep(opts, w); err == nil {
			rep.Recovery, err = recoverySweep(opts, w)
		}
	default:
		return fmt.Errorf("unknown mode %q", opts.mode)
	}
	if err != nil {
		return err
	}
	if opts.jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	}
	return gate(rep)
}

// privacySweep audits every protocol x path x eps cell, printing one
// line per cell as it completes.
func privacySweep(opts options, w io.Writer) ([]audit.Result, error) {
	var results []audit.Result
	for _, eps := range opts.epsList {
		for _, name := range opts.protocols {
			//ldplint:allow nowallclock audit wall time feeds the ns/op field of the bench lines only
			start := time.Now()
			cellResults, err := audit.Run(audit.Config{
				Protocol:   name,
				Epsilon:    eps,
				Domain:     opts.domain,
				Trials:     opts.trials,
				Confidence: opts.confidence,
				Slack:      opts.slack,
				Seed:       opts.seed,
				Paths:      opts.paths,
			})
			if err != nil {
				return nil, err
			}
			//ldplint:allow nowallclock audit wall time feeds the ns/op field of the bench lines only
			elapsed := time.Since(start)
			perPath := elapsed / time.Duration(len(cellResults))
			for _, res := range cellResults {
				printPrivacy(opts, w, res, perPath)
			}
			results = append(results, cellResults...)
		}
	}
	return results, nil
}

func printPrivacy(opts options, w io.Writer, res audit.Result, elapsed time.Duration) {
	if opts.benchOut {
		// One bench line per cell: trials as the iteration count, the
		// certified budget and its companions as custom metrics.
		fmt.Fprintf(w, "BenchmarkAudit/%s/%s/eps=%g %d %.1f ns/op %.4f eps-emp %.4f eps-point %.4f eps-hi\n",
			res.Protocol, res.Path, res.Epsilon, res.Trials,
			float64(elapsed.Nanoseconds())/float64(2*res.Trials),
			res.EpsEmp, res.EpsPoint, res.EpsHi)
		return
	}
	if !opts.jsonOut {
		fmt.Fprintf(w, "%-4s %-8s eps=%-4g eps_emp=%.4f [point %.4f, hi %.4f] %s\n",
			res.Protocol, res.Path, res.Epsilon, res.EpsEmp, res.EpsPoint, res.EpsHi, res.Verdict())
	}
}

// recoverySweep audits the streamed recovery guarantees per protocol.
func recoverySweep(opts options, w io.Writer) ([]*audit.RecoveryResult, error) {
	var results []*audit.RecoveryResult
	for _, name := range opts.protocols {
		if name == "SUE" {
			continue // no streamed scenario
		}
		seeds := make([]uint64, opts.recRuns)
		for i := range seeds {
			seeds[i] = opts.seed + uint64(i)
		}
		//ldplint:allow nowallclock audit wall time feeds the ns/op field of the bench lines only
		start := time.Now()
		res, err := audit.RunRecovery(audit.RecoveryConfig{
			Protocol:   name,
			Epsilon:    opts.epsList[0],
			Domain:     opts.recDomain,
			N:          opts.recN,
			Betas:      opts.betas,
			Seeds:      seeds,
			Epochs:     opts.recEpochs,
			Confidence: opts.recConfidence,
		})
		if err != nil {
			return nil, err
		}
		//ldplint:allow nowallclock audit wall time feeds the ns/op field of the bench lines only
		elapsed := time.Since(start)
		switch {
		case opts.benchOut:
			fmt.Fprintf(w, "BenchmarkAuditRecovery/%s/eps=%g %d %.1f ns/op %.4f violation-rate %.4f rate-hi\n",
				res.Protocol, res.Epsilon, len(res.Runs),
				float64(elapsed.Nanoseconds())/float64(len(res.Runs)),
				res.Rate, res.RateHi)
		case !opts.jsonOut:
			fmt.Fprintf(w, "%-4s recovery eps=%-4g violations=%d/%d rate_hi=%.3f %s\n",
				res.Protocol, res.Epsilon, res.Violated, len(res.Runs), res.RateHi, res.Verdict())
		}
		results = append(results, res)
	}
	return results, nil
}

// gate returns an error if any audited cell failed, so the process
// exits nonzero under CI.
func gate(rep report) error {
	var failed []string
	for _, res := range rep.Privacy {
		if !res.Pass {
			failed = append(failed, fmt.Sprintf("%s/%s eps=%g: %s", res.Protocol, res.Path, res.Epsilon, res.Verdict()))
		}
	}
	for _, res := range rep.Recovery {
		if !res.Pass {
			failed = append(failed, fmt.Sprintf("%s recovery: %s", res.Protocol, res.Verdict()))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("audit gate failed:\n  %s", strings.Join(failed, "\n  "))
	}
	return nil
}

func parseProtocols(s string) ([]string, error) {
	if s == "all" {
		return audit.Protocols, nil
	}
	var out []string
	for _, tok := range strings.Split(s, ",") {
		tok = strings.ToUpper(strings.TrimSpace(tok))
		found := false
		for _, known := range audit.Protocols {
			if tok == known {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown protocol %q", tok)
		}
		out = append(out, tok)
	}
	return out, nil
}

func parsePaths(s string) ([]audit.Path, error) {
	if s == "all" {
		return audit.AllPaths, nil
	}
	var out []audit.Path
	for _, tok := range strings.Split(s, ",") {
		p, err := audit.ParsePath(strings.TrimSpace(tok))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
