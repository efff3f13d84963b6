package experiment

import (
	"fmt"
	"math"

	"ldprecover/internal/attack"
	"ldprecover/internal/core"
	"ldprecover/internal/dataset"
	"ldprecover/internal/detect"
	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
	"ldprecover/internal/stats"
)

// This file implements the ablation studies DESIGN.md §4 calls out beyond
// the paper's own experiments: the refiner choice, simulation fidelity,
// and the detection rule.

// AblationRefiner compares Algorithm 1's iterative KKT refinement against
// the exact sort-based simplex projection inside full recovery runs. The
// two must agree to numerical precision (the CI problem has a unique
// optimum); the table reports recovered MSE under both and the maximum
// absolute per-item deviation observed.
func AblationRefiner(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	ds, err := cfg.ipums()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: refiner choice (AA, IPUMS)",
		Header: []string{"protocol", "mse-kkt", "mse-projection", "max-abs-diff"},
	}
	for _, proto := range AllProtocols {
		p, err := proto.Build(ds.Domain(), DefaultEpsilon)
		if err != nil {
			return nil, err
		}
		pr := p.Params()
		prCore := core.Params{P: pr.P, Q: pr.Q, Domain: pr.Domain}
		var mseKKT, mseProj, maxDiff float64
		for trial := 0; trial < cfg.Trials; trial++ {
			r := rng.New(cfg.Seed + uint64(trial)*7919)
			poisoned, err := poisonedAA(r, ds, p)
			if err != nil {
				return nil, err
			}
			recK, err := core.Recover(poisoned, prCore, core.Options{})
			if err != nil {
				return nil, err
			}
			recP, err := core.Recover(poisoned, prCore, core.Options{Refiner: core.ProjectSimplex})
			if err != nil {
				return nil, err
			}
			trueF := ds.Frequencies()
			mk, err := stats.MSE(recK.Frequencies, trueF)
			if err != nil {
				return nil, err
			}
			mp, err := stats.MSE(recP.Frequencies, trueF)
			if err != nil {
				return nil, err
			}
			mseKKT += mk
			mseProj += mp
			for v := range recK.Frequencies {
				if d := math.Abs(recK.Frequencies[v] - recP.Frequencies[v]); d > maxDiff {
					maxDiff = d
				}
			}
		}
		scale := 1 / float64(cfg.Trials)
		t.AddRow(proto.String(), sci(mseKKT*scale), sci(mseProj*scale), sci(maxDiff))
	}
	return []*Table{t}, nil
}

// AblationSimFidelity compares count-level (fast) and report-level
// (exact) simulation through the full pipeline: poisoned and recovered
// MSE must agree within trial noise.
func AblationSimFidelity(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	ds, err := cfg.ipums()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Ablation: simulation fidelity (MGA, IPUMS)",
		Header: []string{"protocol",
			"before-fast", "before-exact", "rec-fast", "rec-exact"},
	}
	for _, proto := range AllProtocols {
		var vals [4]float64
		for i, reportLevel := range []bool{false, true} {
			m, err := Run(Scenario{
				Dataset:     ds,
				Protocol:    proto,
				Attack:      MGAAttack,
				Trials:      cfg.Trials,
				Seed:        cfg.Seed,
				ReportLevel: reportLevel,
			})
			if err != nil {
				return nil, err
			}
			vals[i] = m.MSEBefore
			vals[i+2] = m.MSEAfter
		}
		t.AddRow(proto.String(), sci(vals[0]), sci(vals[1]), sci(vals[2]), sci(vals[3]))
	}
	return []*Table{t}, nil
}

// AblationDetectionRule compares the paper's any-target Detection rule
// against the strict all-targets rule under MGA.
func AblationDetectionRule(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	ds, err := cfg.ipums()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Ablation: detection rule (MGA, IPUMS)",
		Header: []string{"protocol",
			"mse-any", "mse-all", "removed-any", "removed-all"},
	}
	trueF := ds.Frequencies()
	for _, proto := range AllProtocols {
		p, err := proto.Build(ds.Domain(), DefaultEpsilon)
		if err != nil {
			return nil, err
		}
		var mseAny, mseAll, remAny, remAll float64
		for trial := 0; trial < cfg.Trials; trial++ {
			r := rng.New(cfg.Seed + uint64(trial)*104729)
			reports, targets, err := poisonedMGAReports(r, ds, p)
			if err != nil {
				return nil, err
			}
			for _, rule := range []detect.Rule{detect.AnyTarget, detect.AllTargets} {
				res, err := detect.Detection(reports, targets, p.Params(), rule)
				if err != nil {
					return nil, err
				}
				mse, err := stats.MSE(res.Frequencies, trueF)
				if err != nil {
					return nil, err
				}
				if rule == detect.AnyTarget {
					mseAny += mse
					remAny += float64(res.Removed)
				} else {
					mseAll += mse
					remAll += float64(res.Removed)
				}
			}
		}
		scale := 1 / float64(cfg.Trials)
		t.AddRow(proto.String(),
			sci(mseAny*scale), sci(mseAll*scale),
			fmt.Sprintf("%.0f", remAny*scale), fmt.Sprintf("%.0f", remAll*scale))
	}
	return []*Table{t}, nil
}

// poisonedAA simulates one AA-poisoned estimate at default parameters
// (count level).
func poisonedAA(r *rng.Rand, ds *dataset.Dataset, p ldp.Protocol) ([]float64, error) {
	n := ds.N()
	m := maliciousCount(n, DefaultBeta)
	atk, err := attack.NewRandomAdaptive(r, ds.Domain())
	if err != nil {
		return nil, err
	}
	counts, err := p.SimulateGenuineCounts(r, ds.Counts)
	if err != nil {
		return nil, err
	}
	mal, err := atk.CraftCounts(r, p, m)
	if err != nil {
		return nil, err
	}
	for v := range counts {
		counts[v] += mal[v]
	}
	return ldp.Unbias(counts, n+m, p.Params())
}

// poisonedMGAReports materializes an MGA-poisoned report set at default
// parameters.
func poisonedMGAReports(r *rng.Rand, ds *dataset.Dataset, p ldp.Protocol) ([]ldp.Report, []int, error) {
	targets, err := attack.RandomTargets(r, ds.Domain(), DefaultTargets)
	if err != nil {
		return nil, nil, err
	}
	mga, err := attack.NewMGA(targets)
	if err != nil {
		return nil, nil, err
	}
	genuine, err := ldp.PerturbAll(p, r, ds.Counts)
	if err != nil {
		return nil, nil, err
	}
	m := maliciousCount(ds.N(), DefaultBeta)
	malicious, err := mga.CraftReports(r, p, m)
	if err != nil {
		return nil, nil, err
	}
	return append(genuine, malicious...), targets, nil
}

// AblationRegistry maps ablation ids to generators.
var AblationRegistry = map[string]func(Config) ([]*Table, error){
	"refiner":        AblationRefiner,
	"sim-fidelity":   AblationSimFidelity,
	"detection-rule": AblationDetectionRule,
	"harmony":        ExtensionHarmony,
	"theory":         TheoryValidation,
}

// AblationOrder lists ablation ids in a stable order.
var AblationOrder = []string{"refiner", "sim-fidelity", "detection-rule", "harmony", "theory"}
