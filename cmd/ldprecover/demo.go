package main

import (
	"fmt"
	"strings"

	"ldprecover/internal/dataset"
	"ldprecover/internal/experiment"
)

// demoAttacks maps the demo's -attack names onto the harness's attacks.
var demoAttacks = map[string]experiment.AttackKind{
	"manip":   experiment.ManipAttack,
	"mga":     experiment.MGAAttack,
	"aa":      experiment.AAAttack,
	"mga-ipa": experiment.MGAIPAAttack,
}

// runDemo simulates the full pipeline: dataset -> LDP collection ->
// poisoning attack -> LDPRecover / LDPRecover* -> metrics report. It is
// one report-level trial of the experiment harness's scenario.
func runDemo(args []string) error {
	fs := newFlagSet("demo")
	var (
		corpus  = fs.String("corpus", "ipums", "dataset: ipums, fire, or zipf")
		d       = fs.Int("d", 100, "domain size (zipf corpus)")
		n       = fs.Int64("n", 100000, "users (zipf corpus)")
		zs      = fs.Float64("zipf", 1.0, "zipf exponent (zipf corpus)")
		scale   = fs.Float64("scale", 0.1, "dataset scale factor")
		protoN  = fs.String("protocol", "oue", "protocol: grr, oue, olh")
		attackN = fs.String("attack", "mga", "attack: manip, mga, aa, mga-ipa")
		eps     = fs.Float64("epsilon", 0.5, "privacy budget")
		beta    = fs.Float64("beta", 0.05, "fraction of malicious users m/(n+m); 0 runs without an attack")
		eta     = fs.Float64("eta", experiment.DefaultEta, "assumed malicious/genuine ratio")
		r       = fs.Int("r", 10, "number of target items (targeted attacks)")
		seed    = fs.Uint64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		ds  *dataset.Dataset
		err error
	)
	switch *corpus {
	case "ipums":
		ds = dataset.SyntheticIPUMS()
	case "fire":
		ds = dataset.SyntheticFire()
	case "zipf":
		ds, err = dataset.Zipf("zipf", *d, *n, *zs)
	default:
		return fmt.Errorf("unknown corpus %q", *corpus)
	}
	if err != nil {
		return err
	}
	if *scale != 1 {
		if ds, err = ds.Scaled(*scale); err != nil {
			return err
		}
	}
	kind, err := experiment.ParseProtocol(*protoN)
	if err != nil {
		return err
	}
	atk, ok := demoAttacks[strings.ToLower(*attackN)]
	if !ok {
		return fmt.Errorf("unknown attack %q (want manip, mga, aa, mga-ipa)", *attackN)
	}
	// The harness reads a zero ε, η or r as "use the paper default", so
	// the demo refuses them rather than run something it does not print.
	switch {
	case !(*eps > 0):
		return fmt.Errorf("-epsilon %v: the privacy budget must be positive", *eps)
	case !(*eta > 0):
		return fmt.Errorf("-eta %v: the assumed malicious/genuine ratio must be positive", *eta)
	case *r < 1 && (atk == experiment.MGAAttack || atk == experiment.MGAIPAAttack):
		return fmt.Errorf("-r %d: a targeted attack needs at least one target", *r)
	}
	// β = 0 means no malicious users, which the harness calls NoAttack.
	if *beta == 0 {
		atk = experiment.NoAttack
	}

	met, err := experiment.Run(experiment.Scenario{
		Dataset:     ds,
		Protocol:    kind,
		Epsilon:     *eps,
		Attack:      atk,
		Beta:        *beta,
		NumTargets:  *r,
		Eta:         *eta,
		Trials:      1,
		Seed:        *seed,
		ReportLevel: true,
	})
	if err != nil {
		return err
	}

	// Frequency gains (Eq. 37) exist only for targeted attacks; for an
	// untargeted one LDPRecover* runs on the items whose estimates rose
	// most under the attack.
	report := func(label string, mse, fg float64) {
		line := fmt.Sprintf("  %-22s MSE %.3E", label, mse)
		if met.HasFG {
			line += fmt.Sprintf("   FG %+.4f", fg)
		}
		fmt.Println(line)
	}
	fmt.Printf("dataset %s: %d items, %d genuine users, beta=%g\n", ds.Name, ds.Domain(), ds.N(), *beta)
	fmt.Printf("protocol %s (epsilon=%g)  attack %s  eta=%g\n\n", kind, *eps, atk, *eta)
	fmt.Printf("  %-22s MSE %.3E\n", "unpoisoned estimate", met.MSEGenuine)
	report("poisoned (before)", met.MSEBefore, met.FGBefore)
	report("LDPRecover", met.MSEAfter, met.FGAfter)
	if met.HasStar {
		label := "LDPRecover*"
		if !met.HasFG {
			label += " (top-inc)"
		}
		report(label, met.MSEStar, met.FGStar)
	}
	return nil
}
