// Package experiment wires the substrates together into the paper's
// evaluation (§VI–§VII): scenario configuration, the trial engine, and
// one generator per table and figure. DESIGN.md §4 maps every experiment
// id to its generator; cmd/experiments exposes them on the command line
// and bench_test.go at the module root runs them at benchmark scale.
package experiment

import (
	"fmt"
	"math"
	"strings"

	"ldprecover/internal/attack"
	"ldprecover/internal/dataset"
	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
)

// ProtocolKind selects an LDP protocol.
type ProtocolKind int

// Protocol kinds.
const (
	GRR ProtocolKind = iota
	OUE
	OLH
)

// AllProtocols lists the three evaluated protocols in paper order.
var AllProtocols = []ProtocolKind{GRR, OUE, OLH}

// String returns the protocol name.
func (k ProtocolKind) String() string {
	switch k {
	case GRR:
		return "GRR"
	case OUE:
		return "OUE"
	case OLH:
		return "OLH"
	default:
		return fmt.Sprintf("protocol(%d)", int(k))
	}
}

// ParseProtocol maps a protocol name (grr, oue or olh, in any case)
// onto its kind.
func ParseProtocol(name string) (ProtocolKind, error) {
	for _, k := range AllProtocols {
		if strings.EqualFold(name, k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown protocol %q (want grr, oue, olh)", name)
}

// Build constructs the protocol over domain d with privacy budget eps.
func (k ProtocolKind) Build(d int, eps float64) (ldp.Protocol, error) {
	switch k {
	case GRR:
		return ldp.NewGRR(d, eps)
	case OUE:
		return ldp.NewOUE(d, eps)
	case OLH:
		return ldp.NewOLH(d, eps)
	default:
		return nil, fmt.Errorf("experiment: unknown protocol kind %d", int(k))
	}
}

// AttackKind selects a poisoning attack.
type AttackKind int

// Attack kinds.
const (
	// NoAttack runs the pipeline with zero malicious users (Table I).
	NoAttack AttackKind = iota
	// ManipAttack is the untargeted attack of Cheu et al.
	ManipAttack
	// MGAAttack is the targeted attack of Cao et al.
	MGAAttack
	// AAAttack is the paper's adaptive attack with a random distribution.
	AAAttack
	// MGAIPAAttack is MGA pushed through honest perturbation (§VII-B).
	MGAIPAAttack
	// MultiAAAttack is the five-attacker adaptive attack (§VII-C).
	MultiAAAttack
)

// String returns the attack label used in tables.
func (k AttackKind) String() string {
	switch k {
	case NoAttack:
		return "none"
	case ManipAttack:
		return "Manip"
	case MGAAttack:
		return "MGA"
	case AAAttack:
		return "AA"
	case MGAIPAAttack:
		return "MGA-IPA"
	case MultiAAAttack:
		return "MUL-AA"
	default:
		return fmt.Sprintf("attack(%d)", int(k))
	}
}

// Defaults matching §VI-A. Manip's |H|/d (DefaultManipFraction) and
// MUL-AA's attacker count (DefaultAttackers) are fixed by the paper's
// evaluation, so every scenario uses them.
const (
	DefaultEpsilon       = 0.5
	DefaultBeta          = 0.05
	DefaultEta           = 0.2
	DefaultTargets       = 10
	DefaultTrials        = 10
	DefaultManipFraction = 0.5
	DefaultAttackers     = 5
	DefaultXi            = 0.5
)

// Scenario is one experimental cell: a dataset, a protocol, an attack and
// their parameters, evaluated over Trials independent trials.
type Scenario struct {
	// Dataset is the genuine population.
	Dataset *dataset.Dataset
	// Protocol and Epsilon configure the LDP mechanism.
	Protocol ProtocolKind
	Epsilon  float64
	// Attack and its parameters.
	Attack     AttackKind
	Beta       float64 // fraction of malicious users m/(n+m)
	NumTargets int     // r, for targeted attacks
	// Eta is LDPRecover's assumed malicious/genuine ratio.
	Eta float64
	// Trials and Seed control replication.
	Trials int
	Seed   uint64
	// ReportLevel materializes per-user reports (exact simulation), which
	// the Detection baseline requires. Count-level simulation is used
	// otherwise.
	ReportLevel bool
	// RunDetection includes the Detection baseline. Detection consumes
	// individual reports, so it requires ReportLevel: withDefaults turns
	// it on automatically (the count-level path materializes no reports
	// for Detection to filter), and validate() rejects the raw
	// combination as a backstop should that defaulting ever change.
	RunDetection bool
	// RunKMeans includes the k-means defense and LDPRecover-KM with
	// subset sample rate Xi (count-level).
	RunKMeans bool
	Xi        float64
	// SkipRecovery skips LDPRecover/LDPRecover* (Fig. 8 compares attacks
	// only).
	SkipRecovery bool
}

// withDefaults fills zero fields with the paper's defaults.
func (s Scenario) withDefaults() Scenario {
	if s.Epsilon == 0 {
		s.Epsilon = DefaultEpsilon
	}
	if s.Beta == 0 && s.Attack != NoAttack {
		s.Beta = DefaultBeta
	}
	if s.Eta == 0 {
		s.Eta = DefaultEta
	}
	if s.NumTargets == 0 {
		s.NumTargets = DefaultTargets
	}
	if s.Trials == 0 {
		s.Trials = DefaultTrials
	}
	if s.Xi == 0 {
		s.Xi = DefaultXi
	}
	if s.RunDetection {
		s.ReportLevel = true
	}
	return s
}

// validate rejects malformed scenarios.
func (s Scenario) validate() error {
	if s.Dataset == nil {
		return fmt.Errorf("experiment: scenario has no dataset")
	}
	if s.Beta < 0 || s.Beta >= 1 || math.IsNaN(s.Beta) {
		return fmt.Errorf("experiment: beta %v outside [0,1)", s.Beta)
	}
	if s.Attack == NoAttack && s.Beta != 0 {
		return fmt.Errorf("experiment: NoAttack requires beta=0, got %v", s.Beta)
	}
	if s.Eta < 0 {
		return fmt.Errorf("experiment: negative eta %v", s.Eta)
	}
	if s.Trials < 1 {
		return fmt.Errorf("experiment: trials %d < 1", s.Trials)
	}
	// Unreachable through Run (withDefaults force-enables ReportLevel
	// first): a backstop pinning the invariant that Detection never
	// silently runs over the report-free count-level path.
	if s.RunDetection && !s.ReportLevel {
		return fmt.Errorf("experiment: RunDetection requires ReportLevel " +
			"(the count-level fast path materializes no reports for Detection to filter)")
	}
	return nil
}

// maliciousCount converts beta into m given n genuine users:
// beta = m/(n+m) => m = n*beta/(1-beta).
func maliciousCount(n int64, beta float64) int64 {
	if beta <= 0 {
		return 0
	}
	return int64(math.Round(float64(n) * beta / (1 - beta)))
}

// buildAttack constructs the scenario's attack and returns it with the
// attacker's true target set (nil for untargeted attacks).
func (s Scenario) buildAttack(r *rng.Rand, d int) (attack.Attack, []int, error) {
	switch s.Attack {
	case NoAttack:
		return nil, nil, nil
	case ManipAttack:
		a, err := attack.NewManip(DefaultManipFraction, r.Uint64())
		return a, nil, err
	case MGAAttack:
		targets, err := attack.RandomTargets(r, d, s.NumTargets)
		if err != nil {
			return nil, nil, err
		}
		a, err := attack.NewMGA(targets)
		return a, targets, err
	case AAAttack:
		a, err := attack.NewRandomAdaptive(r, d)
		return a, nil, err
	case MGAIPAAttack:
		targets, err := attack.RandomTargets(r, d, s.NumTargets)
		if err != nil {
			return nil, nil, err
		}
		a, err := attack.NewMGAIPA(targets, d)
		return a, targets, err
	case MultiAAAttack:
		a, err := attack.NewMultiAdaptive(r, DefaultAttackers, d)
		return a, nil, err
	default:
		return nil, nil, fmt.Errorf("experiment: unknown attack kind %d", int(s.Attack))
	}
}
