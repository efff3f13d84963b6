package attack

import (
	"errors"
	"fmt"

	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
	"ldprecover/internal/stats"
)

// IPA is the input poisoning attack of §VII-B: malicious users choose
// their *inputs* adversarially (sampled from InputDist) but then follow
// the LDP perturbation honestly. The perturbation dilutes the attack,
// which is why the paper finds IPA 2–4 orders of magnitude weaker than
// the general poisoning model (Fig. 8).
type IPA struct {
	// InputDist is the distribution malicious inputs are drawn from.
	InputDist []float64
	// label distinguishes named variants in reports (e.g. "MGA-IPA").
	label string
}

func newIPA(inputDist []float64, label string) (*IPA, error) {
	if len(inputDist) == 0 {
		return nil, errors.New("attack: empty IPA input distribution")
	}
	if !stats.AllFinite(inputDist) {
		return nil, errors.New("attack: non-finite IPA input distribution")
	}
	var total float64
	for v, p := range inputDist {
		if p < 0 {
			return nil, fmt.Errorf("attack: negative probability %g at item %d", p, v)
		}
		total += p
	}
	if total <= 0 {
		return nil, errors.New("attack: zero-mass IPA input distribution")
	}
	norm := make([]float64, len(inputDist))
	for v, p := range inputDist {
		norm[v] = p / total
	}
	return &IPA{InputDist: norm, label: label}, nil
}

// NewMGAIPA builds MGA under input poisoning (§VII-B, Fig. 8–9): inputs
// are uniform over the target items, then honestly perturbed.
func NewMGAIPA(targets []int, domain int) (*MGAIPA, error) {
	if len(targets) == 0 {
		return nil, errors.New("attack: MGA-IPA requires targets")
	}
	dist := make([]float64, domain)
	for _, t := range targets {
		if t < 0 || t >= domain {
			return nil, fmt.Errorf("attack: target %d outside domain [0,%d)", t, domain)
		}
		dist[t] = 1
	}
	inner, err := newIPA(dist, "MGA-IPA")
	if err != nil {
		return nil, err
	}
	return &MGAIPA{IPA: inner, targets: append([]int(nil), targets...)}, nil
}

// MGAIPA is IPA with MGA's target-promoting input distribution; it also
// exposes the target set for Detection and LDPRecover*.
type MGAIPA struct {
	*IPA
	targets []int
}

// Targets implements Targeted.
func (a *MGAIPA) Targets() []int { return append([]int(nil), a.targets...) }

// Name implements Attack.
func (a *IPA) Name() string { return a.label }

func (a *IPA) checkDomain(p ldp.Protocol) error {
	if len(a.InputDist) != p.Params().Domain {
		return fmt.Errorf("attack: IPA distribution over %d items, protocol domain %d",
			len(a.InputDist), p.Params().Domain)
	}
	return nil
}

// CraftReports implements Attack: sample inputs, perturb honestly.
func (a *IPA) CraftReports(r *rng.Rand, p ldp.Protocol, m int64) ([]ldp.Report, error) {
	if err := checkArgs(r, p, m); err != nil {
		return nil, err
	}
	if err := a.checkDomain(p); err != nil {
		return nil, err
	}
	itemCounts, err := sampleItemCounts(r, a.InputDist, m)
	if err != nil {
		return nil, err
	}
	return ldp.PerturbAll(p, r, itemCounts)
}

// CraftCounts implements Attack: sample inputs, simulate honest
// aggregation over them.
func (a *IPA) CraftCounts(r *rng.Rand, p ldp.Protocol, m int64) ([]int64, error) {
	if err := checkArgs(r, p, m); err != nil {
		return nil, err
	}
	if err := a.checkDomain(p); err != nil {
		return nil, err
	}
	if m == 0 {
		return make([]int64, p.Params().Domain), nil
	}
	itemCounts, err := sampleItemCounts(r, a.InputDist, m)
	if err != nil {
		return nil, err
	}
	return p.SimulateGenuineCounts(r, itemCounts)
}

var (
	_ Attack   = (*IPA)(nil)
	_ Attack   = (*MGAIPA)(nil)
	_ Targeted = (*MGAIPA)(nil)
)
