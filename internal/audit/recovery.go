package audit

import (
	"fmt"

	"ldprecover/internal/dataset"
	"ldprecover/internal/experiment"
	"ldprecover/internal/stats"
)

// The recovery audit's population skew and guarantees. Each is a named
// constant so that changing a gate shows in review; the floats are
// untyped float constants because the violation messages print them
// with %g.
const (
	// zipfS is the skew of the synthetic Zipf population.
	zipfS = 1.1
	// mseFactor is the error guarantee: the steady-state recovered MSE
	// must stay below mseFactor times the protocol's theoretical
	// no-attack MSE floor.
	mseFactor = 30.0
	// fgHalving requires the steady-state recovered frequency gain to be
	// below fgHalving times the poisoned gain (recovery must claw back
	// at least half of what the attacker gained).
	fgHalving = 0.5
	// numTargets is the MGA target-set size.
	numTargets = 5
	// engageLag bounds when cross-epoch detection must engage
	// LDPRecover*: no later than engageLag epochs after the ramp
	// completes, and never before the attack starts.
	engageLag = 3
	// maxViolationRate is the gate: the audit passes iff the certified
	// upper bound on the per-run violation rate stays below it (with a
	// short grid the exact bound is necessarily loose; more seeds
	// tighten it).
	maxViolationRate = 0.4
)

// RecoveryConfig parameterizes a recovery-robustness audit: the streamed
// MGA scenario is replayed across a grid of attacker strengths and
// seeds, and each run is checked against the recovery pipeline's error
// guarantees.
type RecoveryConfig struct {
	// Protocol names the mechanism (GRR, OUE, or OLH — the streamed
	// scenario follows the paper's evaluated set).
	Protocol string
	// Epsilon is the privacy budget (default 1).
	Epsilon float64
	// Domain and N describe the synthetic Zipf(zipfS) population
	// (defaults 64 and 60000).
	Domain int
	N      int64
	// Betas is the attacker-strength grid (default {0.05, 0.1, 0.15}).
	Betas []float64
	// Seeds replays each beta under these stream seeds (default {1,2,3}).
	Seeds []uint64
	// Epochs is the stream length (default 16, attacked from the middle
	// with a 3-epoch ramp, matching the stream acceptance test).
	Epochs int
	// Confidence is the level of the one-sided Clopper-Pearson upper
	// bound on the violation rate (default 0.95).
	Confidence float64
}

func (c RecoveryConfig) withDefaults() RecoveryConfig {
	if c.Protocol == "" {
		c.Protocol = "OUE"
	}
	if c.Epsilon == 0 {
		c.Epsilon = 1
	}
	if c.Domain == 0 {
		c.Domain = 64
	}
	if c.N == 0 {
		c.N = 60000
	}
	if len(c.Betas) == 0 {
		c.Betas = []float64{0.05, 0.1, 0.15}
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []uint64{1, 2, 3}
	}
	if c.Epochs == 0 {
		c.Epochs = 16
	}
	if c.Confidence == 0 {
		c.Confidence = 0.95
	}
	return c
}

// RecoveryRun is one grid cell's outcome.
type RecoveryRun struct {
	Beta      float64 `json:"beta"`
	Seed      uint64  `json:"seed"`
	MSEBefore float64 `json:"mse_before"`
	MSEAfter  float64 `json:"mse_after"`
	// MSEFloor is the protocol's theoretical no-attack frequency MSE.
	MSEFloor  float64 `json:"mse_floor"`
	FGBefore  float64 `json:"fg_before"`
	FGAfter   float64 `json:"fg_after"`
	EngagedAt int     `json:"engaged_at"`
	// Violations lists the guarantees this run broke (empty: clean).
	Violations []string `json:"violations,omitempty"`
}

// RecoveryResult aggregates the grid and certifies the violation rate.
type RecoveryResult struct {
	Protocol string        `json:"protocol"`
	Epsilon  float64       `json:"epsilon"`
	Runs     []RecoveryRun `json:"runs"`
	// Violated counts runs breaking at least one guarantee.
	Violated int `json:"violated"`
	// Rate is the observed violation rate; RateHi its one-sided
	// Clopper-Pearson upper confidence bound.
	Rate   float64 `json:"rate"`
	RateHi float64 `json:"rate_hi"`
	// Pass is the gate verdict: RateHi <= maxViolationRate.
	Pass bool `json:"pass"`
}

// Verdict renders the gate outcome for logs.
func (r RecoveryResult) Verdict() string {
	if r.Pass {
		return "PASS"
	}
	return fmt.Sprintf("VIOLATION (%d/%d runs, rate bound %.3f)", r.Violated, len(r.Runs), r.RateHi)
}

// RunRecovery replays the streamed MGA scenario over the configured
// grid and bounds the violation rate of the recovery guarantees.
func RunRecovery(cfg RecoveryConfig) (*RecoveryResult, error) {
	cfg = cfg.withDefaults()
	// SUE is itemwise-auditable but has no streamed scenario.
	kind, err := experiment.ParseProtocol(cfg.Protocol)
	if err != nil {
		return nil, fmt.Errorf("audit: no streamed scenario for protocol %q", cfg.Protocol)
	}
	ds, err := dataset.Zipf("audit-recovery", cfg.Domain, cfg.N, zipfS)
	if err != nil {
		return nil, err
	}
	proto, err := kind.Build(cfg.Domain, cfg.Epsilon)
	if err != nil {
		return nil, err
	}
	// Theoretical no-attack frequency MSE floor: the mean over the
	// domain of each item's estimator variance at its true frequency,
	// scaled from counts to frequencies.
	trueF := ds.Frequencies()
	n := ds.N()
	var floor float64
	for _, f := range trueF {
		floor += proto.Variance(f, n)
	}
	floor /= float64(cfg.Domain) * float64(n) * float64(n)

	res := &RecoveryResult{Protocol: cfg.Protocol, Epsilon: cfg.Epsilon}
	attackStart := cfg.Epochs / 2
	const rampEpochs = 3
	for _, beta := range cfg.Betas {
		for _, seed := range cfg.Seeds {
			sm, err := experiment.RunStream(experiment.StreamScenario{
				Dataset:     ds,
				Protocol:    kind,
				Epsilon:     cfg.Epsilon,
				Beta:        beta,
				NumTargets:  numTargets,
				Epochs:      cfg.Epochs,
				AttackStart: attackStart,
				RampEpochs:  rampEpochs,
				StableAfter: 2,
				Seed:        seed,
			})
			if err != nil {
				return nil, err
			}
			steady := sm.Points[cfg.Epochs-1]
			run := RecoveryRun{
				Beta:      beta,
				Seed:      seed,
				MSEBefore: steady.MSEBefore,
				MSEAfter:  steady.MSEAfter,
				MSEFloor:  floor,
				FGBefore:  steady.FGBefore,
				FGAfter:   steady.FGAfter,
				EngagedAt: sm.StarEngagedAt,
			}
			if !(steady.MSEAfter <= mseFactor*floor) {
				run.Violations = append(run.Violations, fmt.Sprintf(
					"recovered MSE %.3g above %gx theoretical floor %.3g",
					steady.MSEAfter, mseFactor, floor))
			}
			if steady.FGBefore > 0 && !(steady.FGAfter <= fgHalving*steady.FGBefore) {
				run.Violations = append(run.Violations, fmt.Sprintf(
					"recovered FG %.3g above %g of poisoned FG %.3g",
					steady.FGAfter, fgHalving, steady.FGBefore))
			}
			deadline := attackStart + rampEpochs + engageLag
			if sm.StarEngagedAt < 0 || sm.StarEngagedAt > deadline {
				run.Violations = append(run.Violations, fmt.Sprintf(
					"LDPRecover* engaged at epoch %d, deadline %d", sm.StarEngagedAt, deadline))
			} else if sm.StarEngagedAt < attackStart {
				run.Violations = append(run.Violations, fmt.Sprintf(
					"LDPRecover* engaged at epoch %d before the attack at %d",
					sm.StarEngagedAt, attackStart))
			}
			if len(run.Violations) > 0 {
				res.Violated++
			}
			res.Runs = append(res.Runs, run)
		}
	}
	total := int64(len(res.Runs))
	res.Rate = float64(res.Violated) / float64(total)
	// One-sided upper bound at cfg.Confidence: the two-sided interval at
	// 2c-1 puts exactly 1-c of mass above its upper end.
	_, hi, err := stats.ClopperPearson(int64(res.Violated), total, 2*cfg.Confidence-1)
	if err != nil {
		return nil, err
	}
	res.RateHi = hi
	res.Pass = res.RateHi <= maxViolationRate
	return res, nil
}
