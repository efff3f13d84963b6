package experiment

import (
	"fmt"
	"math"

	"ldprecover/internal/attack"
	"ldprecover/internal/dataset"
	"ldprecover/internal/rng"
	"ldprecover/internal/stats"
	"ldprecover/internal/stream"
)

// StreamScenario drives the epoch-streamed pipeline under a mid-stream
// attack: the collector runs clean for AttackStart epochs, then an
// attacker ramps its malicious population linearly to Beta over
// RampEpochs and holds it. Each epoch the whole dataset population
// reports once (count-level simulation — periodic collection, the
// setting the paper's historical target identification assumes), the
// epoch seals, and per-epoch window metrics record how recovery tracks
// the attack — including the epoch at which cross-epoch outlier
// detection stabilizes and LDPRecover* engages on its own.
type StreamScenario struct {
	// Dataset is the genuine population reporting each epoch.
	Dataset *dataset.Dataset
	// Protocol and Epsilon configure the LDP mechanism.
	Protocol ProtocolKind
	Epsilon  float64
	// NumTargets is r for the MGA attacker (the streaming scenario is
	// about targeted attacks; untargeted ramps have no target set to
	// identify).
	NumTargets int
	// Beta is the steady-state malicious fraction m/(n+m).
	Beta float64
	// Epochs is the stream length; AttackStart the first attacked epoch
	// (zero defaults to Epochs/2 — the scenario is about a mid-stream
	// ramp, and an attack in epoch 0 would leave detection no clean
	// baseline; AttackStart >= Epochs runs the whole stream clean);
	// RampEpochs how many epochs the ramp to full Beta takes.
	Epochs      int
	AttackStart int
	RampEpochs  int
	// StableAfter tunes target stabilization (stream.Config semantics).
	// The epoch manager estimates over a one-epoch window, keeps the
	// whole stream as history, takes the stream package's default
	// minimum history and recovers at η = DefaultEta.
	StableAfter int
	// Seed drives the whole stream deterministically.
	Seed uint64
}

// withDefaults fills zero fields with the paper's defaults and a
// 20-epoch stream attacked from the middle.
func (s StreamScenario) withDefaults() StreamScenario {
	if s.Epsilon == 0 {
		s.Epsilon = DefaultEpsilon
	}
	if s.Beta == 0 {
		s.Beta = DefaultBeta
	}
	if s.NumTargets == 0 {
		s.NumTargets = DefaultTargets
	}
	if s.Epochs == 0 {
		s.Epochs = 20
	}
	if s.AttackStart == 0 {
		s.AttackStart = s.Epochs / 2
	}
	if s.RampEpochs == 0 {
		s.RampEpochs = 3
	}
	return s
}

// validate rejects malformed scenarios.
func (s StreamScenario) validate() error {
	if s.Dataset == nil {
		return fmt.Errorf("experiment: stream scenario has no dataset")
	}
	if s.Beta < 0 || s.Beta >= 1 || math.IsNaN(s.Beta) {
		return fmt.Errorf("experiment: beta %v outside [0,1)", s.Beta)
	}
	if s.Epochs < 1 {
		return fmt.Errorf("experiment: %d epochs", s.Epochs)
	}
	if s.AttackStart < 0 || s.AttackStart > s.Epochs {
		return fmt.Errorf("experiment: attack start %d outside the %d-epoch stream",
			s.AttackStart, s.Epochs)
	}
	if s.RampEpochs < 1 {
		return fmt.Errorf("experiment: ramp of %d epochs", s.RampEpochs)
	}
	return nil
}

// StreamPoint is one epoch's metrics: window estimates against the true
// frequencies, and the frequency gain the attacker retains on its
// targets before and after recovery.
type StreamPoint struct {
	// Epoch is the sealed epoch's sequence number.
	Epoch int
	// Beta is the realized malicious fraction ingested this epoch.
	Beta float64
	// MSEBefore/MSEAfter compare the window's poisoned and recovered
	// estimates against the dataset's true frequencies (Eq. 36).
	MSEBefore, MSEAfter float64
	// FGBefore/FGAfter are the attacker's frequency gains on the true
	// target set (Eq. 37) against the clean window estimate of epoch 0.
	FGBefore, FGAfter float64
	// PartialKnowledge records whether LDPRecover* ran this epoch.
	PartialKnowledge bool
	// Targets is the stable target set recovery used (nil before the
	// upgrade).
	Targets []int
}

// StreamMetrics is the streaming scenario's output time series.
type StreamMetrics struct {
	// Points has one entry per epoch, in seal order.
	Points []StreamPoint
	// TrueTargets is the attacker's actual target set.
	TrueTargets []int
	// StarEngagedAt is the first epoch LDPRecover* ran (-1: never).
	StarEngagedAt int
	// TargetsExact records whether the stable target set equalled the
	// attacker's true targets at the engagement epoch.
	TargetsExact bool
}

// RunStream executes the scenario and returns the per-epoch series.
func RunStream(s StreamScenario) (*StreamMetrics, error) {
	s = s.withDefaults()
	if err := s.validate(); err != nil {
		return nil, err
	}
	d := s.Dataset.Domain()
	n := s.Dataset.N()
	trueF := s.Dataset.Frequencies()

	proto, err := s.Protocol.Build(d, s.Epsilon)
	if err != nil {
		return nil, err
	}
	r := rng.New(s.Seed + 0x51ab)
	targets, err := attack.RandomTargets(r, d, s.NumTargets)
	if err != nil {
		return nil, err
	}
	mga, err := attack.NewMGA(targets)
	if err != nil {
		return nil, err
	}
	mgr, err := stream.NewEpochManager(stream.Config{
		Params:      proto.Params(),
		Window:      1,
		History:     s.Epochs,
		Eta:         DefaultEta,
		TargetK:     s.NumTargets,
		StableAfter: s.StableAfter,
	})
	if err != nil {
		return nil, err
	}

	out := &StreamMetrics{TrueTargets: targets, StarEngagedAt: -1}
	var cleanEst []float64
	for e := 0; e < s.Epochs; e++ {
		union, err := proto.SimulateGenuineCounts(r, s.Dataset.Counts)
		if err != nil {
			return nil, err
		}
		total := n
		m := maliciousCount(n, s.rampBeta(e))
		if m > 0 {
			mal, err := mga.CraftCounts(r, proto, m)
			if err != nil {
				return nil, err
			}
			for v, c := range mal {
				union[v] += c
			}
			total += m
		}
		if err := mgr.AddCounts(union, total); err != nil {
			return nil, err
		}
		est, err := mgr.Seal()
		if err != nil {
			return nil, err
		}
		pt := StreamPoint{
			Epoch:            est.Seq,
			Beta:             float64(m) / float64(n+m),
			PartialKnowledge: est.PartialKnowledge,
			Targets:          est.Targets,
		}
		if pt.MSEBefore, err = stats.MSE(est.Poisoned, trueF); err != nil {
			return nil, err
		}
		if pt.MSEAfter, err = stats.MSE(est.Recovered, trueF); err != nil {
			return nil, err
		}
		// Frequency gain needs a genuine reference estimate; the first
		// epoch is clean by construction (AttackStart >= 1 whenever gain
		// matters) and serves as the stream's baseline.
		if cleanEst == nil {
			cleanEst = est.Poisoned
		}
		if pt.FGBefore, err = stats.FrequencyGain(est.Poisoned, cleanEst, targets); err != nil {
			return nil, err
		}
		if pt.FGAfter, err = stats.FrequencyGain(est.Recovered, cleanEst, targets); err != nil {
			return nil, err
		}
		if est.PartialKnowledge && out.StarEngagedAt < 0 {
			out.StarEngagedAt = e
			out.TargetsExact = equalTargetSets(est.Targets, targets)
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// rampBeta is the malicious fraction scheduled for epoch e: zero before
// AttackStart, a linear ramp over RampEpochs, then the full Beta.
func (s StreamScenario) rampBeta(e int) float64 {
	if e < s.AttackStart {
		return 0
	}
	step := e - s.AttackStart + 1
	if step >= s.RampEpochs {
		return s.Beta
	}
	return s.Beta * float64(step) / float64(s.RampEpochs)
}

// equalTargetSets compares two target sets as sets.
func equalTargetSets(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[int]bool, len(a))
	for _, v := range a {
		seen[v] = true
	}
	for _, v := range b {
		if !seen[v] {
			return false
		}
	}
	return true
}
