package experiment

import (
	"ldprecover/internal/core"
	"ldprecover/internal/detect"
	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
	"ldprecover/internal/stats"
)

// Metrics aggregates one scenario's evaluation outputs (trial means).
// MSE values compare against the dataset's true frequencies (Eq. 36);
// FG values compare target frequencies against the genuine LDP estimate
// (Eq. 37). Fields are only meaningful when their Has* flag is set.
type Metrics struct {
	// MSEBefore is the poisoned estimate's error ("Before recovery").
	MSEBefore float64
	// MSEAfter is LDPRecover's error.
	MSEAfter float64
	// MSEStar is LDPRecover*'s error (partial knowledge).
	MSEStar float64
	// MSEDetect is the Detection baseline's error.
	MSEDetect float64
	// MSEGenuine is the unpoisoned estimate's error (Table I "Before-Rec"
	// at beta=0; diagnostic otherwise).
	MSEGenuine float64

	// FGBefore/FGAfter/FGStar/FGDetect are frequency gains on the true
	// target set (targeted attacks only).
	FGBefore, FGAfter, FGStar, FGDetect float64

	// MSEMalNK and MSEMalPK compare the malicious frequencies estimated
	// by LDPRecover (non-knowledge) and LDPRecover* (partial knowledge)
	// against the true malicious frequencies (Fig. 7).
	MSEMalNK, MSEMalPK float64

	// MSEKMeans and MSEKM are the k-means defense's and LDPRecover-KM's
	// errors (Fig. 9).
	MSEKMeans, MSEKM float64

	HasRecovery, HasStar, HasFG, HasDetect, HasKM, HasMal bool
}

// Run evaluates the scenario and returns trial-mean metrics: a one-cell
// runGrid. Trials are independent (each derives its own generator from
// Seed and the trial index) and run in parallel; results accumulate in
// trial order, so the output is bit-identical to a sequential run.
func Run(s Scenario) (*Metrics, error) {
	c := &gridCell{scn: s}
	if err := runGrid([]*gridCell{c}); err != nil {
		return nil, err
	}
	return c.m, nil
}

func accumulate(acc *Metrics, m *Metrics, first bool) {
	acc.MSEBefore += m.MSEBefore
	acc.MSEAfter += m.MSEAfter
	acc.MSEStar += m.MSEStar
	acc.MSEDetect += m.MSEDetect
	acc.MSEGenuine += m.MSEGenuine
	acc.FGBefore += m.FGBefore
	acc.FGAfter += m.FGAfter
	acc.FGStar += m.FGStar
	acc.FGDetect += m.FGDetect
	acc.MSEMalNK += m.MSEMalNK
	acc.MSEMalPK += m.MSEMalPK
	acc.MSEKMeans += m.MSEKMeans
	acc.MSEKM += m.MSEKM
	if first {
		acc.HasRecovery = m.HasRecovery
		acc.HasStar = m.HasStar
		acc.HasFG = m.HasFG
		acc.HasDetect = m.HasDetect
		acc.HasKM = m.HasKM
		acc.HasMal = m.HasMal
	}
}

// runTrial executes one independent trial.
func (s Scenario) runTrial(trial int) (*Metrics, error) {
	r := rng.New(s.Seed + uint64(trial)*0x9e3779b97f4a7c15)
	d := s.Dataset.Domain()
	n := s.Dataset.N()
	trueF := s.Dataset.Frequencies()
	m := maliciousCount(n, s.Beta)

	proto, err := s.Protocol.Build(d, s.Epsilon)
	if err != nil {
		return nil, err
	}
	pr := proto.Params()
	prCore := core.Params{P: pr.P, Q: pr.Q, Domain: d}

	atk, trueTargets, err := s.buildAttack(r, d)
	if err != nil {
		return nil, err
	}

	// --- Simulate genuine and malicious data. ---
	var genCounts, malCounts []int64
	var allReports []ldp.Report
	if s.ReportLevel {
		// PerturbAll rides the arena-backed bulk path and CountSupports
		// the type-specialized batch aggregation, so the exact
		// report-level trial stays within a small constant of the
		// count-level fast path.
		genReports, err := ldp.PerturbAll(proto, r, s.Dataset.Counts)
		if err != nil {
			return nil, err
		}
		genCounts, err = ldp.CountSupports(genReports, d)
		if err != nil {
			return nil, err
		}
		allReports = genReports
		if m > 0 {
			malReports, err := atk.CraftReports(r, proto, m)
			if err != nil {
				return nil, err
			}
			malCounts, err = ldp.CountSupports(malReports, d)
			if err != nil {
				return nil, err
			}
			allReports = append(allReports, malReports...)
		}
	} else {
		genCounts, err = proto.SimulateGenuineCounts(r, s.Dataset.Counts)
		if err != nil {
			return nil, err
		}
		if m > 0 {
			malCounts, err = atk.CraftCounts(r, proto, m)
			if err != nil {
				return nil, err
			}
		}
	}

	genuineEst, err := ldp.Unbias(genCounts, n, pr)
	if err != nil {
		return nil, err
	}
	poisoned := genuineEst
	var trueMalicious []float64
	if m > 0 {
		combined := make([]int64, d)
		for v := range combined {
			combined[v] = genCounts[v] + malCounts[v]
		}
		poisoned, err = ldp.Unbias(combined, n+m, pr)
		if err != nil {
			return nil, err
		}
		trueMalicious, err = ldp.Unbias(malCounts, m, pr)
		if err != nil {
			return nil, err
		}
	}

	out := &Metrics{}
	out.MSEBefore, err = stats.MSE(poisoned, trueF)
	if err != nil {
		return nil, err
	}
	out.MSEGenuine, err = stats.MSE(genuineEst, trueF)
	if err != nil {
		return nil, err
	}

	// --- Resolve the partial-knowledge target set. ---
	starTargets := trueTargets
	if starTargets == nil && m > 0 {
		k := s.NumTargets / 2
		if k < 1 {
			k = 1
		}
		starTargets, err = detect.TopIncrease(genuineEst, poisoned, k)
		if err != nil {
			return nil, err
		}
	}

	// --- LDPRecover / LDPRecover*. ---
	if !s.SkipRecovery {
		rec, err := core.Recover(poisoned, prCore, core.Options{Eta: s.Eta})
		if err != nil {
			return nil, err
		}
		out.HasRecovery = true
		out.MSEAfter, err = stats.MSE(rec.Frequencies, trueF)
		if err != nil {
			return nil, err
		}
		if starTargets != nil {
			recStar, err := core.Recover(poisoned, prCore, core.Options{Eta: s.Eta, Targets: starTargets})
			if err != nil {
				return nil, err
			}
			out.HasStar = true
			out.MSEStar, err = stats.MSE(recStar.Frequencies, trueF)
			if err != nil {
				return nil, err
			}
			if trueMalicious != nil {
				out.HasMal = true
				out.MSEMalNK, err = stats.MSE(rec.Malicious, trueMalicious)
				if err != nil {
					return nil, err
				}
				out.MSEMalPK, err = stats.MSE(recStar.Malicious, trueMalicious)
				if err != nil {
					return nil, err
				}
			}
			if trueTargets != nil {
				out.HasFG = true
				if out.FGBefore, err = stats.FrequencyGain(poisoned, genuineEst, trueTargets); err != nil {
					return nil, err
				}
				if out.FGAfter, err = stats.FrequencyGain(rec.Frequencies, genuineEst, trueTargets); err != nil {
					return nil, err
				}
				if out.FGStar, err = stats.FrequencyGain(recStar.Frequencies, genuineEst, trueTargets); err != nil {
					return nil, err
				}
			}
		}
	}

	// --- Detection baseline. ---
	// allReports is always populated here: RunDetection forces
	// ReportLevel in withDefaults, and validate() backstops the raw
	// combination.
	if s.RunDetection && starTargets != nil {
		det, err := detect.Detection(allReports, starTargets, pr, detect.AnyTarget)
		if err != nil {
			return nil, err
		}
		out.HasDetect = true
		out.MSEDetect, err = stats.MSE(det.Frequencies, trueF)
		if err != nil {
			return nil, err
		}
		if trueTargets != nil {
			if out.FGDetect, err = stats.FrequencyGain(det.Frequencies, genuineEst, trueTargets); err != nil {
				return nil, err
			}
		}
	}

	// --- k-means defense and LDPRecover-KM. ---
	if s.RunKMeans && m > 0 {
		combined := make([]int64, d)
		for v := range combined {
			combined[v] = genCounts[v] + malCounts[v]
		}
		kd, err := detect.NewKMeansDefense(s.Xi)
		if err != nil {
			return nil, err
		}
		km, err := kd.RunCounts(r, combined, n+m, pr)
		if err != nil {
			return nil, err
		}
		out.HasKM = true
		out.MSEKMeans, err = stats.MSE(km.Genuine, trueF)
		if err != nil {
			return nil, err
		}
		recKM, err := detect.RecoverKM(poisoned, km, prCore, s.Eta)
		if err != nil {
			return nil, err
		}
		out.MSEKM, err = stats.MSE(recKM.Frequencies, trueF)
		if err != nil {
			return nil, err
		}
	}

	return out, nil
}
