package detect

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"ldprecover/internal/stats"
)

// zBlock is how many items one pass over the history rows carries; the
// block's running sums live on the stack.
const zBlock = 256

// ZScoreOutliers identifies likely attack targets by statistical anomaly
// against historical frequency series (§V-D's outlier-detection oracle):
// for each item it computes the z-score of the current frequency against
// the item's own history and returns up to k items whose score exceeds
// minZ, ordered by decreasing score. The history is periods × items.
func ZScoreOutliers(history [][]float64, current []float64, k int, minZ float64) ([]int, error) {
	return ZScoreOutliersMinSD(history, current, k, minZ, 0)
}

// ZScoreOutliersMinSD is ZScoreOutliers with a deviation floor: each
// item's historical standard deviation is taken as at least minSD before
// scoring. Callers who know the estimator's theoretical noise (e.g. the
// LDP aggregation variance of Eq. 4/7 at the current report count) pass
// it here so items whose history happens to be degenerate — a tail item
// the simplex refinement clips to zero every period has sample deviation
// zero — cannot turn ordinary estimation noise into an astronomical
// score and crowd the genuinely attacked items out of the top k.
func ZScoreOutliersMinSD(history [][]float64, current []float64, k int, minZ, minSD float64) ([]int, error) {
	if len(history) < 2 {
		return nil, errors.New("detect: need at least 2 history periods")
	}
	d := len(current)
	if d == 0 {
		return nil, errors.New("detect: empty current frequencies")
	}
	for t, fs := range history {
		if len(fs) != d {
			return nil, fmt.Errorf("detect: history period %d has %d items, want %d", t, len(fs), d)
		}
	}
	if k < 1 {
		return nil, fmt.Errorf("detect: invalid outlier count %d", k)
	}
	if minZ < 0 || math.IsNaN(minZ) {
		return nil, fmt.Errorf("detect: invalid z threshold %v", minZ)
	}
	if minSD < 0 || math.IsNaN(minSD) || math.IsInf(minSD, 0) {
		return nil, fmt.Errorf("detect: invalid deviation floor %v", minSD)
	}

	type scored struct {
		item int
		z    float64
	}
	var out []scored
	// Only an item whose deviation from its mean could reach minZ at
	// the floor is scored. The floor bounds every item's standard
	// deviation from below (sd >= minSD), correctly rounded division is
	// monotone, so fl(dev/sd) <= fl(dev/minSD) for dev >= 0, and a
	// negative dev scores below a positive minZ: an item with
	// fl(dev/minSD) < minZ can never be flagged. The pruning is off when
	// minZ is 0 (a tiny negative dev can underflow to z = -0, which is
	// >= 0) or when there is no floor to bound sd by.
	prune := minZ > 0 && minSD > 0
	n := float64(len(history))
	var series []float64
	// The compensated sums of a block of items run side by side, one
	// history row at a time, so each mean is stats.Mean of the item's
	// series bit for bit without gathering the series.
	var sums, comps [zBlock]float64
	for lo := 0; lo < d; lo += zBlock {
		hi := min(lo+zBlock, d)
		sum, comp := sums[:hi-lo], comps[:hi-lo]
		clear(sum)
		clear(comp)
		for _, row := range history {
			row = row[lo:hi]
			for j, x := range row {
				sum[j], comp[j] = stats.SumStep(sum[j], comp[j], x)
			}
		}
		for j := range sum {
			v := lo + j
			dev := current[v] - (sum[j]+comp[j])/n
			if prune && !(dev/minSD >= minZ) {
				continue
			}
			if series == nil {
				series = make([]float64, len(history))
			}
			for t := range history {
				series[t] = history[t][v]
			}
			sd := math.Sqrt(stats.SampleVariance(series))
			if sd < minSD {
				sd = minSD
			}
			if sd == 0 {
				// A perfectly flat history cannot absorb any deviation; any
				// change is infinitely anomalous. Use a tiny floor instead to
				// keep scores finite and comparable.
				sd = 1e-12
			}
			z := dev / sd
			if z >= minZ {
				out = append(out, scored{v, z})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].z != out[b].z {
			return out[a].z > out[b].z
		}
		return out[a].item < out[b].item
	})
	if len(out) > k {
		out = out[:k]
	}
	items := make([]int, len(out))
	for i, s := range out {
		items[i] = s.item
	}
	return items, nil
}

// TopIncrease returns the k items with the largest frequency increase
// from before to after — the paper's target-identification rule for the
// adaptive attack ("items that exhibit the top-r/2 frequency increase
// following the attack", §VI-A.4).
func TopIncrease(before, after []float64, k int) ([]int, error) {
	if len(before) != len(after) {
		return nil, fmt.Errorf("detect: before length %d, after length %d", len(before), len(after))
	}
	if len(before) == 0 {
		return nil, errors.New("detect: empty frequency vectors")
	}
	if k < 1 || k > len(before) {
		return nil, fmt.Errorf("detect: invalid top count %d", k)
	}
	idx := make([]int, len(before))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		da := after[idx[a]] - before[idx[a]]
		db := after[idx[b]] - before[idx[b]]
		if da != db {
			return da > db
		}
		return idx[a] < idx[b]
	})
	return idx[:k], nil
}
