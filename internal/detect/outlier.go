package detect

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"ldprecover/internal/stats"
)

// fixedScale is the fixed-point scale of the History's running sums:
// an item's in-range history values x contribute floor(x·2^40) each.
const fixedScale = 0x1p40

// screenShrink shrinks the sums' mean bound to cover the rounding of
// the compensated mean and of the bound's own float arithmetic (see
// outliers). Each of those is a few units of 2^-53, far below 2^-40.
const screenShrink = 1 - 0x1p-40

// maxScreenRows caps the history length the screen runs on: below it a
// sum of floor(x·2^40) terms fits an int64 and the compensated sum's
// error term quadratic in the length stays far below 2^-40.
const maxScreenRows = 1 << 22

// History is a rolling window of per-period frequency vectors, oldest
// first, that keeps for each item a running fixed-point sum over the
// retained periods — Σ floor(x·2^40) over the item's values in [0, 1] —
// and a count of its values outside [0, 1] (NaN included). The sums let
// the z-score scan prove most items unflaggable without reading their
// series. Push updates them in O(d) per appended and evicted row.
type History struct {
	keep int
	rows [][]float64
	sums []int64 // per item: Σ floor(x·2^40) over in-range x
	odd  []int32 // per item: values outside [0, 1] or NaN
}

// NewHistory returns an empty history of d-item periods that retains
// the newest keep periods.
func NewHistory(d, keep int) (*History, error) {
	if d < 1 {
		return nil, fmt.Errorf("detect: history domain %d < 1", d)
	}
	if keep < 1 {
		return nil, fmt.Errorf("detect: history retention %d < 1", keep)
	}
	return &History{keep: keep, sums: make([]int64, d), odd: make([]int32, d)}, nil
}

// newHistoryOf wraps rows (not copied) with their running sums, built
// once by exact integer adds.
func newHistoryOf(rows [][]float64, d int) *History {
	h := &History{keep: len(rows), rows: rows, sums: make([]int64, d), odd: make([]int32, d)}
	for _, row := range rows {
		h.fold(row, 1)
	}
	return h
}

// Push appends row as the newest period and evicts the oldest period
// beyond the retention, updating the running sums for both. The history
// keeps row and never modifies it; neither may the caller. Push panics
// if row's length is not the history's domain.
func (h *History) Push(row []float64) {
	if len(row) != len(h.sums) {
		panic(fmt.Sprintf("detect: pushing a %d-item period onto a %d-item history", len(row), len(h.sums)))
	}
	h.rows = append(h.rows, row)
	h.fold(row, 1)
	if len(h.rows) > h.keep {
		h.fold(h.rows[0], -1)
		h.rows = slices.Delete(h.rows, 0, 1)
	}
}

// fold adds (sign 1) or removes (sign -1) row's contribution to the
// running sums. Integer adds are exact and removal undoes addition, so
// the sums always equal a rebuild from the retained rows.
func (h *History) fold(row []float64, sign int64) {
	sums, odd := h.sums[:len(row)], h.odd[:len(row)]
	for v, x := range row {
		if x >= 0 && x <= 1 {
			sums[v] += sign * int64(x*fixedScale)
		} else {
			odd[v] += int32(sign)
		}
	}
}

// Len returns how many periods the history holds.
func (h *History) Len() int { return len(h.rows) }

// Rows returns the retained periods, oldest first. The slices are the
// history's own and must not be modified.
func (h *History) Rows() [][]float64 { return h.rows }

// ZScoreOutliersMinSD is the package-level ZScoreOutliersMinSD over the
// retained periods, with the running sums standing in for the per-call
// build: same items, same order, same errors.
func (h *History) ZScoreOutliersMinSD(current []float64, k int, minZ, minSD float64) ([]int, error) {
	if err := validateZScore(h.rows, current, k, minZ, minSD); err != nil {
		return nil, err
	}
	return h.outliers(current, k, minZ, minSD), nil
}

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
	if err := validateZScore(history, current, k, minZ, minSD); err != nil {
		return nil, err
	}
	return newHistoryOf(history, len(current)).outliers(current, k, minZ, minSD), nil
}

// validateZScore returns the error ZScoreOutliersMinSD reports for
// its arguments, nil when they can be scored.
func validateZScore(history [][]float64, current []float64, k int, minZ, minSD float64) error {
	if len(history) < 2 {
		return errors.New("detect: need at least 2 history periods")
	}
	d := len(current)
	if d == 0 {
		return errors.New("detect: empty current frequencies")
	}
	for t, fs := range history {
		if len(fs) != d {
			return fmt.Errorf("detect: history period %d has %d items, want %d", t, len(fs), d)
		}
	}
	if k < 1 {
		return fmt.Errorf("detect: invalid outlier count %d", k)
	}
	if minZ < 0 || math.IsNaN(minZ) {
		return fmt.Errorf("detect: invalid z threshold %v", minZ)
	}
	if minSD < 0 || math.IsNaN(minSD) || math.IsInf(minSD, 0) {
		return fmt.Errorf("detect: invalid deviation floor %v", minSD)
	}
	return nil
}

// outliers is the z-score scan over validated arguments. An item is
// scored exactly — its series gathered, stats.Mean and
// stats.SampleVariance taken — unless the running sums prove it cannot
// reach minZ:
//
//   - Every value x of a screened item is in [0, 1], so the exact sum
//     E of its n values is at least S·2^-40, S its fixed-point sum.
//     stats.Mean computes E/n with a relative error below 2^-51 for
//     non-negative terms (Neumaier's bound; the term quadratic in n is
//     under 2^-60 for n < maxScreenRows), and L, the bound's own float
//     value, rounds four times; the screenShrink factor covers both, so
//     L <= the mean the exact path would compute.
//   - Subtraction and correctly rounded division are monotone, so the
//     exact path's dev is at most fl(c - L). The floor bounds every
//     item's standard deviation from below (sd >= minSD), so for
//     dev >= 0, fl(dev/sd) <= fl(dev/minSD) <= fl(fl(c-L)/minSD); a
//     negative dev scores below a positive minZ, and a NaN never
//     scores. An item with fl(fl(c-L)/minSD) < minZ is never flagged.
//
// An item with a value outside [0, 1] (or NaN) is never screened. The
// screen is off when minZ is 0 (a tiny negative dev can underflow to
// z = -0, which is >= 0) and when there is no floor to bound sd by.
func (h *History) outliers(current []float64, k int, minZ, minSD float64) []int {
	type scored struct {
		item int
		z    float64
	}
	var out []scored
	rows := h.rows
	screen := minZ > 0 && minSD > 0 && len(rows) < maxScreenRows
	n := float64(len(rows))
	scale := 1 / fixedScale / n * screenShrink
	sums, odd := h.sums[:len(current)], h.odd[:len(current)]
	var series []float64
	for v, c := range current {
		if screen && odd[v] == 0 {
			if low := float64(sums[v]) * scale; !((c-low)/minSD >= minZ) {
				continue
			}
		}
		if series == nil {
			series = make([]float64, len(rows))
		}
		for t, row := range rows {
			series[t] = row[v]
		}
		mu := stats.Mean(series)
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
		z := (c - mu) / sd
		if z >= minZ {
			out = append(out, scored{v, z})
		}
	}
	slices.SortFunc(out, func(a, b scored) int {
		if c := cmp.Compare(b.z, a.z); c != 0 {
			return c
		}
		return cmp.Compare(a.item, b.item)
	})
	if len(out) > k {
		out = out[:k]
	}
	items := make([]int, len(out))
	for i, s := range out {
		items[i] = s.item
	}
	return items
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
	slices.SortFunc(idx, func(a, b int) int {
		if c := cmp.Compare(after[b]-before[b], after[a]-before[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return idx[:k], nil
}
