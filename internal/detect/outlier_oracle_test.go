package detect

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"ldprecover/internal/rng"
	"ldprecover/internal/stats"
)

// zscoreOutliersRef is the item-at-a-time z-score scan: gather each
// item's series, take stats.Mean and stats.SampleVariance of it, score
// every item. ZScoreOutliersMinSD must return exactly what it returns.
func zscoreOutliersRef(history [][]float64, current []float64, k int, minZ, minSD float64) ([]int, error) {
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
	series := make([]float64, len(history))
	for v := 0; v < d; v++ {
		for t := range history {
			series[t] = history[t][v]
		}
		mu := stats.Mean(series)
		sd := math.Sqrt(stats.SampleVariance(series))
		if sd < minSD {
			sd = minSD
		}
		if sd == 0 {
			sd = 1e-12
		}
		z := (current[v] - mu) / sd
		if z >= minZ {
			out = append(out, scored{v, z})
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

// checkZScoreAgainstRef fails t unless ZScoreOutliersMinSD and the
// reference agree on the items (in order) and on the error text.
func checkZScoreAgainstRef(t *testing.T, history [][]float64, current []float64, k int, minZ, minSD float64) {
	t.Helper()
	got, gotErr := ZScoreOutliersMinSD(history, current, k, minZ, minSD)
	want, wantErr := zscoreOutliersRef(history, current, k, minZ, minSD)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("d=%d periods=%d k=%d minZ=%v minSD=%v: error %v, reference %v",
			len(current), len(history), k, minZ, minSD, gotErr, wantErr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("d=%d periods=%d k=%d minZ=%v minSD=%v: items %v, reference %v",
			len(current), len(history), k, minZ, minSD, got, want)
	}
}

// randomZScoreCase draws a periods × d history and a current vector
// that mixes exact zeros, negatives, quarter-step ties, values repeated
// from the history and values a few deviations above the mean, at item
// scales from 1e-3 to 1, so scores land on both sides of every
// threshold.
func randomZScoreCase(r *rng.Rand, d, periods int) ([][]float64, []float64) {
	history := make([][]float64, periods)
	for t := range history {
		history[t] = make([]float64, d)
	}
	current := make([]float64, d)
	for v := 0; v < d; v++ {
		scale := []float64{1e-3, 0.01, 0.1, 1}[r.Intn(4)]
		base := scale * (r.Float64() - 0.2)
		kind := r.Intn(5)
		for t := range history {
			switch kind {
			case 0: // clipped tail item: zero every period
				history[t][v] = 0
			case 1: // quarter steps: exact ties between periods
				history[t][v] = float64(r.Intn(9)-4) / 4
			case 2: // mostly zero, now and then a spike
				if r.Intn(4) == 0 {
					history[t][v] = scale * r.Float64()
				}
			default:
				history[t][v] = base + scale*0.1*r.NormFloat64()
			}
		}
		switch r.Intn(5) {
		case 0:
			current[v] = 0
		case 1:
			current[v] = history[r.Intn(periods)][v]
		case 2:
			current[v] = float64(r.Intn(9)-4) / 4
		case 3:
			current[v] = -scale * r.Float64()
		default:
			current[v] = base + scale*0.1*(8*r.Float64()-1) // 1 below to 7 above the spread
		}
	}
	return history, current
}

// TestZScoreOutliersMatchesReference: the screened scan returns the
// reference's items in the reference's order for random histories at
// every threshold and floor.
func TestZScoreOutliersMatchesReference(t *testing.T) {
	r := rng.New(23)
	minZs := []float64{0, 0.5, 1, 3}
	minSDs := []float64{0, 1e-4, 0.01, 0.5}
	for trial := 0; trial < 120; trial++ {
		d := 1 + r.Intn(700)
		if trial < 2 {
			d = trial + 1
		}
		periods := 2 + r.Intn(17)
		history, current := randomZScoreCase(r, d, periods)
		for _, minZ := range minZs {
			for _, minSD := range minSDs {
				checkZScoreAgainstRef(t, history, current, 1+r.Intn(d+2), minZ, minSD)
				checkZScoreAgainstRef(t, history, current, d, minZ, minSD)
			}
		}
	}
}

// TestZScoreOutliersNegativeZeroScore: a tiny negative deviation over a
// huge spread underflows to z = -0, which is >= a threshold of 0, so
// the reference flags the item. Pruning must stay off at minZ = 0 for
// any floor.
func TestZScoreOutliersNegativeZeroScore(t *testing.T) {
	history := [][]float64{{1e20, 0.5}, {-1e20, 0.5}}
	current := []float64{-1e-310, 0.5}
	if z := (current[0] - 0) / math.Sqrt(stats.SampleVariance([]float64{1e20, -1e20})); z != 0 || !math.Signbit(z) {
		t.Fatalf("case no longer scores -0: z = %v", z)
	}
	for _, minSD := range []float64{0, 1e-4, 0.01, 0.5} {
		got, err := ZScoreOutliersMinSD(history, current, 2, 0, minSD)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(got, 0) {
			t.Fatalf("minSD=%v: items %v, want item 0 flagged at z = -0", minSD, got)
		}
		checkZScoreAgainstRef(t, history, current, 2, 0, minSD)
	}
}

// FuzzZScoreOutliersMinSD checks the scan against the reference on
// arbitrary histories: quarter-step values, signed zeros, subnormals,
// huge and non-finite entries, and every threshold/floor pairing.
func FuzzZScoreOutliersMinSD(f *testing.F) {
	f.Add([]byte{100, 104, 96, 100, 120, 0}, uint8(3), uint8(2), uint16(2), uint8(3), uint8(2))
	f.Add([]byte{232, 233, 202, 100}, uint8(0), uint8(1), uint16(1), uint8(0), uint8(3))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 200, 201, 240, 255}, uint8(16), uint8(255), uint16(9), uint8(2), uint8(1))
	f.Add([]byte{100}, uint8(1), uint8(0), uint16(0), uint8(1), uint8(0))
	// The screen's range edges: 0, -0, 1 and the subnormals are in
	// [0, 1], Nextafter(1, 2) is just outside it, and 2^-41 has a zero
	// fixed-point term. Thresholds and floors keep the screen on.
	f.Add([]byte{100, 201, 104, 214, 202, 211, 215}, uint8(5), uint8(6), uint16(3), uint8(1), uint8(1))
	f.Add([]byte{104, 104, 104, 214, 104, 104, 104, 200}, uint8(2), uint8(7), uint16(2), uint8(2), uint8(2))
	f.Add([]byte{211, 202, 215, 100, 201, 211, 202, 104}, uint8(14), uint8(0), uint16(1), uint8(3), uint8(4))
	f.Add([]byte{104, 100, 104, 100, 105, 214}, uint8(0), uint8(2), uint16(5), uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, periodsRaw, dRaw uint8, k uint16, zSel, sdSel uint8) {
		if len(raw) == 0 {
			return
		}
		periods := 2 + int(periodsRaw)%17
		d := 1 + int(dRaw)%300
		next := 0
		value := func() float64 {
			b := raw[next%len(raw)] + byte(next/len(raw))
			next++
			if b < 200 {
				return float64(int(b)-100) / 4
			}
			specials := []float64{0, math.Copysign(0, -1), 1e-310, -1e-310, 1e20, -1e20,
				math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64,
				math.SmallestNonzeroFloat64, 1e-3, 0.1, math.Nextafter(1, 2), 0x1p-41}
			return specials[int(b-200)%len(specials)]
		}
		history := make([][]float64, periods)
		for t := range history {
			history[t] = make([]float64, d)
			for v := range history[t] {
				history[t][v] = value()
			}
		}
		current := make([]float64, d)
		for v := range current {
			current[v] = value()
		}
		minZ := []float64{0, 0.5, 1, 3, math.Inf(1), 1e-300}[int(zSel)%6]
		minSD := []float64{0, 1e-4, 0.01, 0.5, math.SmallestNonzeroFloat64, 1e300}[int(sdSel)%6]
		checkZScoreAgainstRef(t, history, current, int(k), minZ, minSD)
	})
}

// TestZScoreOutliersScreenRounding scores items whose fixed-point sum
// is exact (one value k·2^-40, the others 0) at the threshold their
// score lands on exactly, for every (k, n) where the unshrunk bound
// float64(k)·fl(2^-40/n) rounds above the mean stats.Mean computes.
// There a screen without its shrink factor would drop an item the
// reference flags.
func TestZScoreOutliersScreenRounding(t *testing.T) {
	cases := 0
	for n := 3; n <= 16; n++ {
		for k := 1; k <= 500; k++ {
			series := make([]float64, n)
			series[n-1] = float64(k) * 0x1p-40
			history := make([][]float64, n)
			for i, x := range series {
				history[i] = []float64{x}
			}
			mu := stats.Mean(series)
			if float64(k)*(0x1p-40/float64(n)) <= mu {
				continue
			}
			cases++
			// c - mu is exact (Sterbenz), and with minSD = 1 above the
			// series' deviation the score is exactly c - mu.
			c := 1.5 * mu
			checkZScoreAgainstRef(t, history, []float64{c}, 1, c-mu, 1)
		}
	}
	if cases == 0 {
		t.Fatal("no (k, n) rounds the unshrunk bound above the mean")
	}
}

// TestHistoryMatchesRebuild pushes random periods through a History,
// evicting past its retention, and after every push requires the
// running sums to equal a rebuild from the retained rows and the
// stateful scan to return the reference's items and errors. The rows
// mix values in [0, 1] with negatives, values above 1 and NaN, so
// items enter and leave the screen as periods are evicted.
func TestHistoryMatchesRebuild(t *testing.T) {
	r := rng.New(29)
	for trial := 0; trial < 40; trial++ {
		d := 1 + r.Intn(300)
		keep := 1 + r.Intn(18)
		h, err := NewHistory(d, keep)
		if err != nil {
			t.Fatal(err)
		}
		rows, current := randomZScoreCase(r, d, 3*keep+2)
		for i, row := range rows {
			if i%5 == 4 {
				row[r.Intn(d)] = []float64{math.NaN(), math.Nextafter(1, 2), 1, 0x1p-41}[r.Intn(4)]
			}
			h.Push(append([]float64(nil), row...))
			want := rows[max(0, i+1-keep) : i+1]
			sameBits := func(a, b []float64) bool {
				return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
			}
			if h.Len() != len(want) || !slices.EqualFunc(h.Rows(), want, sameBits) {
				t.Fatalf("trial %d push %d: history holds %d rows, want the newest %d", trial, i, h.Len(), len(want))
			}
			rebuilt := newHistoryOf(h.Rows(), d)
			if !slices.Equal(h.sums, rebuilt.sums) || !slices.Equal(h.odd, rebuilt.odd) {
				t.Fatalf("trial %d push %d: running sums differ from a rebuild", trial, i)
			}
			for _, minZ := range []float64{0, 1, 3} {
				for _, minSD := range []float64{0, 1e-4, 0.01} {
					k := 1 + r.Intn(d+2)
					got, gotErr := h.ZScoreOutliersMinSD(current, k, minZ, minSD)
					want, wantErr := zscoreOutliersRef(h.Rows(), current, k, minZ, minSD)
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
						t.Fatalf("trial %d push %d minZ=%v minSD=%v: %v (%v), reference %v (%v)",
							trial, i, minZ, minSD, got, gotErr, want, wantErr)
					}
				}
			}
		}
	}
}

// TestHistoryValidation: a history needs a domain and a retention, and
// refuses a period of the wrong length.
func TestHistoryValidation(t *testing.T) {
	if _, err := NewHistory(0, 4); err == nil {
		t.Fatal("empty domain accepted")
	}
	if _, err := NewHistory(4, 0); err == nil {
		t.Fatal("zero retention accepted")
	}
	h, err := NewHistory(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("pushing a 3-item period onto a 2-item history did not panic")
		}
	}()
	h.Push([]float64{0, 0, 0})
}

// BenchmarkZScoreOutliers scores one fresh estimate against a 16-epoch
// history at d=4096, the shape a streaming seal hands the oracle: a
// Zipf-like head, a tail the simplex refinement clips to zero, noise
// at the floor's scale, and five spiked targets.
func BenchmarkZScoreOutliers(b *testing.B) {
	const d, periods, minSD = 4096, 16, 4e-3
	r := rng.New(41)
	noisy := func(v int) float64 {
		f := 0.1/float64(v+1) + minSD*r.NormFloat64()
		return max(f, 0)
	}
	history := make([][]float64, periods)
	for t := range history {
		history[t] = make([]float64, d)
		for v := range history[t] {
			history[t][v] = noisy(v)
		}
	}
	current := make([]float64, d)
	for v := range current {
		current[v] = noisy(v)
	}
	for _, v := range []int{17, 400, 1200, 2500, 4000} {
		current[v] += 0.05
	}
	b.Run(fmt.Sprintf("d=%d/periods=%d", d, periods), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ZScoreOutliersMinSD(history, current, 10, 3, minSD); err != nil {
				b.Fatal(err)
			}
		}
	})
}
