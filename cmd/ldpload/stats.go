package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. It returns NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(xs))
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median returns the middle of xs, the mean of the middle two for an
// even count, and NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// method the benchmark's acceptance check applies to run-to-run spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := max(1, min(i*m/4, len(s)-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// pairWins counts the pairs (base[i], head[i]) head wins and loses under
// the metric's direction; ties count for neither side.
func pairWins(base, head []float64, lowerBetter bool) (wins, losses, pairs int) {
	pairs = min(len(base), len(head))
	for i := range pairs {
		d := head[i] - base[i]
		if lowerBetter {
			d = -d
		}
		switch {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	return wins, losses, pairs
}

// record is one line of a results file: a run's result plus what it ran
// on and where.
type record struct {
	result
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Trace     bool    `json:"trace"`
	Seconds   int     `json:"seconds"`
	WallS     float64 `json:"wall_s"`
	Commit    string  `json:"commit"`
	NProc     int     `json:"nproc"`
	GoVersion string  `json:"go_version"`
}

// readRecords reads a results file: one JSON record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// benchMetric is a metric's entry in BENCHMARK.json.
type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// benchDoc is the metric part of BENCHMARK.json.
type benchDoc struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

// readBench reads the metric lists from BENCHMARK.json.
func readBench(path string) (benchDoc, error) {
	var doc benchDoc
	b, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// byName indexes every metric, end-to-end and per-layer, by name.
func (doc benchDoc) byName() map[string]benchMetric {
	out := make(map[string]benchMetric)
	for _, m := range slices.Concat(doc.EndToEnd, doc.PerLayer) {
		out[m.Name] = m
	}
	return out
}

// samples groups the records' metric values by workload and metric, in
// run order.
func samples(recs []record) map[[2]string][]float64 {
	out := make(map[[2]string][]float64)
	for _, r := range recs {
		for name, m := range r.Metrics {
			k := [2]string{r.Workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

// verdict applies the comparison rules to one (workload, metric): a
// regression is a head median worse than the base median by more than
// the bound; a claim needs head to win at least 9 of 10 pairs and the
// medians to differ by more than the base's interquartile range. Where
// either side's spread exceeds the bound the answer is "unresolved",
// unless every head run beats every base run.
func verdict(base, head []float64, m benchMetric) string {
	lower := m.Better == "lower"
	bm, hm := median(base), median(head)
	worse := hm - bm
	if !lower {
		worse = -worse
	}
	wins, _, pairs := pairWins(base, head, lower)
	q1, q3 := quartiles(base)
	claim := pairs > 0 && 10*wins >= 9*pairs && math.Abs(hm-bm) > q3-q1
	if m.Bound == nil {
		if claim {
			return "better"
		}
		return "-"
	}
	if spread(base) > *m.Bound || spread(head) > *m.Bound {
		if dominates(base, head, lower) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case worse > *m.Bound*math.Abs(bm):
		return "REGRESSION"
	case claim:
		return "better"
	}
	return "same"
}

// dominates reports whether every head sample beats every base sample.
func dominates(base, head []float64, lower bool) bool {
	if len(base) == 0 || len(head) == 0 {
		return false
	}
	if lower {
		return slices.Max(head) < slices.Min(base)
	}
	return slices.Min(head) > slices.Max(base)
}

// compare prints, for every (workload, metric) both results files share,
// each side's median and quartiles and the verdict. It reports whether
// any metric regressed.
func compare(w io.Writer, bench map[string]benchMetric, base, head []record) bool {
	bs, hs := samples(base), samples(head)
	keys := make([][2]string, 0, len(bs))
	for k := range bs {
		if _, ok := hs[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	regressed := false
	fmt.Fprintf(w, "%-14s %-34s %28s %28s %8s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "delta", "verdict")
	for _, k := range keys {
		b, h := bs[k], hs[k]
		m, ok := bench[k[1]]
		if !ok {
			m = benchMetric{Name: k[1], Better: "lower"}
		}
		v := verdict(b, h, m)
		regressed = regressed || v == "REGRESSION"
		bq1, bq3 := quartiles(b)
		hq1, hq3 := quartiles(h)
		fmt.Fprintf(w, "%-14s %-34s %28s %28s %+7.1f%%  %s\n", k[0], k[1],
			fmt.Sprintf("%.4g [%.4g, %.4g]", median(b), bq1, bq3),
			fmt.Sprintf("%.4g [%.4g, %.4g]", median(h), hq1, hq3),
			100*(median(h)/median(b)-1), v)
	}
	return regressed
}
