package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 15, 40, 20, 35}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v, want 2.5", got)
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{2, 4}, 1.5, 4.5}, // the exclusive method extrapolates
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	// IQR 5.5 over median 5.5.
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestPairWins(t *testing.T) {
	base := []float64{10, 10, 10, 10}
	head := []float64{9, 11, 10, 8}
	if w, l, n := pairWins(base, head, true); w != 2 || l != 1 || n != 4 {
		t.Errorf("lower-better: %d wins %d losses of %d, want 2, 1 of 4", w, l, n)
	}
	if w, l, n := pairWins(base, head, false); w != 1 || l != 2 || n != 4 {
		t.Errorf("higher-better: %d wins %d losses of %d, want 1, 2 of 4", w, l, n)
	}
	if _, _, n := pairWins(base, head[:3], true); n != 3 {
		t.Errorf("unequal sides pair %d runs, want 3", n)
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	lat := benchMetric{Name: "ingest_ack_p50_ms", Better: "lower", Bound: &bound}
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		head []float64
		want string
	}{
		{"same", base, "same"},
		{"20% slower", scale(base, 1.2), "REGRESSION"},
		{"20% faster", scale(base, 0.8), "better"},
		{"5% slower is within the bound", scale(base, 1.05), "same"},
		{"noisy head", []float64{0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1}, "unresolved"},
	} {
		if got := verdict(base, c.head, lat); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	tput := benchMetric{Name: "ingest_reports_per_s", Better: "higher", Bound: &bound}
	if got := verdict(base, scale(base, 0.8), tput); got != "REGRESSION" {
		t.Errorf("throughput down 20%%: verdict %q, want REGRESSION", got)
	}
}
