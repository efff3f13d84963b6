package dataset

import (
	"math"
	"testing"
	"testing/quick"

	"ldprecover/internal/rng"
	"ldprecover/internal/stats"
)

func TestNewValidation(t *testing.T) {
	if _, err := New("x", nil); err == nil {
		t.Fatal("empty domain accepted")
	}
	if _, err := New("x", []int64{1, -2}); err == nil {
		t.Fatal("negative count accepted")
	}
	if _, err := New("x", []int64{0, 0}); err == nil {
		t.Fatal("zero users accepted")
	}
	ds, err := New("x", []int64{3, 0, 7})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Domain() != 3 || ds.N() != 10 {
		t.Fatalf("domain %d n %d", ds.Domain(), ds.N())
	}
}

func TestFrequenciesSumToOne(t *testing.T) {
	ds, _ := New("x", []int64{1, 2, 3, 4})
	fs := ds.Frequencies()
	if s := stats.Sum(fs); math.Abs(s-1) > 1e-12 {
		t.Fatalf("frequencies sum %v", s)
	}
	if fs[3] != 0.4 {
		t.Fatalf("f[3]=%v", fs[3])
	}
}

func TestFromFrequenciesExactTotal(t *testing.T) {
	freqs := []float64{0.15, 0.25, 0.6}
	ds, err := FromFrequencies("x", freqs, 1001)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 1001 {
		t.Fatalf("n = %d", ds.N())
	}
	got := ds.Frequencies()
	for i := range freqs {
		if math.Abs(got[i]-freqs[i]) > 1e-3 {
			t.Fatalf("freq[%d]=%v want %v", i, got[i], freqs[i])
		}
	}
}

func TestFromFrequenciesValidation(t *testing.T) {
	if _, err := FromFrequencies("x", nil, 10); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := FromFrequencies("x", []float64{0.5}, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := FromFrequencies("x", []float64{-0.1, 1.1}, 10); err == nil {
		t.Fatal("negative frequency accepted")
	}
	if _, err := FromFrequencies("x", []float64{math.NaN()}, 10); err == nil {
		t.Fatal("NaN accepted")
	}
	if _, err := FromFrequencies("x", []float64{0, 0}, 10); err == nil {
		t.Fatal("zero mass accepted")
	}
}

func TestFromFrequenciesCountConservationProperty(t *testing.T) {
	f := func(seed uint64, dRaw uint8, nRaw uint32) bool {
		r := rng.New(seed)
		d := int(dRaw%50) + 1
		n := int64(nRaw%1000000) + 1
		freqs := make([]float64, d)
		for i := range freqs {
			freqs[i] = r.Float64()
		}
		freqs[r.Intn(d)] = 1 // ensure positive mass
		ds, err := FromFrequencies("p", freqs, n)
		if err != nil {
			return false
		}
		return ds.N() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestScaled(t *testing.T) {
	ds := SyntheticIPUMS()
	small, err := ds.Scaled(0.01)
	if err != nil {
		t.Fatal(err)
	}
	wantN := int64(math.Round(float64(ds.N()) * 0.01))
	if small.N() != wantN {
		t.Fatalf("scaled N = %d want %d", small.N(), wantN)
	}
	if small.Domain() != ds.Domain() {
		t.Fatalf("scaled domain changed: %d", small.Domain())
	}
	// Shape preserved approximately.
	a, b := ds.Frequencies(), small.Frequencies()
	for v := range a {
		if math.Abs(a[v]-b[v]) > 5e-4 {
			t.Fatalf("scaled freq drifted at %d: %v vs %v", v, a[v], b[v])
		}
	}
	if _, err := ds.Scaled(0); err == nil {
		t.Fatal("scale 0 accepted")
	}
	if _, err := ds.Scaled(math.Inf(1)); err == nil {
		t.Fatal("scale Inf accepted")
	}
}

func TestScaledIdentityCopies(t *testing.T) {
	ds, _ := New("x", []int64{1, 2, 3})
	cp, err := ds.Scaled(1)
	if err != nil {
		t.Fatal(err)
	}
	cp.Counts[0] = 99
	if ds.Counts[0] != 1 {
		t.Fatal("Scaled(1) aliases the original counts")
	}
}

func TestZipfShape(t *testing.T) {
	ds, err := Zipf("z", 100, 100000, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	fs := ds.Frequencies()
	for v := 1; v < len(fs); v++ {
		if fs[v] > fs[v-1]+1e-9 {
			t.Fatalf("zipf frequencies increase at %d", v)
		}
	}
	if ds.N() != 100000 {
		t.Fatalf("n = %d", ds.N())
	}
}

func TestSyntheticCorporaMatchPaperScale(t *testing.T) {
	ip := SyntheticIPUMS()
	if ip.Domain() != IPUMSDomain || ip.N() != IPUMSUsers {
		t.Fatalf("ipums surrogate %d items %d users", ip.Domain(), ip.N())
	}
	fire := SyntheticFire()
	if fire.Domain() != FireDomain || fire.N() != FireUsers {
		t.Fatalf("fire surrogate %d items %d users", fire.Domain(), fire.N())
	}
	// Deterministic: constructing twice yields identical counts.
	ip2 := SyntheticIPUMS()
	for v := range ip.Counts {
		if ip.Counts[v] != ip2.Counts[v] {
			t.Fatal("surrogate not deterministic")
		}
	}
}

func TestGenerateHistory(t *testing.T) {
	ds, _ := Zipf("z", 50, 50000, 1.0)
	r := rng.New(9)
	hist, err := GenerateHistory(ds, 12, 0.05, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 12 {
		t.Fatalf("periods %d", len(hist))
	}
	base := ds.Frequencies()
	for _, fs := range hist {
		if s := stats.Sum(fs); math.Abs(s-1) > 1e-9 {
			t.Fatalf("history period sums to %v", s)
		}
		// Stays near the base distribution.
		mse, err := stats.MSE(fs, base)
		if err != nil {
			t.Fatal(err)
		}
		if mse > 1e-4 {
			t.Fatalf("history period drifted too far: MSE %v", mse)
		}
	}
}

func TestGenerateHistoryValidation(t *testing.T) {
	ds, _ := Zipf("z", 10, 1000, 1.0)
	r := rng.New(1)
	if _, err := GenerateHistory(ds, 0, 0.1, r); err == nil {
		t.Fatal("periods=0 accepted")
	}
	if _, err := GenerateHistory(ds, 5, -0.1, r); err == nil {
		t.Fatal("negative drift accepted")
	}
	if _, err := GenerateHistory(ds, 5, 1.0, r); err == nil {
		t.Fatal("drift=1 accepted")
	}
}
