// Package dataset provides the item-frequency datasets used by the
// reproduction: the Dataset type, deterministic synthetic generators
// (including the IPUMS and Fire surrogates described in DESIGN.md §3),
// and historical-series generation for the outlier-based
// target-identification substrate.
package dataset

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"ldprecover/internal/stats"
)

// Dataset is an item-frequency dataset: Counts[v] users hold item v from a
// domain of size len(Counts). Datasets are immutable by convention; treat
// the slices returned by accessors as read-only.
type Dataset struct {
	// Name identifies the dataset in reports (e.g. "ipums-synth").
	Name string
	// Counts holds the number of users per item; Counts[v] >= 0.
	Counts []int64
}

// ErrEmptyDomain is returned when constructing a dataset with no items.
var ErrEmptyDomain = errors.New("dataset: empty domain")

// New validates counts and wraps them in a Dataset.
func New(name string, counts []int64) (*Dataset, error) {
	if len(counts) == 0 {
		return nil, ErrEmptyDomain
	}
	var n int64
	for v, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("dataset: negative count %d for item %d", c, v)
		}
		n += c
	}
	if n == 0 {
		return nil, errors.New("dataset: no users")
	}
	return &Dataset{Name: name, Counts: counts}, nil
}

// Domain returns the number of distinct items d.
func (d *Dataset) Domain() int { return len(d.Counts) }

// N returns the total number of users.
func (d *Dataset) N() int64 {
	var n int64
	for _, c := range d.Counts {
		n += c
	}
	return n
}

// Frequencies returns the true frequency vector f_X (sums to 1).
func (d *Dataset) Frequencies() []float64 {
	n := float64(d.N())
	fs := make([]float64, len(d.Counts))
	for v, c := range d.Counts {
		fs[v] = float64(c) / n
	}
	return fs
}

// Scaled returns a copy with user counts scaled by factor (0 < factor),
// preserving the frequency shape via largest-remainder rounding. It is the
// hook the benchmark harness uses to shrink paper-scale workloads.
func (d *Dataset) Scaled(factor float64) (*Dataset, error) {
	if factor <= 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		return nil, fmt.Errorf("dataset: invalid scale factor %v", factor)
	}
	if factor == 1 {
		cp := append([]int64(nil), d.Counts...)
		return New(d.Name, cp)
	}
	target := int64(math.Round(float64(d.N()) * factor))
	if target < 1 {
		target = 1
	}
	return FromFrequencies(d.Name, d.Frequencies(), target)
}

// FromFrequencies builds a dataset of n users whose counts follow freqs as
// closely as integer counts allow (largest-remainder apportionment; the
// counts always sum to exactly n).
func FromFrequencies(name string, freqs []float64, n int64) (*Dataset, error) {
	if len(freqs) == 0 {
		return nil, ErrEmptyDomain
	}
	if n <= 0 {
		return nil, fmt.Errorf("dataset: invalid user count %d", n)
	}
	if !stats.AllFinite(freqs) {
		return nil, errors.New("dataset: non-finite frequencies")
	}
	var total float64
	for v, f := range freqs {
		if f < 0 {
			return nil, fmt.Errorf("dataset: negative frequency %g at item %d", f, v)
		}
		total += f
	}
	if total <= 0 {
		return nil, errors.New("dataset: zero-mass frequencies")
	}

	type rem struct {
		v    int
		frac float64
	}
	counts := make([]int64, len(freqs))
	rems := make([]rem, len(freqs))
	var assigned int64
	for v, f := range freqs {
		exact := f / total * float64(n)
		c := int64(math.Floor(exact))
		counts[v] = c
		assigned += c
		rems[v] = rem{v, exact - float64(c)}
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].v < rems[b].v
	})
	for i := int64(0); i < n-assigned; i++ {
		counts[rems[i%int64(len(rems))].v]++
	}
	return New(name, counts)
}
