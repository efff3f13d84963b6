// Fixture for the exactfold analyzer, stream scope: the MergeSealed /
// MergeFrame accept paths and the SealCounts / AddPartial /
// AddPartialFrame / AddReportFrame hand-off into the epoch manager must
// stay float-free.
package stream

import "math"

type epoch struct {
	counts []int64
	scale  float64
}

// SealCounts folds a sealed tally into the epoch; the math.Round call
// and the division both re-introduce rounding.
func SealCounts(e *epoch, counts []int64) {
	for i := range counts {
		e.counts[i] += int64(math.Round(float64(counts[i]) / e.scale)) // want "math.Round returns a float" "conversion to float64" "floating-point arithmetic"
	}
}

// AddPartial is the exact form.
func AddPartial(e *epoch, counts []int64) {
	for i := range counts {
		e.counts[i] += counts[i]
	}
}

// AddPartialFrame folds wire counts through a float64 scale factor,
// which rounds once the counts pass 2^53.
func AddPartialFrame(e *epoch, wire []uint64) {
	for i := range wire {
		e.counts[i] += int64(float64(wire[i]) * e.scale) // want "conversion to float64" "floating-point arithmetic"
	}
}

// AddReportFrame weighs each report's supports by the frame's report
// count, which rounds the counts it was meant to add exactly.
func AddReportFrame(e *epoch, supports []int, reports int) {
	for _, v := range supports {
		e.counts[v] += int64(e.scale / float64(reports)) // want "conversion to float64" "floating-point arithmetic"
	}
}

// MergeFrame weighs the arriving tally by a float share before the
// fold.
func MergeFrame(e *epoch, wire []uint64, share float64) {
	for i := range wire {
		e.counts[i] += int64(share * float64(wire[i])) // want "conversion to float64" "floating-point arithmetic"
	}
}

// MergeSealed is the exact form.
func MergeSealed(e *epoch, counts []int64) {
	for i := range counts {
		e.counts[i] += counts[i]
	}
}

// Rescale is out of scope by name: not part of the fold family.
func Rescale(e *epoch, f float64) {
	e.scale *= f
}
