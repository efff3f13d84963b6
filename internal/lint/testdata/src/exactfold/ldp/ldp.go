// Fixture for the exactfold analyzer, ldp scope: Tally and CountFrame
// merge methods, and the addCountBytes wire fold, must stay float-free.
package ldp

type Tally struct {
	Counts []int64
	Eps    float64
}

// MergeInto is the exact fold: int64 addition only.
func (t *Tally) MergeInto(other *Tally) {
	for i := range t.Counts {
		t.Counts[i] += other.Counts[i]
	}
}

// MergeScaled smuggles a float conversion and float multiply into the
// fold.
func (t *Tally) MergeScaled(other *Tally, w float64) {
	for i := range t.Counts {
		t.Counts[i] += int64(float64(other.Counts[i]) * w) // want "conversion to float64" "floating-point arithmetic"
	}
}

// MergeDamped hides the rounding behind a float literal.
func (t *Tally) MergeDamped(other *Tally) {
	for i := range t.Counts {
		d := 0.5 // want "float literal"
		_ = d
		t.Counts[i] += other.Counts[i]
	}
}

// Estimate is allowed to use floats: estimation is a read-only
// consumer of sealed counts, not a fold.
func (t *Tally) Estimate() float64 {
	return float64(len(t.Counts)) * t.Eps
}

// mergeChunk is in scope by name regardless of export: the parallel
// merge splits into unexported chunk helpers.
func (t *Tally) mergeChunk(other *Tally, lo, hi int) {
	for i := lo; i < hi; i++ {
		t.Counts[i] += other.Counts[i]
	}
}

// CountFrame is a validated count frame's view: counts as wire words.
type CountFrame struct {
	counts []uint64
	Scale  float64
}

// MergeInto is the exact fold from the wire words.
func (f CountFrame) MergeInto(acc *Tally) {
	addCountBytes(acc.Counts, f.counts)
}

// mergeInto rescales the wire counts on the way in.
func (f CountFrame) mergeInto(acc *Tally, workers int) {
	for i := range acc.Counts {
		acc.Counts[i] += int64(float64(f.counts[i]) * f.Scale) // want "conversion to float64" "floating-point arithmetic"
	}
}

// Domain is out of scope by name: not a fold.
func (f CountFrame) Domain() float64 {
	return float64(len(f.counts))
}

// addCountBytes is in scope by name, receiver or not.
func addCountBytes(dst []int64, src []uint64) {
	for i := range dst {
		dst[i] += int64(src[i]) / int64(1.0) // want "float literal"
	}
}
