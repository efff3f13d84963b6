package hashx

import (
	"math"
	"math/bits"
	"testing"
)

// TestBucketIntervalMatchesRangeReduction pins BucketInterval's contract
// against the multiply it replaces: for every checked z, the high word of
// z·g equals value exactly when z - lo < width. The checked z sit on both
// sides of both interval edges, at the ends of the uint64 range, and at
// 2000 pseudo-random points. g = 2^63+1 does not fit an int; like
// ToRange, BucketInterval reads g as a uint64, so it is passed wrapped.
func TestBucketIntervalMatchesRangeReduction(t *testing.T) {
	gs := []uint64{2, 3, 5, 7, 16, 255, 1 << 20, 1 << 33, 1<<63 + 1}
	for _, gu := range gs {
		g := int(gu)
		for value := 0; uint64(value) < min(gu, 50); value++ {
			lo, width := BucketInterval(value, g)
			zs := []uint64{lo - 1, lo, lo + width - 1, lo + width, 0, math.MaxUint64}
			for i := 0; i < 2000; i++ {
				zs = append(zs, Premix(gu).Hash64(uint64(value)<<32|uint64(i)))
			}
			for _, z := range zs {
				bucket, _ := bits.Mul64(z, gu)
				if got, want := z-lo < width, bucket == uint64(value); got != want {
					t.Fatalf("g=%d value=%d z=%#x: interval [%#x, +%#x) says %v, range reduction says bucket %d",
						gu, value, z, lo, width, got, bucket)
				}
			}
		}
	}
}

// TestBucketIntervalMatchesToRange ties the interval to the v2 family's
// own ToRange over real hashes.
func TestBucketIntervalMatchesToRange(t *testing.T) {
	for _, g := range []int{2, 3, 1000} {
		for seed := uint64(0); seed < 20; seed++ {
			p := Premix(seed)
			for value := 0; value < min(g, 4); value++ {
				lo, width := BucketInterval(value, g)
				for x := uint64(0); x < 500; x++ {
					if got, want := p.Hash64(x)-lo < width, p.ToRange(x, g) == value; got != want {
						t.Fatalf("g=%d seed=%d value=%d x=%d: interval %v, ToRange %v", g, seed, value, x, got, want)
					}
				}
			}
		}
	}
}
