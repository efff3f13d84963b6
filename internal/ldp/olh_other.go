//go:build !amd64

package ldp

// olhAVX512 is always false off amd64: sweepOLH folds every item in Go.
var olhAVX512 bool

// olhCountAVX512 is never called off amd64.
func olhCountAVX512(counts []int64, z, lo, width uint64) {
	panic("ldp: AVX-512 OLH kernel called on a non-amd64 build")
}
