package ldp

// olhAVX512 reports whether sweepOLH hands whole 8-item chunks to the
// AVX-512 kernel. It is set once at init from the CPU and never changed
// by library code; tests flip it to pin both paths against each other.
var olhAVX512 = hasAVX512DQ()

// hasAVX512DQ reports whether the CPU has AVX512F and AVX512DQ (the
// kernel's VPMULLQ) and the OS saves opmask and ZMM state across context
// switches.
func hasAVX512DQ() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	// XGETBV is only defined once the OS has set CR4.OSXSAVE.
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(1<<27) == 0 {
		return false
	}
	// XCR0: SSE (bit 1), AVX (2), opmask (5), ZMM0-15 upper halves (6)
	// and ZMM16-31 (7) must all be OS-managed.
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx512f, avx512dq = 1 << 16, 1 << 17
	return ebx7&avx512f != 0 && ebx7&avx512dq != 0
}

// olhCountAVX512 adds one to counts[i] for every i whose v2 hash lands in
// [lo, lo+width): hash = fmix64(z + i·φ), the strength-reduced form of
// hashx.Premixed.Hash64 for the item counts[0] stands for. len(counts)
// must be a multiple of 8; olhAVX512 must be true. Implemented in
// olh_amd64.s.
//
//go:noescape
func olhCountAVX512(counts []int64, z, lo, width uint64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
