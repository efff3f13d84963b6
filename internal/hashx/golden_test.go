package hashx

import "testing"

// Golden vectors pin the v2 hash family (Premix and Premixed.Hash64)
// bit-for-bit. OLH reports are (seed, value) pairs whose meaning depends
// on every aggregator hashing identically, and serialized reports outlive
// any one process — so a change to the family is a wire-format break and
// must fail here loudly (bump the family version instead of editing the
// vectors). The v1 family is retired: its wire tag is rejected on decode.

var goldenPremix = []struct{ seed, want uint64 }{
	{0x0, 0x0},
	{0x1, 0x5692161d100b05e5},
	{0x2a, 0xa759ea27d4727622},
	{0xdeadbeef, 0x4e062702ec929eea},
	{0xffffffffffffffff, 0xb4d055fcf2cbbd7b},
	{0x9e3779b97f4a7c15, 0xe220a8397b1dcdaf},
}

var goldenV2 = []struct{ seed, x, want uint64 }{
	{0x0, 0x0, 0x0},
	{0x0, 0x1, 0x9ca066f1a4ab2eea},
	{0x1, 0x0, 0x7f2db13df63dbd45},
	{0x1, 0x1, 0xa68a648c74ba9086},
	{0x2a, 0x7, 0xba743dfadecaf9b4},
	{0xdeadbeef, 0x75bcd15, 0x2343cfc7043cc3c0},
	{0xffffffffffffffff, 0xffffffffffffffff, 0xe9f922cb5c739a99},
	{0x9e3779b97f4a7c15, 0xc4ceb9fe1a85ec53, 0x464a3ef50ef28312},
}

func TestGoldenPremix(t *testing.T) {
	for _, g := range goldenPremix {
		if got := Premix(g.seed); uint64(got) != g.want {
			t.Errorf("Premix(%#x) = %#x, want %#x", g.seed, uint64(got), g.want)
		}
	}
}

func TestGoldenV2(t *testing.T) {
	for _, g := range goldenV2 {
		if got := Premix(g.seed).Hash64(g.x); got != g.want {
			t.Errorf("Premix(%#x).Hash64(%#x) = %#x, want %#x", g.seed, g.x, got, g.want)
		}
	}
}
