package ldp

import "math/bits"

// Bitset is a fixed-capacity bit vector used by OUE reports. The zero
// value is unusable; construct with NewBitset.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns a bitset holding n bits, all zero.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity in bits.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i to 1. Out-of-range indices are a caller bug and panic
// via the slice bounds check.
func (b *Bitset) Set(i int) { b.words[i>>6] |= 1 << uint(i&63) }

// Get reports whether bit i is 1.
func (b *Bitset) Get(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}
