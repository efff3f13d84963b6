package ldp

import (
	"testing"
	"testing/quick"
)

func TestBitsetBasic(t *testing.T) {
	b := NewBitset(130)
	if b.Len() != 130 || b.Count() != 0 {
		t.Fatalf("fresh bitset len=%d count=%d", b.Len(), b.Count())
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(129)
	if b.Count() != 4 {
		t.Fatalf("count %d want 4", b.Count())
	}
	for _, i := range []int{0, 63, 64, 129} {
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Get(1) || b.Get(128) {
		t.Fatal("unset bit reads true")
	}
}

func TestBitsetGetOutOfRange(t *testing.T) {
	b := NewBitset(10)
	if b.Get(-1) || b.Get(10) || b.Get(1000) {
		t.Fatal("out-of-range Get returned true")
	}
}

func TestBitsetSetGetProperty(t *testing.T) {
	f := func(nRaw uint8, idxs []uint16) bool {
		n := int(nRaw)%500 + 1
		b := NewBitset(n)
		set := map[int]bool{}
		for _, raw := range idxs {
			i := int(raw) % n
			b.Set(i)
			set[i] = true
		}
		if b.Count() != len(set) {
			return false
		}
		for i := 0; i < n; i++ {
			if b.Get(i) != set[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// bitsetOf returns an n-bit set with the given bits set.
func bitsetOf(n int, set ...int) *Bitset {
	b := NewBitset(n)
	for _, v := range set {
		b.Set(v)
	}
	return b
}
