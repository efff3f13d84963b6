package ldp

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ldprecover/internal/rng"
)

// mergeTestTally builds a deterministic tally over domain d.
func mergeTestTally(node string, epoch int, d int, seed uint64) *Tally {
	r := rng.New(seed)
	counts := make([]int64, d)
	var total int64
	for v := range counts {
		counts[v] = int64(r.Uint64() % 500)
		total += counts[v]
	}
	return &Tally{NodeID: node, Epoch: epoch, Counts: counts, Total: total}
}

// mergeIntoRef is the reference count fold: int64 addition of a
// decoded tally's counts and total into acc, one item at a time.
// CountFrame.MergeInto must produce exactly its bits. acc must match
// src's domain and epoch.
func mergeIntoRef(src, acc *Tally) {
	for v, c := range src.Counts {
		acc.Counts[v] += c
	}
	acc.Total += src.Total
}

// cloneTally returns a deep copy of t.
func cloneTally(t *Tally) *Tally {
	return &Tally{NodeID: t.NodeID, Epoch: t.Epoch, Counts: slices.Clone(t.Counts), Total: t.Total}
}

// tallyFrame marshals t and returns the validated "LT" view of it.
func tallyFrame(tb testing.TB, t *Tally) CountFrame {
	tb.Helper()
	frame, err := MarshalTally(t)
	if err != nil {
		tb.Fatal(err)
	}
	f, err := ValidateTallyFrame(frame)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// TestMergeParallelMatchesSequential pins the core property of the
// chunked fold: for any domain size (odd, power-of-two, straddling the
// parallel threshold) and any worker count, CountFrame.mergeInto
// produces exactly the bits the reference fold of the decoded tally
// does.
func TestMergeParallelMatchesSequential(t *testing.T) {
	for _, d := range []int{2, 17, 1 << 10, parallelMergeMin - 1, parallelMergeMin, parallelMergeMin + 3, 1 << 16} {
		for _, workers := range []int{1, 2, 3, 4, 8} {
			src := mergeTestTally("child", 7, d, uint64(d)*31+uint64(workers))
			accSeq := mergeTestTally("acc", 7, d, 0xfeed)
			accPar := cloneTally(accSeq)
			mergeIntoRef(src, accSeq)
			if err := tallyFrame(t, src).mergeInto(accPar, workers); err != nil {
				t.Fatalf("d=%d workers=%d: CountFrame.mergeInto: %v", d, workers, err)
			}
			if !reflect.DeepEqual(accSeq, accPar) {
				t.Fatalf("d=%d workers=%d: parallel merge diverged from sequential", d, workers)
			}
		}
	}
}

// TestMergeParallelRepeatedFolds stacks several parallel folds into one
// accumulator — the merge-on-arrival usage — against a single-pass
// sequential union.
func TestMergeParallelRepeatedFolds(t *testing.T) {
	const d, nodes = 1<<16 + 5, 6
	accSeq := mergeTestTally("acc", 3, d, 1)
	accPar := cloneTally(accSeq)
	for i := 0; i < nodes; i++ {
		src := mergeTestTally(fmt.Sprintf("node-%d", i), 3, d, uint64(100+i))
		mergeIntoRef(src, accSeq)
		if err := tallyFrame(t, src).mergeInto(accPar, 4); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(accSeq, accPar) {
		t.Fatal("stacked parallel folds diverged from sequential")
	}
}

// TestMergeIntoRejects pins the frame fold's shape checks: it folds
// only into a non-nil tally of the frame's domain and epoch, whatever
// the worker count.
func TestMergeIntoRejects(t *testing.T) {
	frame := tallyFrame(t, mergeTestTally("child", 2, 16, 9))
	if err := frame.MergeInto(nil); err == nil {
		t.Fatal("CountFrame.MergeInto(nil) accepted")
	}
	wrongDomain := mergeTestTally("acc", 2, 32, 9)
	if err := frame.MergeInto(wrongDomain); err == nil {
		t.Fatal("domain mismatch accepted")
	}
	if err := frame.mergeInto(wrongDomain, 4); err == nil {
		t.Fatal("parallel domain mismatch accepted")
	}
	wrongEpoch := mergeTestTally("acc", 3, 16, 9)
	if err := frame.MergeInto(wrongEpoch); err == nil {
		t.Fatal("epoch mismatch accepted")
	}
	if err := frame.mergeInto(wrongEpoch, 4); err == nil {
		t.Fatal("parallel epoch mismatch accepted")
	}
	if err := frame.MergeInto(mergeTestTally("acc", 2, 16, 10)); err != nil {
		t.Fatalf("well-shaped fold refused: %v", err)
	}
}

// TestShardedMutations pins the O(1) dirty check the sealed-counts
// hand-off relies on: the generation advances on every mutation kind
// and holds still across reads.
func TestShardedMutations(t *testing.T) {
	sa, err := NewShardedAccumulator(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	g0 := sa.Mutations()
	if err := sa.AddCounts([]int64{1, 0, 0, 0, 0, 0, 0, 1}, 2); err != nil {
		t.Fatal(err)
	}
	g1 := sa.Mutations()
	if g1 == g0 {
		t.Fatal("AddCounts did not advance the mutation generation")
	}
	_ = sa.Counts()
	_ = sa.Total()
	if sa.Mutations() != g1 {
		t.Fatal("reads advanced the mutation generation")
	}
	sa.SealEpoch()
	g2 := sa.Mutations()
	if g2 == g1 {
		t.Fatal("SealEpoch did not advance the mutation generation")
	}
	sa.Reset()
	if sa.Mutations() == g2 {
		t.Fatal("Reset did not advance the mutation generation")
	}
}

// BenchmarkMergeParallel compares the two per-tally accept costs the
// merge-on-arrival refactor trades between, at the domain sizes the
// bench-merge gate tracks:
//
//   - sequential: the pre-refactor accept path — a defensive clone
//     retained at accept plus the sequential seal-time fold, the O(2d)
//     copy+add every accepted tally used to pay;
//   - parallel: CountFrame.MergeInto folding the arriving tally's
//     validated frame straight into the epoch accumulator, as the root
//     does — one pass over the wire bytes, no retained clone, chunked
//     across cores when GOMAXPROCS allows.
//
// On a single-core host the ≥2x win is the eliminated clone and second
// pass; with more cores the chunk-parallel fold stacks on top.
func BenchmarkMergeParallel(b *testing.B) {
	for _, d := range []int{1 << 12, 1 << 16, 1 << 20} {
		src := mergeTestTally("child", 0, d, 0xabcd)
		frame := tallyFrame(b, src)
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			b.Run("sequential", func(b *testing.B) {
				acc := mergeTestTally("acc", 0, d, 0)
				b.SetBytes(int64(8 * d))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					retained := cloneTally(src)
					mergeIntoRef(retained, acc)
				}
			})
			b.Run("parallel", func(b *testing.B) {
				acc := mergeTestTally("acc", 0, d, 0)
				b.SetBytes(int64(8 * d))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := frame.MergeInto(acc); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
