package stream

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
)

// TestSealCountsMatchesAddCountsSeal pins the O(1) hand-off's contract:
// sealing a pre-merged vector through SealCounts produces exactly the
// epochs and estimates of folding it through the live accumulator and
// sealing — including when the live epoch is dirty and must be folded
// in on top.
func TestSealCountsMatchesAddCountsSeal(t *testing.T) {
	const d = 64
	cfg := mergerConfig(d)
	ref, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hand, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(0x5ea1)
	for e := 0; e < 6; e++ {
		counts := make([]int64, d)
		var total int64
		for v := range counts {
			counts[v] = int64(r.Uint64() % 300)
			total += counts[v]
		}
		var live []int64
		var liveTotal int64
		if e%2 == 1 {
			// Odd epochs also carry direct live ingest, so the hand-off
			// must detect the dirty live accumulator and fold it in.
			live = make([]int64, d)
			for v := range live {
				live[v] = int64(r.Uint64() % 50)
				liveTotal += live[v]
			}
			if err := ref.AddCounts(live, liveTotal); err != nil {
				t.Fatal(err)
			}
			if err := hand.AddCounts(live, liveTotal); err != nil {
				t.Fatal(err)
			}
		}
		if err := ref.AddCounts(counts, total); err != nil {
			t.Fatal(err)
		}
		refEst, err := ref.Seal()
		if err != nil {
			t.Fatal(err)
		}
		handEst, err := hand.SealCounts(append([]int64(nil), counts...), total)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(refEst, handEst) {
			t.Fatalf("epoch %d: SealCounts estimate diverged from AddCounts+Seal", e)
		}
	}
	if !reflect.DeepEqual(ref.Epochs(), hand.Epochs()) {
		t.Fatal("retained epochs diverged between SealCounts and AddCounts+Seal")
	}
}

// TestSealCountsRejects pins the hand-off's validation surface.
func TestSealCountsRejects(t *testing.T) {
	m, err := NewEpochManager(mergerConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SealCounts(make([]int64, 8), 0); err == nil {
		t.Fatal("domain mismatch accepted")
	}
	if _, err := m.SealCounts(make([]int64, 16), -1); err == nil {
		t.Fatal("negative total accepted")
	}
}

// TestMergeSealedAcceptAllocFree is the allocation regression test for
// the accept path: after an epoch's first tally has set up the
// accumulator and the pre-sized accounting map, accepting further
// tallies — the steady state under high fan-in — allocates nothing.
// The old path retained per-node state per tally; merge-on-arrival
// folds and forgets.
func TestMergeSealedAcceptAllocFree(t *testing.T) {
	const d, members, runs = 64, 80, 64
	nodes := make([]string, members)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("fe-%02d", i)
	}
	mgr, err := NewEpochManager(mergerConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewSealedMerger(mgr, nodes)
	if err != nil {
		t.Fatal(err)
	}
	tallies := make([]*ldp.Tally, members)
	for i, n := range nodes {
		tallies[i] = nodeTally(n, 0, d, uint64(i), 0)
	}
	next := 0
	avg := testing.AllocsPerRun(runs, func() {
		// One fresh (node, epoch-0) accept per run; the warm-up call
		// pays the epoch's setup. The barrier never completes (members
		// > runs+1), so every call exercises the steady accept path.
		if _, err := sm.MergeSealed(tallies[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if avg != 0 {
		t.Fatalf("accept path allocates %.1f objects per tally, want 0", avg)
	}
}

// TestMergedEpochNodeTotals pins the accounting that replaces retained
// tallies: each sealed epoch records every merged node's report total,
// and the published copy cannot alias the merger's state.
func TestMergedEpochNodeTotals(t *testing.T) {
	const d = 32
	mgr, err := NewEpochManager(mergerConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewSealedMerger(mgr, []string{"fe-0", "fe-1"})
	if err != nil {
		t.Fatal(err)
	}
	a := nodeTally("fe-0", 0, d, 1, 0)
	b := nodeTally("fe-1", 0, d, 2, 0)
	for _, tl := range []*ldp.Tally{a, b} {
		if _, err := sm.MergeSealed(tl); err != nil {
			t.Fatal(err)
		}
	}
	_, info, err := sm.TrySeal()
	if err != nil {
		t.Fatal(err)
	}
	if info == nil {
		t.Fatal("complete barrier did not seal")
	}
	want := map[string]int64{"fe-0": a.Total, "fe-1": b.Total}
	if !reflect.DeepEqual(info.NodeTotals, want) {
		t.Fatalf("NodeTotals = %v, want %v", info.NodeTotals, want)
	}
	if info.Total != a.Total+b.Total {
		t.Fatalf("Total = %d, want %d", info.Total, a.Total+b.Total)
	}
	info.NodeTotals["fe-0"] = -1
	if got := sm.Merged(); got[len(got)-1].NodeTotals["fe-0"] != a.Total {
		t.Fatal("published NodeTotals aliases the merger's retained accounting")
	}
}

// BenchmarkRootSealLatency measures the cost of sealing a complete
// barrier as fan-in grows. Every node count splits the same fixed
// union aggregate, so each seal merges and estimates identical bits —
// what varies is only how many tallies delivered them. With
// merge-on-arrival the per-tally fold is paid at accept time and the
// seal is an O(1) vector hand-off plus the node-count-independent
// window/estimate work, so the latency should stay flat from 4 to 64
// children — the property that lets one root (or any interior merger)
// take arbitrary fan-in without stretching the epoch clock.
func BenchmarkRootSealLatency(b *testing.B) {
	const d = 1 << 16
	union := nodeTally("union", 0, d, 0xca11, 0)
	for _, nodes := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			ids := make([]string, nodes)
			for i := range ids {
				ids[i] = fmt.Sprintf("fe-%02d", i)
			}
			cfg := Config{Params: mergeTestParams(d), Window: 2, History: 4, TargetK: -1}
			mgr, err := NewEpochManager(cfg)
			if err != nil {
				b.Fatal(err)
			}
			sm, err := NewSealedMerger(mgr, ids)
			if err != nil {
				b.Fatal(err)
			}
			// The parts sum back to the union exactly, whatever the
			// fan-in.
			tallies := dealTallies(union.Counts, union.Total, 0, ids)
			b.SetBytes(int64(8 * d))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				epoch := sm.SealedThrough()
				for _, tl := range tallies {
					tl.Epoch = epoch
					if _, err := sm.MergeSealed(tl); err != nil {
						b.Fatal(err)
					}
				}
				// Pay the previous estimate's GC debt outside the timed
				// section: the seal is measured, the collector's schedule
				// is not.
				runtime.GC()
				b.StartTimer()
				est, info, err := sm.TrySeal()
				if err != nil {
					b.Fatal(err)
				}
				if est == nil || info == nil {
					b.Fatal("complete barrier did not seal")
				}
			}
		})
	}
}
