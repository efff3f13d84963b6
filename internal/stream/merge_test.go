package stream

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ldprecover/internal/attack"
	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
)

// mergeTestParams returns OUE-shaped aggregation parameters for tests.
func mergeTestParams(d int) ldp.Params {
	return ldp.Params{Epsilon: 0.7, P: 0.5, Q: 1.0 / (1.0 + 2.0), Domain: d}
}

// nodeTally builds node's deterministic tally for one epoch; spike adds
// extra mass on a fixed target set (a poisoning epoch).
func nodeTally(node string, epoch, d int, seed uint64, spike int64) *ldp.Tally {
	r := rng.New(seed ^ uint64(epoch)*0x9e3779b97f4a7c15)
	t := &ldp.Tally{NodeID: node, Epoch: epoch, Counts: make([]int64, d)}
	for v := range t.Counts {
		t.Counts[v] = int64(r.Uint64() % 500)
	}
	t.Counts[3] += spike
	t.Counts[11] += spike
	// A tally's total is the reports behind it, not the support sum; for
	// unary-style protocols supports exceed reports. Any consistent
	// choice works for the equivalence property.
	t.Total = 1000 + int64(r.Uint64()%100) + spike/2
	return t
}

// mergeTally submits t to sm the way the root's tally endpoint does:
// marshal, validate the frame, merge the view. It returns every error
// rather than failing the test, so refusals stay observable.
func mergeTally(sm *SealedMerger, t *ldp.Tally) (SubmitResult, error) {
	frame, err := ldp.MarshalTally(t)
	if err != nil {
		return SubmitResult{}, err
	}
	f, err := ldp.ValidateTallyFrame(frame)
	if err != nil {
		return SubmitResult{}, err
	}
	return sm.MergeFrame(f)
}

// addTally folds t into union by plain int64 addition: the single-node
// aggregate a merger's output is compared against.
func addTally(union, t *ldp.Tally) {
	for v, c := range t.Counts {
		union.Counts[v] += c
	}
	union.Total += t.Total
}

func mergerConfig(d int) Config {
	return Config{
		Params:      mergeTestParams(d),
		Window:      2,
		History:     8,
		TargetK:     2,
		MinZ:        2,
		StableAfter: 2,
		MinHistory:  2,
	}
}

// TestSealedMergerBitIdenticalToSingleNode is the stream-level half of
// the cluster guarantee: a merger fed per-node tallies of a partitioned
// population produces, epoch for epoch, exactly the estimates of a
// single manager fed the union — including the recovered history, the
// target-tracker hysteresis, and the LDPRecover* upgrade it drives.
func TestSealedMergerBitIdenticalToSingleNode(t *testing.T) {
	const d, epochs = 32, 10
	nodes := []string{"fe-0", "fe-1", "fe-2"}

	single, err := NewEpochManager(mergerConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	rootMgr, err := NewEpochManager(mergerConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	merger, err := NewSealedMerger(rootMgr, nodes)
	if err != nil {
		t.Fatal(err)
	}

	for e := 0; e < epochs; e++ {
		var spike int64
		if e >= 5 {
			spike = 4000 // sustained targeted attack from epoch 5 on
		}
		union := &ldp.Tally{NodeID: "union", Epoch: e, Counts: make([]int64, d)}
		for i, n := range nodes {
			tally := nodeTally(n, e, d, uint64(i+1)*7919, spike)
			addTally(union, tally)
			res, err := mergeTally(merger, tally)
			if err != nil {
				t.Fatal(err)
			}
			if res.Duplicate {
				t.Fatalf("epoch %d node %s flagged duplicate", e, n)
			}
			if ready := i == len(nodes)-1; res.Ready != ready {
				t.Fatalf("epoch %d after node %s: ready=%v want %v", e, n, res.Ready, ready)
			}
		}
		if err := single.AddCounts(union.Counts, union.Total); err != nil {
			t.Fatal(err)
		}
		want, err := single.Seal()
		if err != nil {
			t.Fatal(err)
		}
		got, info, err := merger.TrySeal()
		if err != nil {
			t.Fatal(err)
		}
		if got == nil {
			t.Fatalf("epoch %d: barrier complete but TrySeal returned nothing", e)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: merged estimate diverged from single node\ngot  %+v\nwant %+v", e, got, want)
		}
		if len(info.Missing) != 0 || len(info.Nodes) != len(nodes) || info.Epoch != e {
			t.Fatalf("epoch %d accounting: %+v", e, info)
		}
	}
	// The attack must have engaged LDPRecover* on both sides (otherwise
	// the equivalence above never exercised the hysteresis path).
	if latest := single.Latest(); !latest.PartialKnowledge {
		t.Fatal("scenario never engaged LDPRecover*; equivalence check is vacuous")
	}
	if st := merger.SealedThrough(); st != epochs {
		t.Fatalf("sealed through %d epochs, want %d", st, epochs)
	}
}

// dealTallies partitions a union aggregate across the nodes ids as if
// the reporting users were dealt round-robin: node j takes count/k per
// item plus one of the first count%k remainders, and the report total
// splits the same way. The tallies sum back to the union exactly.
func dealTallies(counts []int64, total int64, epoch int, ids []string) []*ldp.Tally {
	k := int64(len(ids))
	tallies := make([]*ldp.Tally, len(ids))
	for j, id := range ids {
		tallies[j] = &ldp.Tally{NodeID: id, Epoch: epoch, Counts: make([]int64, len(counts)), Total: total / k}
		if int64(j) < total%k {
			tallies[j].Total++
		}
	}
	for v, c := range counts {
		for j, tl := range tallies {
			tl.Counts[v] = c / k
			if int64(j) < c%k {
				tl.Counts[v]++
			}
		}
	}
	return tallies
}

// TestSealedMergerTreeBitIdenticalToSingleNode: a root SealedMerger fed
// the sealed epochs of interior SealedMergers — balanced, skewed and
// single-child two-level trees — produces, epoch for epoch, exactly the
// estimates of one manager fed the union, over a stream whose MGA
// attack ramps up mid-way and engages LDPRecover*. Each interior merger
// runs its own manager with detection off, as a -role=merger server
// does, and pushes every sealed epoch upward as one tally.
func TestSealedMergerTreeBitIdenticalToSingleNode(t *testing.T) {
	const d, epochs, attackAt = 48, 10, 5
	proto, err := ldp.NewOUE(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Params: proto.Params(), Window: 1, History: epochs, TargetK: 2, StableAfter: 2, MinHistory: 2}
	mga, err := attack.NewMGA([]int{7, 30})
	if err != nil {
		t.Fatal(err)
	}
	trueCounts := make([]int64, d)
	var n int64
	for v := range trueCounts {
		trueCounts[v] = int64(300 + 40*(v%7))
		n += trueCounts[v]
	}
	// The union stream, simulated once: every shape and the single
	// manager consume the same aggregates.
	r := rng.New(99)
	unions := make([][]int64, epochs)
	totals := make([]int64, epochs)
	for e := range unions {
		if unions[e], err = proto.SimulateGenuineCounts(r, trueCounts); err != nil {
			t.Fatal(err)
		}
		totals[e] = n
		if e >= attackAt {
			m := n * int64(min(e-attackAt+1, 3)) / 30 // ramp to 10% over three epochs
			mal, err := mga.CraftCounts(r, proto, m)
			if err != nil {
				t.Fatal(err)
			}
			for v, c := range mal {
				unions[e][v] += c
			}
			totals[e] += m
		}
	}
	single, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []*WindowEstimate
	for e := range unions {
		if err := single.AddCounts(unions[e], totals[e]); err != nil {
			t.Fatal(err)
		}
		est, err := single.Seal()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, est)
	}
	if !single.Latest().PartialKnowledge {
		t.Fatal("scenario never engaged LDPRecover*; the equivalence check is vacuous")
	}

	for _, shape := range [][]int{{3, 3}, {1, 4, 2}, {1}} {
		t.Run(fmt.Sprint(shape), func(t *testing.T) {
			type interior struct {
				sm     *SealedMerger
				leaves []string
			}
			var (
				mids   []interior
				midIDs []string
				leaves []string
			)
			for i, k := range shape {
				sub, err := NewEpochManager(Config{Params: proto.Params(), Window: 1, History: 1, TargetK: -1})
				if err != nil {
					t.Fatal(err)
				}
				var ids []string
				for range k {
					ids = append(ids, fmt.Sprintf("fe-%d", len(leaves)))
					leaves = append(leaves, ids[len(ids)-1])
				}
				sm, err := NewSealedMerger(sub, ids)
				if err != nil {
					t.Fatal(err)
				}
				mids = append(mids, interior{sm, ids})
				midIDs = append(midIDs, fmt.Sprintf("m-%d", i))
			}
			rootMgr, err := NewEpochManager(cfg)
			if err != nil {
				t.Fatal(err)
			}
			root, err := NewSealedMerger(rootMgr, midIDs)
			if err != nil {
				t.Fatal(err)
			}
			for e := range unions {
				parts := dealTallies(unions[e], totals[e], e, leaves)
				for i, mid := range mids {
					for range mid.leaves {
						if _, err := mergeTally(mid.sm, parts[0]); err != nil {
							t.Fatal(err)
						}
						parts = parts[1:]
					}
					if est, info, err := mid.sm.TrySeal(); err != nil || est == nil || len(info.Missing) != 0 {
						t.Fatalf("epoch %d: merger %s barrier incomplete: est=%v info=%+v err=%v", e, midIDs[i], est, info, err)
					}
					ring := mid.sm.Manager().Epochs()
					sealed := ring[len(ring)-1]
					if _, err := mergeTally(root, &ldp.Tally{
						NodeID: midIDs[i], Epoch: sealed.Seq, Counts: sealed.Counts, Total: sealed.Total,
					}); err != nil {
						t.Fatal(err)
					}
				}
				got, info, err := root.TrySeal()
				if err != nil || got == nil || len(info.Missing) != 0 {
					t.Fatalf("epoch %d: root barrier incomplete: est=%v info=%+v err=%v", e, got, info, err)
				}
				if !reflect.DeepEqual(got, want[e]) {
					t.Fatalf("epoch %d: tree estimate diverged from single node\ngot  %+v\nwant %+v", e, got, want[e])
				}
			}
		})
	}
}

// TestSealedMergerStragglerAccounting: a seal forced past a straggler
// reports exactly which nodes merged and which were missing, and the
// straggler's late tally for the sealed epoch dedupes to a no-op.
func TestSealedMergerStragglerAccounting(t *testing.T) {
	const d = 16
	mgr, err := NewEpochManager(mergerConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	merger, err := NewSealedMerger(mgr, []string{"fe-0", "fe-1", "fe-2"})
	if err != nil {
		t.Fatal(err)
	}
	t0 := nodeTally("fe-0", 0, d, 1, 0)
	t2 := nodeTally("fe-2", 0, d, 3, 0)
	for _, tally := range []*ldp.Tally{t0, t2} {
		if res, err := mergeTally(merger, tally); err != nil || res.Duplicate || res.Ready {
			t.Fatalf("submit %s: res=%+v err=%v", tally.NodeID, res, err)
		}
	}
	if est, info, err := merger.TrySeal(); est != nil || info != nil || err != nil {
		t.Fatalf("TrySeal with an open barrier: est=%v info=%v err=%v", est, info, err)
	}
	// fe-1 timed out: force the seal.
	est, info, err := merger.SealPartial()
	if err != nil {
		t.Fatal(err)
	}
	if est.Total != t0.Total+t2.Total {
		t.Fatalf("partial seal total %d, want %d", est.Total, t0.Total+t2.Total)
	}
	if !reflect.DeepEqual(info.Nodes, []string{"fe-0", "fe-2"}) {
		t.Fatalf("merged nodes %v", info.Nodes)
	}
	if !reflect.DeepEqual(info.Missing, []string{"fe-1"}) {
		t.Fatalf("missing nodes %v", info.Missing)
	}
	// The straggler arrives late: deduped, nothing changes.
	late := nodeTally("fe-1", 0, d, 2, 0)
	res, err := mergeTally(merger, late)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Duplicate || res.SealedThrough != 1 {
		t.Fatalf("late tally: %+v", res)
	}
	if got := mgr.Stats().IngestedTotal; got != t0.Total+t2.Total {
		t.Fatalf("late tally changed the merged state: total %d", got)
	}
	merged := merger.Merged()
	if len(merged) != 1 || merged[0].Duplicates != 1 {
		t.Fatalf("accounting after late tally: %+v", merged)
	}
	// An empty forced seal (no tallies at all) is a legal quiet epoch.
	est, info, err = merger.SealPartial()
	if err != nil {
		t.Fatal(err)
	}
	if est.Total != t0.Total+t2.Total { // window of 2 still holds epoch 0
		t.Fatalf("empty seal window total %d", est.Total)
	}
	if len(info.Nodes) != 0 || len(info.Missing) != 3 {
		t.Fatalf("empty seal accounting: %+v", info)
	}
}

// TestSealedMergerOutOfOrderEpochs: on a root with established state,
// tallies for future epochs wait at the barrier; sealing cascades once
// the gap fills. (A *virgin* root instead adopts the first tally's
// epoch as its barrier base — TestSealedMergerAdoptsRunningClock.)
func TestSealedMergerOutOfOrderEpochs(t *testing.T) {
	const d = 16
	mgr, err := NewEpochManager(mergerConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	merger, err := NewSealedMerger(mgr, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	// Establish the clock: epoch 0 merges and seals normally.
	for _, tally := range []*ldp.Tally{nodeTally("a", 0, d, 8, 0), nodeTally("b", 0, d, 9, 0)} {
		if _, err := mergeTally(merger, tally); err != nil {
			t.Fatal(err)
		}
	}
	if est, _, err := merger.TrySeal(); err != nil || est == nil {
		t.Fatalf("sealing epoch 0: est=%v err=%v", est, err)
	}
	// Both nodes' epoch-2 tallies arrive before epoch 1 is complete.
	for _, tally := range []*ldp.Tally{
		nodeTally("a", 2, d, 10, 0), nodeTally("b", 2, d, 11, 0), nodeTally("a", 1, d, 12, 0),
	} {
		res, err := mergeTally(merger, tally)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ready {
			t.Fatalf("barrier for epoch 1 reported ready after %s/%d", tally.NodeID, tally.Epoch)
		}
	}
	res, err := mergeTally(merger, nodeTally("b", 1, d, 13, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ready {
		t.Fatal("epoch 1 barrier did not complete")
	}
	for want := 1; want < 3; want++ {
		est, info, err := merger.TrySeal()
		if err != nil {
			t.Fatal(err)
		}
		if est == nil || info.Epoch != want || len(info.Missing) != 0 {
			t.Fatalf("cascade seal %d: est=%v info=%+v", want, est, info)
		}
	}
	if est, info, err := merger.TrySeal(); est != nil || info != nil || err != nil {
		t.Fatalf("seal past the cascade: %v %v %v", est, info, err)
	}
	// A tally absurdly far ahead is rejected, naming the barrier.
	if _, err := mergeTally(merger, nodeTally("a", 3+maxEpochLead, d, 14, 0)); err == nil {
		t.Fatal("far-future tally accepted")
	}
}

// TestSealedMergerRejects covers the error paths: unknown node, domain
// mismatch, bad configs. Malformed frames are refused before they reach
// a merger (TestTallyFrameRejectionsLeaveMergerUntouched).
func TestSealedMergerRejects(t *testing.T) {
	const d = 16
	mgr, err := NewEpochManager(mergerConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	merger, err := NewSealedMerger(mgr, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mergeTally(merger, nodeTally("rogue", 0, d, 1, 0)); err == nil {
		t.Fatal("unknown node accepted")
	}
	if _, err := mergeTally(merger, nodeTally("a", 0, d+1, 1, 0)); err == nil {
		t.Fatal("domain mismatch accepted")
	}
	if _, err := NewSealedMerger(mgr, nil); err == nil {
		t.Fatal("empty node set accepted")
	}
	if _, err := NewSealedMerger(mgr, []string{"a", "a"}); err == nil {
		t.Fatal("duplicate node ids accepted")
	}
	if _, err := NewSealedMerger(mgr, []string{""}); err == nil {
		t.Fatal("empty node id accepted")
	}
	if _, err := NewSealedMerger(nil, []string{"a"}); err == nil {
		t.Fatal("nil manager accepted")
	}
}

// TestSealedMergerDuplicateIdempotenceRace hammers the merger with the
// same tallies from many goroutines: exactly one submission per (node,
// epoch) may merge, everything else must dedupe, and the merged state
// must equal a clean single submission — run under -race in CI.
func TestSealedMergerDuplicateIdempotenceRace(t *testing.T) {
	const d, workers, resends = 16, 8, 10
	nodes := []string{"fe-0", "fe-1", "fe-2"}
	mgr, err := NewEpochManager(mergerConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	merger, err := NewSealedMerger(mgr, nodes)
	if err != nil {
		t.Fatal(err)
	}
	tallies := make([]*ldp.Tally, len(nodes))
	var wantTotal int64
	for i, n := range nodes {
		tallies[i] = nodeTally(n, 0, d, uint64(i+1), 0)
		wantTotal += tallies[i].Total
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	mergedCount := make(map[string]int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < resends; r++ {
				for _, tally := range tallies {
					res, err := mergeTally(merger, tally)
					if err != nil {
						t.Error(err)
						return
					}
					if !res.Duplicate {
						mu.Lock()
						mergedCount[tally.NodeID]++
						mu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	for n, c := range mergedCount {
		if c != 1 {
			t.Fatalf("node %s merged %d times", n, c)
		}
	}
	est, info, err := merger.TrySeal()
	if err != nil {
		t.Fatal(err)
	}
	if est == nil || est.Total != wantTotal {
		t.Fatalf("merged total %+v, want %d", est, wantTotal)
	}
	if len(info.Missing) != 0 {
		t.Fatalf("missing nodes after full dedupe: %v", info.Missing)
	}
	if dupes := merger.Duplicates(); dupes != int64(workers*resends*len(nodes)-len(nodes)) {
		t.Fatalf("dedupe count %d, want %d", dupes, workers*resends*len(nodes)-len(nodes))
	}
}

// BenchmarkRootMerge measures one merged epoch at the root — submitting
// every frontend's tally and sealing through the barrier. The cost is
// independent of how many users reported (tallies are fixed-size count
// vectors) and scales only with d × nodes, which is what makes the
// two-tier design absorb arbitrarily large populations. Each tally
// starts from its marshaled frame, as /v1/tally does: frames are built
// outside the timed region, and the timed region takes them from bytes
// to merged counts the way the handler does.
func BenchmarkRootMerge(b *testing.B) {
	for _, d := range []int{128, 4096} {
		for _, nNodes := range []int{3, 9} {
			b.Run(fmt.Sprintf("wire/d=%d/nodes=%d", d, nNodes), func(b *testing.B) {
				nodes := make([]string, nNodes)
				for i := range nodes {
					nodes[i] = fmt.Sprintf("fe-%d", i)
				}
				mgr, err := NewEpochManager(Config{
					Params: mergeTestParams(d), Window: 1, History: 4, TargetK: -1,
				})
				if err != nil {
					b.Fatal(err)
				}
				merger, err := NewSealedMerger(mgr, nodes)
				if err != nil {
					b.Fatal(err)
				}
				proto := make([]*ldp.Tally, nNodes)
				for i, n := range nodes {
					// A billion-user tally costs the same as a thousand-user
					// one: the wire and merge units are counts, not reports.
					proto[i] = nodeTally(n, 0, d, uint64(i+1), 0)
					proto[i].Total += 1 << 30
				}
				frames := make([][]byte, nNodes)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					for j, p := range proto {
						frames[j], err = ldp.MarshalTally(&ldp.Tally{NodeID: p.NodeID, Epoch: i, Counts: p.Counts, Total: p.Total})
						if err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
					for _, frame := range frames {
						f, err := ldp.ValidateTallyFrame(frame)
						if err != nil {
							b.Fatal(err)
						}
						if _, err := merger.MergeFrame(f); err != nil {
							b.Fatal(err)
						}
					}
					if est, _, err := merger.TrySeal(); err != nil || est == nil {
						b.Fatalf("seal %d: est=%v err=%v", i, est, err)
					}
				}
			})
		}
	}
}

// TestSealedMergerAdoptsRunningClock: a virgin root (state lost, or
// in-memory restart) joining a cluster whose epoch clock is already
// running adopts the first tally's epoch as its barrier base instead of
// grinding or rejecting its way through every skipped epoch — and a
// non-virgin root still rejects absurd epoch leads.
func TestSealedMergerAdoptsRunningClock(t *testing.T) {
	const d = 16
	mgr, err := NewEpochManager(mergerConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	merger, err := NewSealedMerger(mgr, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	// The cluster has been sealing for a long time; a's oldest retained
	// tally is epoch 5000 (past maxEpochLead from base 0).
	res, err := mergeTally(merger, nodeTally("a", 5000, d, 1, 0))
	if err != nil {
		t.Fatalf("virgin root rejected the running clock: %v", err)
	}
	if res.Duplicate || res.SealedThrough != 5000 {
		t.Fatalf("adoption result: %+v", res)
	}
	if res, err = mergeTally(merger, nodeTally("b", 5000, d, 2, 0)); err != nil || !res.Ready {
		t.Fatalf("barrier after adoption: res=%+v err=%v", res, err)
	}
	est, info, err := merger.TrySeal()
	if err != nil || est == nil || info.Epoch != 5000 || len(info.Missing) != 0 {
		t.Fatalf("seal at adopted base: est=%v info=%+v err=%v", est, info, err)
	}
	// An older tally from b that the lost state could have merged is
	// stale now — deduped, not an error.
	if res, err = mergeTally(merger, nodeTally("b", 4999, d, 3, 0)); err != nil || !res.Duplicate {
		t.Fatalf("pre-adoption tally: res=%+v err=%v", res, err)
	}
	// The barrier has state now: a fresh absurd lead is still an error.
	if _, err := mergeTally(merger, nodeTally("a", 5001+maxEpochLead, d, 4, 0)); err == nil {
		t.Fatal("non-virgin root accepted an absurd epoch lead")
	}
}
