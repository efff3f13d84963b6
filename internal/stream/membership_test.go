package stream

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
)

// TestSealedMergerJoinLeaveBoundaries pins the boundary rules: a join
// lands on the current barrier epoch only while that barrier is empty,
// otherwise on the next one; a leave clamps forward past the barrier
// and past anything the node already delivered; both are idempotent;
// the last member cannot leave; strangers cannot leave.
func TestSealedMergerJoinLeaveBoundaries(t *testing.T) {
	const d = 16
	mgr, err := NewEpochManager(mergerConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	merger, err := NewSealedMerger(mgr, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}

	// Quiet barrier: a join is effective immediately.
	if eff, err := merger.Join("c"); err != nil || eff != 0 {
		t.Fatalf("join on empty barrier: eff=%d err=%v", eff, err)
	}
	if got := merger.Nodes(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("members after join: %v", got)
	}
	// Re-announcing is idempotent.
	if eff, err := merger.Join("c"); err != nil || eff != 0 {
		t.Fatalf("repeated join: eff=%d err=%v", eff, err)
	}

	// The barrier starts filling: a new join waits for the boundary.
	if _, err := mergeTally(merger, nodeTally("a", 0, d, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if eff, err := merger.Join("late"); err != nil || eff != 1 {
		t.Fatalf("mid-barrier join: eff=%d err=%v", eff, err)
	}
	if got := merger.Nodes(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("mid-barrier join mutated the current barrier: %v", got)
	}
	// ...and its tally for the barrier epoch is rejected: not a member yet.
	if _, err := mergeTally(merger, nodeTally("late", 0, d, 2, 0)); err == nil {
		t.Fatal("pre-membership tally accepted")
	}
	// But its tally for the effective epoch waits at the barrier fine.
	if res, err := mergeTally(merger, nodeTally("late", 1, d, 3, 0)); err != nil || res.Ready {
		t.Fatalf("tally for join epoch: res=%+v err=%v", res, err)
	}

	// A leave while the node's tally is pending clamps past the delivery:
	// a has delivered epoch 0, so leaving "from 0" still seals epoch 0
	// with a's data.
	eff, ready, err := merger.Leave("a", 0)
	if err != nil || eff != 1 || ready {
		t.Fatalf("leave with pending delivery: eff=%d ready=%v err=%v", eff, ready, err)
	}
	// Repeating the leave is idempotent.
	if eff, _, err := merger.Leave("a", 0); err != nil || eff != 1 {
		t.Fatalf("repeated leave: eff=%d err=%v", eff, err)
	}
	// A stranger cannot leave.
	if _, _, err := merger.Leave("ghost", 0); err == nil {
		t.Fatal("stranger leave accepted")
	}

	// Close the barrier: b and c complete epoch 0 (a already delivered).
	for _, n := range []string{"b", "c"} {
		if _, err := mergeTally(merger, nodeTally(n, 0, d, 4, 0)); err != nil {
			t.Fatal(err)
		}
	}
	est, info, err := merger.TrySeal()
	if err != nil || est == nil {
		t.Fatalf("sealing epoch 0: est=%v err=%v", est, err)
	}
	if !reflect.DeepEqual(info.Nodes, []string{"a", "b", "c"}) || len(info.Missing) != 0 {
		t.Fatalf("departing node's final epoch accounting: %+v", info)
	}
	// The boundary passed: a is out, late is in.
	if got := merger.Nodes(); !reflect.DeepEqual(got, []string{"b", "c", "late"}) {
		t.Fatalf("members after boundary: %v", got)
	}
	// a's re-sent epoch-0 tally (at-least-once tail) dedupes harmlessly...
	if res, err := mergeTally(merger, nodeTally("a", 0, d, 1, 0)); err != nil || !res.Duplicate {
		t.Fatalf("ex-member re-send: res=%+v err=%v", res, err)
	}
	// ...but a fresh tally from the ex-member is rejected.
	if _, err := mergeTally(merger, nodeTally("a", 1, d, 5, 0)); err == nil {
		t.Fatal("post-departure tally accepted")
	}

	// The last members cannot all leave.
	if _, _, err := merger.Leave("b", 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := merger.Leave("c", 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := merger.Leave("late", 1); err == nil {
		t.Fatal("removed the last cluster member")
	}

	// A scheduled join cancelled by a leave never becomes a member.
	if _, err := mergeTally(merger, nodeTally("late", 1, d, 6, 0)); err != nil {
		t.Fatal(err)
	}
	if eff, err := merger.Join("flaky"); err != nil || eff != 2 {
		t.Fatalf("scheduling flaky: eff=%d err=%v", eff, err)
	}
	if _, _, err := merger.Leave("flaky", 0); err != nil {
		t.Fatalf("cancelling a scheduled join: %v", err)
	}
	if est, _, err := merger.TrySeal(); err != nil || est == nil {
		t.Fatalf("sealing epoch 1: est=%v err=%v", est, err)
	}
	if got := merger.Nodes(); !reflect.DeepEqual(got, []string{"late"}) {
		t.Fatalf("members after cancelled join: %v", got)
	}
}

// TestSealedMergerLeaveCompletesBarrier: when the departing node is the
// one straggler the barrier was waiting for, the leave itself reports
// the barrier ready so the root can seal without a timeout.
func TestSealedMergerLeaveCompletesBarrier(t *testing.T) {
	const d = 16
	mgr, err := NewEpochManager(mergerConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	merger, err := NewSealedMerger(mgr, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	tally := nodeTally("a", 0, d, 1, 0)
	if res, err := mergeTally(merger, tally); err != nil || res.Ready {
		t.Fatalf("submit a: res=%+v err=%v", res, err)
	}
	eff, ready, err := merger.Leave("b", 0)
	if err != nil || eff != 0 || !ready {
		t.Fatalf("leave of the last straggler: eff=%d ready=%v err=%v", eff, ready, err)
	}
	est, info, err := merger.TrySeal()
	if err != nil || est == nil {
		t.Fatalf("seal after leave: est=%v err=%v", est, err)
	}
	if est.Total != tally.Total || !reflect.DeepEqual(info.Nodes, []string{"a"}) || len(info.Missing) != 0 {
		t.Fatalf("accounting after leave-completed barrier: est=%+v info=%+v", est, info)
	}
}

// TestSealedMergerMembershipExportRestore: SnapshotState/SetMembership
// round-trip the member set and the pending schedule, SetMembership
// refuses a mid-barrier rewrite, and a merger rebuilt from the exported
// state behaves identically.
func TestSealedMergerMembershipExportRestore(t *testing.T) {
	const d = 16
	mgr, err := NewEpochManager(mergerConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	merger, err := NewSealedMerger(mgr, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mergeTally(merger, nodeTally("a", 0, d, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if eff, err := merger.Join("c"); err != nil || eff != 1 {
		t.Fatalf("join: eff=%d err=%v", eff, err)
	}
	st := merger.SnapshotState()
	members, sched := st.Members, st.Sched
	if !reflect.DeepEqual(members, []string{"a", "b"}) {
		t.Fatalf("exported members: %v", members)
	}
	if !reflect.DeepEqual(sched, []MemberChange{{Epoch: 1, Node: "c", Join: true}}) {
		t.Fatalf("exported schedule: %+v", sched)
	}
	// Mutating the exports must not reach the merger.
	members[0] = "zz"
	sched[0].Node = "zz"
	if got := merger.Nodes(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("export aliased internal members: %v", got)
	}

	// Restore is refused while tallies are pending.
	if err := merger.SetMembership([]string{"a", "b"}, nil); err == nil {
		t.Fatal("mid-barrier membership restore accepted")
	}

	// A promoted root rebuilds from the exported state and expects the
	// same nodes at the same boundaries.
	st = merger.SnapshotState()
	members, sched = st.Members, st.Sched
	mgr2, err := NewEpochManager(mergerConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewSealedMerger(mgr2, []string{"placeholder"})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.SetMembership(members, sched); err != nil {
		t.Fatal(err)
	}
	if got := restored.Nodes(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("restored members: %v", got)
	}
	// Epoch 0 replays under the old membership, epoch 1 expects c too.
	for _, n := range []string{"a", "b"} {
		if _, err := mergeTally(restored, nodeTally(n, 0, d, 1, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if est, _, err := restored.TrySeal(); err != nil || est == nil {
		t.Fatalf("restored seal: est=%v err=%v", est, err)
	}
	if got := restored.Nodes(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("restored members after boundary: %v", got)
	}

	// Restore validation: empty final membership and junk entries.
	if err := restored.SetMembership(nil, nil); err == nil {
		t.Fatal("empty membership restore accepted")
	}
	if err := restored.SetMembership([]string{"a"}, []MemberChange{{Epoch: -1, Node: "x", Join: true}}); err == nil {
		t.Fatal("negative schedule epoch accepted")
	}
	if err := restored.SetMembership([]string{"a"}, []MemberChange{{Epoch: 5, Node: "", Join: true}}); err == nil {
		t.Fatal("empty schedule node accepted")
	}
	if err := restored.SetMembership([]string{"a"}, []MemberChange{{Epoch: 0, Node: "a", Join: false}}); err == nil {
		t.Fatal("schedule emptying the barrier membership accepted")
	}
}

// TestSealedMergerAccessorAliasing is the satellite audit mirroring the
// PR 4 tracker-slice fix: every accessor that publishes merge state —
// PendingNodes, Merged, Nodes, Membership, and the MergedEpoch returned
// by seals — hands out copies, so callers mutating them (or membership
// churn mutating the originals) cannot corrupt each other. Run under
// -race in CI.
func TestSealedMergerAccessorAliasing(t *testing.T) {
	const d = 16
	mgr, err := NewEpochManager(mergerConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	merger, err := NewSealedMerger(mgr, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a", "b"} {
		if _, err := mergeTally(merger, nodeTally(n, 0, d, 1, 0)); err != nil {
			t.Fatal(err)
		}
	}

	// PendingNodes: the returned map is the caller's.
	pn := merger.PendingNodes()
	pn["a"] = false
	pn["zz"] = true
	if got := merger.PendingNodes(); !reflect.DeepEqual(got, map[string]bool{"a": true, "b": true, "c": false}) {
		t.Fatalf("PendingNodes aliased caller mutation: %v", got)
	}

	// The seal's returned accounting must not alias retained state.
	_, info, err := merger.SealPartial()
	if err != nil {
		t.Fatal(err)
	}
	info.Nodes[0] = "corrupt"
	info.Missing[0] = "corrupt"
	kept := merger.Merged()
	if !reflect.DeepEqual(kept[0].Nodes, []string{"a", "b"}) || !reflect.DeepEqual(kept[0].Missing, []string{"c"}) {
		t.Fatalf("seal result aliased retained accounting: %+v", kept[0])
	}

	// Merged: mutating one snapshot must not leak into the next.
	kept[0].Nodes[0] = "corrupt"
	kept[0].Missing[0] = "corrupt"
	again := merger.Merged()
	if !reflect.DeepEqual(again[0].Nodes, []string{"a", "b"}) || !reflect.DeepEqual(again[0].Missing, []string{"c"}) {
		t.Fatalf("Merged aliased caller mutation: %+v", again[0])
	}

	// Nodes under membership churn: a snapshot taken before a join/leave
	// keeps its value.
	before := merger.Nodes()
	if _, err := merger.Join("d"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := merger.Leave("c", 0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, []string{"a", "b", "c"}) {
		t.Fatalf("Nodes snapshot mutated by membership churn: %v", before)
	}
}

// TestSealedMergerChurnPropertyConvergence is the property-style
// membership test: a cluster under a random schedule of joins, leaves,
// and per-epoch crashes (stragglers force-sealed away) produces, epoch
// for epoch, estimates bit-identical to a single-node manager fed the
// union of exactly the tallies that were delivered. Random re-sends of
// old tallies — including from departed nodes — ride along and must
// dedupe to no-ops. Several seeds, so schedules differ across runs of
// the suite without losing reproducibility.
func TestSealedMergerChurnPropertyConvergence(t *testing.T) {
	for _, seed := range []uint64{1, 2026, 0xfeedbeef} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { churnConvergence(t, seed) })
	}
}

func churnConvergence(t *testing.T, seed uint64) {
	const d, epochs = 32, 40
	pool := []string{"fe-0", "fe-1", "fe-2", "fe-3", "fe-4", "fe-5"}
	r := rng.New(seed)

	single, err := NewEpochManager(mergerConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	rootMgr, err := NewEpochManager(mergerConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	merger, err := NewSealedMerger(rootMgr, pool[:3])
	if err != nil {
		t.Fatal(err)
	}

	active := map[string]bool{"fe-0": true, "fe-1": true, "fe-2": true}
	joinAt := map[string]int{} // scheduled joins: node -> effective epoch
	var delivered []*ldp.Tally

	pick := func(want bool) string {
		var cand []string
		for _, n := range pool {
			if _, scheduled := joinAt[n]; active[n] == want && !scheduled {
				cand = append(cand, n)
			}
		}
		if len(cand) == 0 {
			return ""
		}
		return cand[r.Uint64()%uint64(len(cand))]
	}

	for e := 0; e < epochs; e++ {
		for n, at := range joinAt {
			if at <= e {
				active[n] = true
				delete(joinAt, n)
			}
		}
		// Pre-barrier membership ops: the barrier is empty, so they are
		// effective this epoch.
		if r.Uint64()%4 == 0 {
			if n := pick(false); n != "" {
				eff, err := merger.Join(n)
				if err != nil || eff != e {
					t.Fatalf("epoch %d: join %s eff=%d err=%v", e, n, eff, err)
				}
				active[n] = true
			}
		}
		if r.Uint64()%4 == 0 && len(active) > 1 {
			if n := pick(true); n != "" {
				eff, _, err := merger.Leave(n, e)
				if err != nil || eff != e {
					t.Fatalf("epoch %d: leave %s eff=%d err=%v", e, n, eff, err)
				}
				delete(active, n)
			}
		}
		members := make([]string, 0, len(active))
		for n := range active {
			members = append(members, n)
		}
		sort.Strings(members)
		if got := merger.Nodes(); !reflect.DeepEqual(got, members) {
			t.Fatalf("epoch %d: merger members %v, schedule says %v", e, got, members)
		}

		var spike int64
		if e >= epochs/2 {
			spike = 4000 // engage the LDPRecover* hysteresis path
		}
		union := &ldp.Tally{NodeID: "union", Epoch: e, Counts: make([]int64, d)}
		submitted := 0
		for i, n := range members {
			if r.Uint64()%5 == 0 && submitted < len(members)-1 {
				continue // n crashed this epoch: no delivery, straggler policy applies
			}
			tally := nodeTally(n, e, d, nodeSeed(n), spike)
			addTally(union, tally)
			if res, err := mergeTally(merger, tally); err != nil || res.Duplicate {
				t.Fatalf("epoch %d node %s: res=%+v err=%v", e, n, res, err)
			}
			delivered = append(delivered, tally)
			submitted++
			// A mid-barrier join is deferred to the next boundary.
			if i == 0 && r.Uint64()%6 == 0 {
				if n := pick(false); n != "" {
					eff, err := merger.Join(n)
					if err != nil || eff != e+1 {
						t.Fatalf("epoch %d: mid-barrier join %s eff=%d err=%v", e, n, eff, err)
					}
					joinAt[n] = eff
				}
			}
		}
		// An at-least-once re-send of something old changes nothing.
		if len(delivered) > 0 && r.Uint64()%3 == 0 {
			old := delivered[r.Uint64()%uint64(len(delivered))]
			if old.Epoch < e {
				if res, err := mergeTally(merger, old); err != nil || !res.Duplicate {
					t.Fatalf("epoch %d: re-send of %s/%d res=%+v err=%v", e, old.NodeID, old.Epoch, res, err)
				}
			}
		}

		if err := single.AddCounts(union.Counts, union.Total); err != nil {
			t.Fatal(err)
		}
		want, err := single.Seal()
		if err != nil {
			t.Fatal(err)
		}
		var got *WindowEstimate
		var info *MergedEpoch
		if submitted == len(members) {
			got, info, err = merger.TrySeal()
		} else {
			got, info, err = merger.SealPartial()
		}
		if err != nil || got == nil {
			t.Fatalf("epoch %d seal: est=%v err=%v", e, got, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: churned cluster diverged from single node\ngot  %+v\nwant %+v", e, got, want)
		}
		if info.Epoch != e || len(info.Nodes)+len(info.Missing) != len(members) {
			t.Fatalf("epoch %d accounting: %+v (members %v)", e, info, members)
		}
	}
	if latest := single.Latest(); !latest.PartialKnowledge {
		t.Fatal("churn scenario never engaged LDPRecover*; equivalence is vacuous")
	}
	if merger.SealedThrough() != epochs {
		t.Fatalf("sealed through %d, want %d", merger.SealedThrough(), epochs)
	}
}

// nodeSeed derives a stable per-node tally seed from the node id, so a
// node's reports do not depend on when it joined.
func nodeSeed(node string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(node); i++ {
		h ^= uint64(node[i])
		h *= 1099511628211
	}
	return h | 1
}

// TestSealedMergerPromotionDedupeIdempotence is the stream-level half
// of the failover guarantee: rebuild a merger from a snapshot of the
// old root's manager state plus its exported membership (what the
// standby tails), replay every tally the frontends would re-send, and
// nothing double-merges — the continuation is bit-identical to a root
// that never died.
func TestSealedMergerPromotionDedupeIdempotence(t *testing.T) {
	const d, preEpochs, postEpochs = 32, 6, 4
	nodes := []string{"fe-0", "fe-1"}

	single, err := NewEpochManager(mergerConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	mgrA, err := NewEpochManager(mergerConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	rootA, err := NewSealedMerger(mgrA, nodes)
	if err != nil {
		t.Fatal(err)
	}

	var sent []*ldp.Tally
	runEpoch := func(m *SealedMerger, e int) *WindowEstimate {
		t.Helper()
		union := &ldp.Tally{NodeID: "union", Epoch: e, Counts: make([]int64, d)}
		for _, n := range m.Nodes() {
			tally := nodeTally(n, e, d, nodeSeed(n), 0)
			addTally(union, tally)
			if _, err := mergeTally(m, tally); err != nil {
				t.Fatal(err)
			}
			sent = append(sent, tally)
		}
		if err := single.AddCounts(union.Counts, union.Total); err != nil {
			t.Fatal(err)
		}
		want, err := single.Seal()
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := m.TrySeal()
		if err != nil || got == nil {
			t.Fatalf("epoch %d seal: est=%v err=%v", e, got, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d diverged from single node", e)
		}
		return got
	}
	for e := 0; e < preEpochs; e++ {
		runEpoch(rootA, e)
	}
	// A joins/leaves schedule in flight at the crash must survive it.
	if eff, err := rootA.Join("fe-2"); err != nil || eff != preEpochs {
		t.Fatalf("join: eff=%d err=%v", eff, err)
	}

	// The root dies. The standby holds the last per-seal snapshot: the
	// manager's state plus the barrier membership.
	state := rootA.SnapshotState()
	members, sched := state.Members, state.Sched

	mgrB, err := NewEpochManager(mergerConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	if err := mgrB.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	rootB, err := NewSealedMerger(mgrB, members)
	if err != nil {
		t.Fatal(err)
	}
	if err := rootB.SetMembership(members, sched); err != nil {
		t.Fatal(err)
	}
	if rootB.SealedThrough() != preEpochs {
		t.Fatalf("promoted watermark %d, want %d", rootB.SealedThrough(), preEpochs)
	}
	// fe-2's scheduled join applied at promotion (its epoch is due).
	if got := rootB.Nodes(); !reflect.DeepEqual(got, []string{"fe-0", "fe-1", "fe-2"}) {
		t.Fatalf("promoted members: %v", got)
	}

	// Frontends re-send their whole retained ring at failover; every
	// already-merged tally must dedupe to a no-op.
	for _, tally := range sent {
		res, err := mergeTally(rootB, tally)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Duplicate {
			t.Fatalf("tally %s/%d double-merged across promotion", tally.NodeID, tally.Epoch)
		}
	}
	// And the cluster continues bit-identically under the new root.
	for e := preEpochs; e < preEpochs+postEpochs; e++ {
		runEpoch(rootB, e)
	}
}
