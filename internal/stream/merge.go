package stream

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"ldprecover/internal/ldp"
)

// SealedMerger is the root side of the scale-out collection tier
// (DESIGN.md §7): frontend nodes ingest disjoint user populations, seal
// epochs on a shared epoch clock, and push their sealed per-epoch
// tallies here. The merger runs an epoch barrier in front of an
// EpochManager — epoch e seals into the manager only after every
// expected node's tally for e has arrived (or a straggler policy forces
// it) — so window estimates, recovered history, and target-tracker
// hysteresis all run on the merged view, exactly as if one collector
// had seen every report.
//
// Delivery is at-least-once: frontends retry pushes until the root's
// sealed watermark passes the tally's epoch, and the merger dedupes by
// (NodeID, Epoch), so a re-sent tally — a retried request, a frontend
// crash-restart re-pushing its ring — changes nothing. Because tally
// merging is exact int64 addition and epochs seal strictly in clock
// order, the merged pipeline is bit-identical to the single-node one on
// the union of reports; the cluster equivalence e2e pins that.
//
// Membership is elastic: Join and Leave change the expected node set at
// epoch boundaries, never mid-barrier — once the barrier epoch has
// started accumulating tallies its completeness criterion is fixed, and
// a change lands at the next boundary instead. The schedule of pending
// changes is part of the merger's exportable state (Membership /
// SetMembership) so a root restart or a standby promotion resumes with
// the same barrier expectations.
//
// All methods are safe for concurrent use.
type SealedMerger struct {
	mgr *EpochManager

	mu       sync.Mutex
	expected []string              // sorted unique member ids for the barrier epoch
	sched    []MemberChange        // future membership changes, epoch ascending
	next     int                   // next epoch index to seal (the barrier)
	pending  map[int]*pendingEpoch // future/current epochs accumulating tallies
	merged   []MergedEpoch         // accounting for sealed epochs, oldest first
	dupes    int64                 // deduped submissions ever
}

// pendingEpoch accumulates one epoch's tallies ahead of its barrier.
// Arriving tallies fold straight into acc (merge-on-arrival): nothing
// of a tally is retained beyond its contribution to the accumulated
// counts and its (node, report-total) accounting entry, so accepting a
// tally allocates nothing after the epoch's first and sealing is a
// hand-off, not a re-merge.
type pendingEpoch struct {
	acc   *ldp.Tally
	nodes map[string]int64 // node id → that tally's report total
}

// MemberChange is one scheduled membership change: from epoch Epoch on,
// Node is (Join) or is no longer (not Join) an expected member of the
// epoch barrier.
type MemberChange struct {
	// Epoch is the first epoch the change applies to.
	Epoch int
	// Node is the frontend node id.
	Node string
	// Join is true for a join, false for a leave.
	Join bool
}

// MergedEpoch is the partial-epoch accounting for one sealed epoch:
// which expected nodes made it into the merge before the barrier
// closed, and which were still missing (straggler timeout or forced
// seal). A complete epoch has an empty Missing.
type MergedEpoch struct {
	// Epoch is the shared clock index.
	Epoch int
	// Nodes are the frontends whose tallies merged, sorted. A departing
	// node's final epoch may list it here even though the membership
	// change already removed it from the expected set.
	Nodes []string
	// Missing are the expected frontends absent at seal time, sorted.
	Missing []string
	// NodeTotals maps each merged node to the report total its tally
	// carried — the per-child accounting that survives merge-on-arrival
	// (the counts themselves fold away immediately).
	NodeTotals map[string]int64
	// Total is the merged report count.
	Total int64
	// Duplicates counts deduped submissions observed for this epoch,
	// including late re-sends arriving after the seal.
	Duplicates int
}

// clone deep-copies the accounting so published values cannot alias the
// merger's retained state (the detect tracker-slice lesson: accessors
// publish copies, never internal slices).
func (m MergedEpoch) clone() MergedEpoch {
	m.Nodes = slices.Clone(m.Nodes)
	m.Missing = slices.Clone(m.Missing)
	m.NodeTotals = maps.Clone(m.NodeTotals)
	return m
}

// SubmitResult describes what the merger did with a tally.
type SubmitResult struct {
	// Duplicate is set when the tally was already merged — the same
	// (node, epoch) seen before the barrier, or the epoch already sealed
	// — and the submission changed nothing.
	Duplicate bool
	// Ready is set when the next-to-seal epoch now holds every expected
	// node's tally: the barrier is complete and TrySeal will seal it.
	Ready bool
	// SealedThrough is the number of epochs sealed so far; frontends
	// prune their unacked tallies against this watermark.
	SealedThrough int
}

// maxEpochLead bounds how far past the barrier a pending tally may
// reach, so a misconfigured or hostile frontend cannot grow the pending
// map without bound. A healthy cluster's frontends sit at most one
// epoch ahead of the root; crash-restart re-sends reach back, not
// forward.
const maxEpochLead = 1 << 10

// NewSealedMerger wraps mgr with an epoch barrier over the expected
// frontend nodes. The barrier resumes at the manager's sealed-epoch
// count, so a root restored from a snapshot continues where it left
// off.
func NewSealedMerger(mgr *EpochManager, nodes []string) (*SealedMerger, error) {
	if mgr == nil {
		return nil, fmt.Errorf("stream: merger without an epoch manager")
	}
	expected, err := normalizeMembers(nodes)
	if err != nil {
		return nil, err
	}
	return &SealedMerger{
		mgr:      mgr,
		expected: expected,
		next:     mgr.Stats().Epochs,
		pending:  make(map[int]*pendingEpoch),
	}, nil
}

// normalizeMembers sorts, validates, and copies a member set.
func normalizeMembers(nodes []string) ([]string, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("stream: merger without expected nodes")
	}
	expected := slices.Clone(nodes)
	sort.Strings(expected)
	for i, n := range expected {
		if n == "" {
			return nil, fmt.Errorf("stream: empty node id in merger config")
		}
		if i > 0 && expected[i-1] == n {
			return nil, fmt.Errorf("stream: duplicate node id %q in merger config", n)
		}
	}
	return expected, nil
}

// Manager returns the epoch manager the merger seals into.
func (sm *SealedMerger) Manager() *EpochManager { return sm.mgr }

// Nodes returns the expected member ids for the current barrier epoch,
// sorted. The slice is the caller's.
func (sm *SealedMerger) Nodes() []string {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return slices.Clone(sm.expected)
}

// Membership exports the current member set and the schedule of pending
// changes — the state a root restart or standby promotion needs to
// resume the barrier with the same expectations. Both slices are
// copies.
func (sm *SealedMerger) Membership() (members []string, sched []MemberChange) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return slices.Clone(sm.expected), slices.Clone(sm.sched)
}

// SetMembership replaces the member set and pending-change schedule,
// the restore half of Membership. It may only be called while no
// tallies are pending: membership restore is a boot/promotion-time
// operation, not a mid-barrier rewrite. Scheduled changes already due
// at the barrier are applied immediately.
func (sm *SealedMerger) SetMembership(members []string, sched []MemberChange) error {
	expected, err := normalizeMembers(members)
	if err != nil {
		return err
	}
	for _, ev := range sched {
		if ev.Node == "" {
			return fmt.Errorf("stream: scheduled membership change without a node id")
		}
		if ev.Epoch < 0 {
			return fmt.Errorf("stream: scheduled membership change at negative epoch %d", ev.Epoch)
		}
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if len(sm.pending) != 0 {
		return fmt.Errorf("stream: restoring membership with %d epochs of tallies pending", len(sm.pending))
	}
	sm.expected = expected
	sm.sched = slices.Clone(sched)
	sort.SliceStable(sm.sched, func(i, j int) bool { return sm.sched[i].Epoch < sm.sched[j].Epoch })
	sm.applyScheduleLocked()
	if len(sm.expected) == 0 {
		return fmt.Errorf("stream: restored membership is empty at the barrier epoch %d", sm.next)
	}
	return nil
}

// memberAtLocked reports whether node is an expected member for epoch:
// the current set, with every scheduled change through that epoch
// applied. Callers hold sm.mu.
func (sm *SealedMerger) memberAtLocked(node string, epoch int) bool {
	_, member := slices.BinarySearch(sm.expected, node)
	for _, ev := range sm.sched {
		if ev.Epoch > epoch {
			break
		}
		if ev.Node == node {
			member = ev.Join
		}
	}
	return member
}

// memberFinallyLocked reports whether node is a member once the whole
// schedule has applied. Callers hold sm.mu.
func (sm *SealedMerger) memberFinallyLocked(node string) bool {
	_, member := slices.BinarySearch(sm.expected, node)
	for _, ev := range sm.sched {
		if ev.Node == node {
			member = ev.Join
		}
	}
	return member
}

// finalMemberCountLocked counts the membership once the whole schedule
// has applied. Callers hold sm.mu.
func (sm *SealedMerger) finalMemberCountLocked() int {
	final := make(map[string]bool, len(sm.expected))
	for _, n := range sm.expected {
		final[n] = true
	}
	for _, ev := range sm.sched {
		if ev.Join {
			final[ev.Node] = true
		} else {
			delete(final, ev.Node)
		}
	}
	return len(final)
}

// scheduleLocked inserts a membership change keeping the schedule
// epoch-ascending (stable within an epoch: later decisions win).
// Callers hold sm.mu.
func (sm *SealedMerger) scheduleLocked(ev MemberChange) {
	i := sort.Search(len(sm.sched), func(i int) bool { return sm.sched[i].Epoch > ev.Epoch })
	sm.sched = slices.Insert(sm.sched, i, ev)
}

// applyScheduleLocked folds every scheduled change due at the barrier
// into the expected set. Callers hold sm.mu.
func (sm *SealedMerger) applyScheduleLocked() {
	for len(sm.sched) > 0 && sm.sched[0].Epoch <= sm.next {
		ev := sm.sched[0]
		sm.sched = sm.sched[1:]
		i, ok := slices.BinarySearch(sm.expected, ev.Node)
		switch {
		case ev.Join && !ok:
			sm.expected = slices.Insert(sm.expected, i, ev.Node)
		case !ev.Join && ok:
			sm.expected = slices.Delete(sm.expected, i, i+1)
		}
	}
}

// Join admits a node into the cluster, effective at an epoch boundary:
// the current barrier epoch if its barrier has not started filling, the
// next one otherwise — never mid-barrier. It returns the first epoch
// the node is expected to contribute; the joining frontend fast-forwards
// its epoch clock there. Re-announcing an existing or already-scheduled
// member is idempotent and returns the standing effective epoch.
func (sm *SealedMerger) Join(node string) (int, error) {
	if node == "" {
		return 0, fmt.Errorf("stream: join without a node id")
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if sm.memberFinallyLocked(node) {
		// Already in (or scheduled in): report when that takes effect.
		effective := sm.next
		for _, ev := range sm.sched {
			if ev.Node == node && ev.Join && ev.Epoch > effective {
				effective = ev.Epoch
			}
		}
		return effective, nil
	}
	effective := sm.next
	if pe := sm.pending[sm.next]; pe != nil && len(pe.nodes) > 0 {
		// The barrier epoch is already filling; its completeness
		// criterion is fixed. The join lands at the next boundary.
		effective = sm.next + 1
	}
	if effective == sm.next {
		i, ok := slices.BinarySearch(sm.expected, node)
		if !ok {
			sm.expected = slices.Insert(sm.expected, i, node)
		}
	} else {
		sm.scheduleLocked(MemberChange{Epoch: effective, Node: node, Join: true})
	}
	return effective, nil
}

// Leave retires a node from the cluster: from the effective epoch on,
// the barrier no longer waits for it. from is the first epoch the node
// will not contribute (its last sealed epoch + 1); the merger clamps it
// forward past the barrier and past any epoch the node has already
// delivered a pending tally for, so a departing node's final partial
// epoch still seals with its data and the ordinary merged/missing
// accounting. ready reports whether the removal completed the current
// barrier (the departing node was the last straggler) — the caller
// should then drive TrySeal. Removing the last member is refused, and
// a leave for a node that was never a member is an error; repeating a
// leave is idempotent.
func (sm *SealedMerger) Leave(node string, from int) (effective int, ready bool, err error) {
	if node == "" {
		return 0, false, fmt.Errorf("stream: leave without a node id")
	}
	if from < 0 {
		return 0, false, fmt.Errorf("stream: leave effective at negative epoch %d", from)
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if !sm.memberFinallyLocked(node) {
		_, current := slices.BinarySearch(sm.expected, node)
		if !current {
			// Never a member (or already fully left): idempotent when a
			// leave is on record, an error for a stranger.
			for _, ev := range sm.sched {
				if ev.Node == node && !ev.Join {
					return ev.Epoch, false, nil
				}
			}
			return 0, false, fmt.Errorf("stream: leave from %q, which is not a cluster member", node)
		}
	}
	effective = max(from, sm.next)
	// Never retire epochs the node has already contributed to: a tally
	// sitting at (or past) the barrier merges under the old membership.
	for e, pe := range sm.pending {
		if _, has := pe.nodes[node]; has && e >= effective {
			effective = e + 1
		}
	}
	if sm.finalMemberCountLocked() <= 1 {
		return 0, false, fmt.Errorf("stream: cannot remove %q, the last cluster member", node)
	}
	// A pending join at or after the effective epoch is void now.
	sm.sched = slices.DeleteFunc(sm.sched, func(ev MemberChange) bool {
		return ev.Node == node && ev.Epoch >= effective
	})
	if effective == sm.next {
		i, ok := slices.BinarySearch(sm.expected, node)
		if ok {
			sm.expected = slices.Delete(sm.expected, i, i+1)
		}
		return effective, sm.barrierCompleteLocked(), nil
	}
	sm.scheduleLocked(MemberChange{Epoch: effective, Node: node, Join: false})
	return effective, false, nil
}

// MergeFrame is the root's ingest path: it folds one frontend's sealed
// tally, as validated by ldp.ValidateTallyFrame, into the pending epoch
// it belongs to straight from the wire bytes. Duplicates — by (node,
// epoch), or for an epoch already sealed — are no-ops reported in the
// result, never errors, because at-least-once delivery makes them part
// of normal operation (including a former member's re-sends for epochs
// that sealed before it left). Tallies from nodes that are not members
// for the tally's epoch, domain mismatches, and epochs absurdly far
// past the barrier are errors.
func (sm *SealedMerger) MergeFrame(f ldp.CountFrame) (SubmitResult, error) {
	node, epoch, domain := f.NodeID, f.Epoch, f.Domain()
	if d := sm.mgr.Domain(); domain != d {
		return SubmitResult{}, fmt.Errorf("stream: tally from %q has domain %d, root serves %d",
			node, domain, d)
	}

	sm.mu.Lock()
	defer sm.mu.Unlock()
	res := SubmitResult{SealedThrough: sm.next}
	if epoch < sm.next {
		// The epoch sealed without (or with) this tally; either way the
		// barrier has moved on and the re-send changes nothing. This
		// holds for former members too — their retained-ring re-sends
		// must stay harmless after they leave.
		sm.noteDuplicateLocked(epoch)
		res.Duplicate = true
		return res, nil
	}
	if epoch > sm.next && sm.next == 0 && len(sm.pending) == 0 && sm.mgr.Stats().Epochs == 0 {
		// A virgin root facing a cluster whose clock is already running —
		// an in-memory root restarted, or a root whose state was lost —
		// adopts the frontends' epoch base instead of forcing its way
		// through (or, past maxEpochLead, rejecting) every skipped epoch.
		// Frontends push oldest-first, so the first arrival is the
		// earliest tally still deliverable; anything older another node
		// re-sends is stale either way, because the state that could
		// have merged it is gone.
		sm.next = epoch
		res.SealedThrough = sm.next
	}
	if epoch >= sm.next+maxEpochLead {
		return res, fmt.Errorf("stream: tally from %q for epoch %d is %d epochs past the merge barrier %d",
			node, epoch, epoch-sm.next, sm.next)
	}
	if !sm.memberAtLocked(node, epoch) {
		return res, fmt.Errorf("stream: tally from %q, which is not a cluster member at epoch %d",
			node, epoch)
	}
	pe := sm.pending[epoch]
	if pe == nil {
		pe = &pendingEpoch{
			acc:   &ldp.Tally{Epoch: epoch, Counts: make([]int64, domain)},
			nodes: make(map[string]int64, len(sm.expected)+1),
		}
		sm.pending[epoch] = pe
	}
	if _, seen := pe.nodes[node]; seen {
		sm.dupes++
		res.Duplicate = true
		return res, nil
	}
	// Merge-on-arrival: fold the tally into the epoch's accumulator now
	// and keep only its accounting entry — the seal becomes a hand-off
	// instead of a re-merge, and nothing else of the tally is retained.
	if err := f.MergeInto(pe.acc); err != nil {
		return res, err
	}
	pe.nodes[node] = f.Total
	res.Ready = sm.barrierCompleteLocked()
	return res, nil
}

// noteDuplicateLocked counts a dedupe, attributing it to the sealed
// epoch's accounting when that epoch is still retained.
func (sm *SealedMerger) noteDuplicateLocked(epoch int) {
	sm.dupes++
	for i := range sm.merged {
		if sm.merged[i].Epoch == epoch {
			sm.merged[i].Duplicates++
			return
		}
	}
}

// barrierCompleteLocked reports whether the next-to-seal epoch holds a
// tally from every expected member. Tallies from departing nodes whose
// removal already applied are extra, not blocking.
func (sm *SealedMerger) barrierCompleteLocked() bool {
	pe := sm.pending[sm.next]
	if pe == nil {
		return false
	}
	for _, n := range sm.expected {
		if _, has := pe.nodes[n]; !has {
			return false
		}
	}
	return true
}

// TrySeal seals the next epoch into the manager iff its barrier is
// complete, returning the new window estimate and the epoch's merge
// accounting; (nil, nil, nil) means the barrier is still open. Callers
// loop — sealing epoch e may reveal that e+1's barrier was already
// complete.
func (sm *SealedMerger) TrySeal() (*WindowEstimate, *MergedEpoch, error) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if !sm.barrierCompleteLocked() {
		return nil, nil, nil
	}
	return sm.sealNextLocked()
}

// SealPartial force-closes the next epoch's barrier with whatever
// tallies have arrived — the straggler-timeout policy, and the root's
// answer to an explicit seal request. Sealing with no tallies at all is
// legal and produces an empty epoch, exactly as a quiet single-node
// epoch would. The accounting records which nodes were merged and which
// were missing.
func (sm *SealedMerger) SealPartial() (*WindowEstimate, *MergedEpoch, error) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.sealNextLocked()
}

// sealNextLocked folds the pending epoch at the barrier into the
// manager and seals it, then advances the barrier and applies any
// membership change scheduled for the new epoch. Callers hold sm.mu.
// The returned accounting is a copy that cannot alias later mutation of
// the retained state.
func (sm *SealedMerger) sealNextLocked() (*WindowEstimate, *MergedEpoch, error) {
	info := MergedEpoch{Epoch: sm.next}
	var est *WindowEstimate
	var err error
	if pe := sm.pending[sm.next]; pe != nil {
		info.Total = pe.acc.Total
		info.NodeTotals = make(map[string]int64, len(pe.nodes))
		for n, ut := range pe.nodes {
			info.Nodes = append(info.Nodes, n)
			info.NodeTotals[n] = ut
		}
		sort.Strings(info.Nodes)
		delete(sm.pending, sm.next)
		// The tallies already merged on arrival; hand the finished
		// vector to the manager in O(1) instead of re-folding it
		// through the live accumulator.
		est, err = sm.mgr.SealCounts(pe.acc.Counts, pe.acc.Total)
	} else {
		est, err = sm.mgr.Seal()
	}
	if err != nil {
		return nil, nil, err
	}
	for _, n := range sm.expected {
		if !slices.Contains(info.Nodes, n) {
			info.Missing = append(info.Missing, n)
		}
	}
	sm.next++
	sm.applyScheduleLocked()
	sm.merged = append(sm.merged, info.clone())
	if keep := sm.mgr.Config().History; len(sm.merged) > keep {
		sm.merged = sm.merged[len(sm.merged)-keep:]
	}
	return est, &info, nil
}

// BarrierPending reports whether any tallies are waiting at or past
// the barrier — what a root consults to decide whether a straggler
// timer should be armed.
func (sm *SealedMerger) BarrierPending() bool {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return len(sm.pending) > 0
}

// SealedThrough returns how many epochs have sealed — the watermark
// frontends prune their unacked tallies against.
func (sm *SealedMerger) SealedThrough() int {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.next
}

// PendingNodes returns which expected nodes have (true) and have not
// (false) delivered their tally for the epoch at the barrier. The map
// is the caller's.
func (sm *SealedMerger) PendingNodes() map[string]bool {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	out := make(map[string]bool, len(sm.expected))
	pe := sm.pending[sm.next]
	for _, n := range sm.expected {
		var has bool
		if pe != nil {
			_, has = pe.nodes[n]
		}
		out[n] = has
	}
	return out
}

// Merged returns the retained per-epoch merge accounting, oldest first.
// Every entry is a copy that cannot alias later mutation.
func (sm *SealedMerger) Merged() []MergedEpoch {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	out := make([]MergedEpoch, len(sm.merged))
	for i, m := range sm.merged {
		out[i] = m.clone()
	}
	return out
}

// Duplicates returns how many submissions have ever been deduped.
func (sm *SealedMerger) Duplicates() int64 {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.dupes
}
