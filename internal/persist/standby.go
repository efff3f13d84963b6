package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"ldprecover/internal/stream"
)

// StandbyTailer keeps a warm copy of the root's merged state by tailing
// its per-seal snapshots in the shared data directory. The standby
// never writes — it polls, and whenever a newer snapshot appears it
// rebuilds a fresh EpochManager from it (RestoreState is a boot-time
// operation, so each generation gets a new manager rather than mutating
// the served one). On promotion the current manager plus the snapshot's
// membership are everything a SealedMerger needs to resume the barrier
// exactly where the dead root left it; anything newer than the last
// snapshot was never acknowledged to frontends, so their at-least-once
// re-send replays it.
type StandbyTailer struct {
	dir    string
	newMgr func() (*stream.EpochManager, error)

	mu       sync.Mutex
	mgr      *stream.EpochManager // warm state; nil until a snapshot lands
	members  []string             // the snapshot's membership; empty when none is recorded
	sched    []stream.MemberChange
	snapSeq  int
	hasState bool
}

// legacySealLog is where roots journaled membership before snapshots
// carried it (snapshot version 2).
const legacySealLog = "seals.log"

// NewStandbyTailer tails the root data directory dir. newMgr constructs
// an empty manager with the root's stream config; it is invoked once
// per restored snapshot generation. A directory holding a legacy
// seal-log is refused (a booting root opens a tailer too): its joins
// and leaves are in no snapshot, and booting would drop them silently.
func NewStandbyTailer(dir string, newMgr func() (*stream.EpochManager, error)) (*StandbyTailer, error) {
	if newMgr == nil {
		return nil, fmt.Errorf("persist: standby tailer without a manager factory")
	}
	if _, err := os.Stat(filepath.Join(dir, legacySealLog)); err == nil {
		return nil, fmt.Errorf("persist: %s is a seal-log from an older build, whose joins and leaves no snapshot "+
			"records; remove it and boot with the current membership as -nodes, or use a fresh directory", filepath.Join(dir, legacySealLog))
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	return &StandbyTailer{dir: dir, newMgr: newMgr}, nil
}

// Poll checks for a newer snapshot and, if one decodes clean, restores
// it into a fresh manager. advanced reports whether the warm state
// moved. A snapshot rewritten at the same seal count — a join or leave
// between seals — updates only the membership. A directory with no
// snapshot yet is not an error — the root simply has not sealed
// anything.
func (t *StandbyTailer) Poll() (advanced bool, err error) {
	_, state, found, err := LoadLatestSnapshot(filepath.Join(t.dir, "snap"))
	if errors.Is(err, os.ErrNotExist) {
		return false, nil // the root has not created its snapshot dir yet
	}
	if err != nil || !found {
		return false, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.hasState && state.Seq <= t.snapSeq {
		if state.Seq == t.snapSeq {
			t.members, t.sched = state.Members, state.Sched
		}
		return false, nil
	}
	mgr, err := t.newMgr()
	if err != nil {
		return false, err
	}
	if err := mgr.RestoreState(state); err != nil {
		return false, fmt.Errorf("persist: restoring snapshot seq %d: %w", state.Seq, err)
	}
	t.mgr, t.snapSeq, t.hasState = mgr, state.Seq, true
	t.members, t.sched = state.Members, state.Sched
	return true, nil
}

// Manager returns the warm manager restored from the newest snapshot,
// or nil when none has landed yet. The manager is replaced, never
// mutated, on later polls — a caller may serve reads from it until it
// asks again.
func (t *StandbyTailer) Manager() *stream.EpochManager {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.mgr
}

// SnapshotSeq returns the seal count of the restored snapshot and
// whether any snapshot has been restored.
func (t *StandbyTailer) SnapshotSeq() (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapSeq, t.hasState
}

// Promote builds the promoted root's merger: the warm manager (or a
// fresh empty one when the dead root never sealed) wrapped in a
// SealedMerger resuming at the snapshot's watermark, expecting the
// snapshot's membership — fallback (the -nodes config) only when no
// snapshot records one. A root booting over its own directory restores
// the same way. The caller acquires the lease first.
func (t *StandbyTailer) Promote(fallback []string) (*stream.SealedMerger, error) {
	if _, err := t.Poll(); err != nil {
		return nil, err
	}
	t.mu.Lock()
	mgr, members, sched := t.mgr, t.members, t.sched
	t.mu.Unlock()
	if len(members) == 0 {
		members, sched = fallback, nil
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("persist: promoting with no membership on record and no fallback nodes")
	}
	if mgr == nil {
		m, err := t.newMgr()
		if err != nil {
			return nil, err
		}
		mgr = m
	}
	merger, err := stream.NewSealedMerger(mgr, members)
	if err != nil {
		return nil, err
	}
	if err := merger.SetMembership(members, sched); err != nil {
		return nil, err
	}
	return merger, nil
}
