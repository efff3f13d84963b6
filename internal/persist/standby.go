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
// its per-seal snapshots and seal-log in the shared data directory. The
// standby never writes — it polls, and whenever a newer snapshot
// appears it rebuilds a fresh EpochManager from it (RestoreState is a
// boot-time operation, so each generation gets a new manager rather
// than mutating the served one). On promotion the current manager plus
// the seal-log membership are everything a SealedMerger needs to resume
// the barrier exactly where the dead root left it; anything newer than
// the last snapshot was never acknowledged to frontends, so their
// at-least-once re-send replays it.
type StandbyTailer struct {
	dir    string
	newMgr func() (*stream.EpochManager, error)

	mu       sync.Mutex
	mgr      *stream.EpochManager // warm state; nil until a snapshot lands
	snapSeq  int
	hasState bool
}

// NewStandbyTailer tails the root data directory dir. newMgr constructs
// an empty manager with the root's stream config; it is invoked once
// per restored snapshot generation.
func NewStandbyTailer(dir string, newMgr func() (*stream.EpochManager, error)) (*StandbyTailer, error) {
	if newMgr == nil {
		return nil, fmt.Errorf("persist: standby tailer without a manager factory")
	}
	return &StandbyTailer{dir: dir, newMgr: newMgr}, nil
}

// Poll checks for a newer snapshot and, if one decodes clean, restores
// it into a fresh manager. advanced reports whether the warm state
// moved. A directory with no snapshot yet is not an error — the root
// simply has not sealed anything.
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

// Membership reads the seal-log's last membership state, falling back
// to fallback (the standby's -nodes config) when the log is absent or
// empty — a cluster that never changed membership may have no log.
func (t *StandbyTailer) Membership(fallback []string) (members []string, sched []stream.MemberChange, err error) {
	members, sched, ok, err := ReadSealLogMembership(t.dir)
	if err != nil {
		return nil, nil, err
	}
	if !ok {
		return append([]string(nil), fallback...), nil, nil
	}
	return members, sched, nil
}

// Promote builds the promoted root's merger: the warm manager (or a
// fresh empty one when the dead root never sealed) wrapped in a
// SealedMerger resuming at the snapshot's watermark, expecting the
// seal-log's membership. A root booting over its own directory restores
// the same way. The caller acquires the lease first.
func (t *StandbyTailer) Promote(fallback []string) (*stream.SealedMerger, error) {
	if _, err := t.Poll(); err != nil {
		return nil, err
	}
	members, sched, err := t.Membership(fallback)
	if err != nil {
		return nil, err
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("persist: promoting with no membership on record and no fallback nodes")
	}
	t.mu.Lock()
	mgr := t.mgr
	t.mu.Unlock()
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
