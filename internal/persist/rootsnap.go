package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"ldprecover/internal/stream"
)

// SnapshotStore is the root merger's durability: per-seal snapshots of
// the merged EpochManager state and the barrier membership, with no
// write-ahead log. A root does not need one — its inputs are frontends'
// sealed tallies, delivered at-least-once and retried until the root's
// *persisted* sealed watermark passes them, so a root crash loses only
// the pending (unsealed) epoch's tallies, which the frontends re-send on
// their next push cycle. What must survive is the cross-epoch merged
// view (sealed ring, recovered history, target-tracker hysteresis) and
// who the next barrier waits for, and that is exactly what the snapshot
// carries.
//
// The report-level WAL is a different contract: its records are report
// batch frames and partial tallies, replayed in one pass that folds them
// into the live epoch (batches as wire frames through AddReportFrame). A
// directory holding one belongs to a frontend or single-node server;
// opening it as a root store is refused, because replaying report frames
// into a tally-merging root (or logging tally frames into a report WAL)
// would silently corrupt the merged state.
type SnapshotStore struct {
	merger *stream.SealedMerger
	dir    string

	mu     sync.Mutex
	closed bool
}

// AttachSnapshotStore prepares per-seal snapshot writes under dir for a
// merger whose state is already live: the one a StandbyTailer restored
// from the very snapshots this store will keep writing, when a root
// boots over its own directory or a standby promotes. It restores
// nothing itself. It retains DefaultKeepSnapshots generations. dir must
// not hold a report-level WAL.
func AttachSnapshotStore(dir string, merger *stream.SealedMerger) (*SnapshotStore, error) {
	if merger == nil {
		return nil, errors.New("persist: nil merger")
	}
	walDir := filepath.Join(dir, "wal")
	if segs, err := listSegments(walDir); err == nil && len(segs) > 0 {
		return nil, fmt.Errorf("persist: %s holds a report-level WAL (%d segments); "+
			"a root merges sealed tallies and cannot replay report batch frames — "+
			"point the root at a fresh directory or run this one as a frontend", dir, len(segs))
	} else if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "snap"), 0o755); err != nil {
		return nil, err
	}
	return &SnapshotStore{merger: merger, dir: dir}, nil
}

// Persist atomically snapshots the merger's current cross-epoch state
// and membership, and prunes old generations. The root calls it after
// every merged seal, *before* advertising the new sealed watermark to
// frontends — the watermark is what releases their re-send retention,
// so it must never run ahead of what a restart would restore — and
// after every join or leave, before acking it, rewriting the current
// seal count's snapshot in place.
func (s *SnapshotStore) Persist() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("persist: snapshot store is closed")
	}
	snapDir := filepath.Join(s.dir, "snap")
	if _, err := WriteSnapshot(snapDir, 0, s.merger.SnapshotState()); err != nil {
		return err
	}
	return pruneSnapshots(snapDir)
}

// Close rejects further persists. There is nothing to flush — every
// Persist is already durable when it returns.
func (s *SnapshotStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}
