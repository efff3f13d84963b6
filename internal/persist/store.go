package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"ldprecover/internal/ldp"
	"ldprecover/internal/stream"
)

// Options parameterizes a Store.
type Options struct {
	// SegmentBytes and SyncEvery are the WAL knobs; see WALOptions.
	SegmentBytes int64
	SyncEvery    int
	// KeepSnapshots is how many snapshot generations to retain; zero
	// selects 2 (the newest plus one fallback should the newest be
	// damaged after the fact).
	KeepSnapshots int
}

// DefaultKeepSnapshots is the retention when Options leaves
// KeepSnapshots zero.
const DefaultKeepSnapshots = 2

// RestoreInfo summarizes what Open reconstructed.
type RestoreInfo struct {
	// SnapshotSeq is how many epochs the loaded snapshot had sealed; 0
	// means no snapshot existed (cold start).
	SnapshotSeq int
	// ReplayedBatches and ReplayedReports count the WAL tail's
	// report-batch records folded back into the live epoch.
	ReplayedBatches int
	ReplayedReports int64
	// ReplayedPartials and ReplayedPartialUsers count the WAL tail's
	// partial-tally records folded back into the live epoch.
	ReplayedPartials     int
	ReplayedPartialUsers int64
}

// Store makes one EpochManager durable. Layout under its directory:
//
//	<dir>/wal/wal-<firstLSN>.seg   report-batch write-ahead log
//	<dir>/snap/snap-<seq>.snap     per-seal state snapshots
//
// AppendBatchFrame logs a report-batch frame and folds it into the
// manager, AppendPartial does the same for a partial tally; Seal
// closes the epoch, snapshots the manager's cross-epoch state with the
// WAL position it reflects, and truncates the log up to the oldest
// *retained* snapshot's position (so a fallback restore never misses
// records). Append and Seal exclude each other (an RWMutex appenders
// share), which is the invariant the snapshot depends on: every WAL
// record at or below its recorded position is in the snapshot,
// everything above belongs to the live epoch and is replayed on boot.
//
// Crash windows, for the record: a torn WAL append loses only the batch
// being written (never acknowledged as aggregated); a crash mid-snapshot
// leaves the previous snapshot in place (temp file + rename); a crash
// between snapshot rename and WAL truncation double-applies nothing,
// because replay skips records the snapshot position covers.
type Store struct {
	mgr  *stream.EpochManager
	wal  *WAL
	dir  string
	opts Options

	// mu: appends hold it shared (the WAL serializes appends, the
	// manager handles concurrent folds), Seal holds it exclusive so
	// the snapshot sees every appended record applied.
	mu       sync.RWMutex
	closed   bool
	restored RestoreInfo
	// snaps are the retained snapshots, oldest first. WAL truncation
	// stops at the oldest one's position, so a fallback restore (the
	// newest snapshot damaged after the fact) still finds every record
	// it needs — it loses the epoch boundaries sealed since the fallback,
	// never the reports.
	snaps []snapMeta
}

// Open makes mgr durable under dir: it loads the newest valid snapshot
// into the (freshly constructed) manager, replays the WAL tail to
// rebuild the live epoch — one pass over the log, spread over
// GOMAXPROCS workers, each folding report batches through AddReportFrame
// and partial tallies through AddPartialFrame, both straight from the
// wire bytes, into its own accumulator — and leaves the log open for
// appending. A WAL record that fails its check fails Open, naming the
// lowest failing LSN, and the manager is left untouched: worker totals
// reach it only once the whole log has checked out. The restored
// manager serves window estimates bit-identical to the pre-crash
// process.
func Open(dir string, mgr *stream.EpochManager, opts Options) (*Store, error) {
	if mgr == nil {
		return nil, errors.New("persist: nil epoch manager")
	}
	if opts.KeepSnapshots == 0 {
		opts.KeepSnapshots = DefaultKeepSnapshots
	}
	if opts.KeepSnapshots < 1 {
		return nil, fmt.Errorf("persist: snapshot retention %d < 1", opts.KeepSnapshots)
	}
	snapDir := filepath.Join(dir, "snap")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{mgr: mgr, dir: dir, opts: opts}

	walSeq, state, found, err := LoadLatestSnapshot(snapDir)
	if err != nil {
		return nil, err
	}
	if found {
		if err := mgr.RestoreState(state); err != nil {
			return nil, fmt.Errorf("persist: restoring snapshot: %w", err)
		}
		s.restored.SnapshotSeq = state.Seq
	}
	if s.snaps, err = validSnapshots(snapDir); err != nil {
		return nil, err
	}

	s.wal, err = OpenWAL(filepath.Join(dir, "wal"), WALOptions{
		SegmentBytes: opts.SegmentBytes,
		SyncEvery:    opts.SyncEvery,
	})
	if err != nil {
		return nil, err
	}
	// The surviving log must reach back to the restored position. A
	// first-segment bound beyond walSeq+1 means records in between were
	// truncated against a newer snapshot that no longer loads — booting
	// anyway would silently drop them. (A log starting at LSN 1 is the
	// tolerated lost-log case: nothing between the snapshot and it.)
	if first := s.wal.FirstLSNBound(); first > walSeq+1 {
		return nil, errors.Join(fmt.Errorf("persist: WAL starts at LSN %d but the restored snapshot covers only LSN %d; "+
			"records in between are gone", first, walSeq), s.wal.Close())
	}
	// If the log has been lost or wiped while a snapshot survived, fresh
	// appends must not reuse LSNs the snapshot already covers.
	s.wal.AdvanceTo(walSeq)

	// One pass over the log, a worker per core: each record is read,
	// CRC-checked and validated once, and folded into its worker's
	// private accumulator. Only when every record has passed do the
	// worker totals reach the manager, so a record that fails fails
	// Open, naming its LSN, with the manager untouched.
	folds := make([]*replayFold, runtime.GOMAXPROCS(0))
	err = s.wal.replay(walSeq, len(folds), func(worker int, lsn uint64, payload []byte) error {
		if folds[worker] == nil {
			acc, err := ldp.NewShardedAccumulator(mgr.Domain(), 1)
			if err != nil {
				return err
			}
			folds[worker] = &replayFold{acc: acc}
		}
		return folds[worker].apply(lsn, payload)
	})
	if err == nil {
		err = s.commitReplay(folds)
	}
	if err != nil {
		return nil, errors.Join(err, s.wal.Close())
	}
	return s, nil
}

// replayFold is one replay worker's share of the WAL tail: its records
// folded into a private accumulator, and what they held.
type replayFold struct {
	acc          *ldp.ShardedAccumulator
	batches      int
	partials     int
	partialUsers int64
}

// apply validates one WAL record and folds it. The WAL is
// payload-agnostic; records are dispatched on their 2-byte frame magic:
// "LP" partial tallies are validated in place and folded from their
// wire bytes through AddPartialFrame regardless of their epoch hint,
// every other record is a report-batch frame validated in place and
// folded through AddReportFrame — the lanes live ingest takes. The hint
// was checked against the sealed watermark when the record was accepted
// (append and fold are atomic with respect to seals), so on replay the
// fold is unconditional — exactly like report batches, every surviving
// record rebuilds the live epoch.
func (f *replayFold) apply(lsn uint64, payload []byte) error {
	if !isPartialRecord(payload) {
		batch, err := ldp.ValidateReportBatchFrame(payload)
		if err != nil {
			return fmt.Errorf("persist: WAL record %d: report batch: %w", lsn, err)
		}
		f.acc.AddReportFrame(batch)
		f.batches++
		return nil
	}
	p, err := ldp.ValidatePartialFrame(payload)
	if err == nil {
		err = f.acc.AddPartialFrame(p)
	}
	if err != nil {
		return fmt.Errorf("persist: WAL record %d: partial tally: %w", lsn, err)
	}
	f.partials++
	f.partialUsers += p.Total
	return nil
}

// commitReplay sums the replay workers' folds into the manager's live
// epoch in one AddCounts — exact, since support counting is additive —
// and records what was replayed.
func (s *Store) commitReplay(folds []*replayFold) error {
	var sum *ldp.ShardedAccumulator
	for _, f := range folds {
		if f == nil {
			continue
		}
		s.restored.ReplayedBatches += f.batches
		s.restored.ReplayedReports += f.acc.Total() - f.partialUsers
		s.restored.ReplayedPartials += f.partials
		s.restored.ReplayedPartialUsers += f.partialUsers
		if sum == nil {
			sum = f.acc
		} else if err := sum.Merge(f.acc); err != nil {
			return err
		}
	}
	if sum == nil {
		return nil
	}
	return s.mgr.AddCounts(sum.Counts(), sum.Total())
}

// isPartialRecord reports whether a WAL payload is an "LP" partial-tally
// frame rather than a report-batch frame.
func isPartialRecord(payload []byte) bool {
	return len(payload) >= 2 && payload[0] == 'L' && payload[1] == 'P'
}

// Restored reports what Open reconstructed.
func (s *Store) Restored() RestoreInfo { return s.restored }

// Manager returns the manager this store persists.
func (s *Store) Manager() *stream.EpochManager { return s.mgr }

// AppendBatchFrame durably logs a report batch frame and folds it into
// the live epoch without ever decoding it into reports — the store's one
// report lane. f is the view ldp.ValidateReportBatchFrame returned; its
// frame is appended verbatim and counted in place. The zero view is
// refused: an empty record would fail replay. The batch is durable (per
// the fsync policy) before it is aggregated; a crash in between replays
// it on boot, which yields the same counts.
func (s *Store) AppendBatchFrame(f ldp.ReportFrame) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return errors.New("persist: store is closed")
	}
	if f.Bytes() == nil {
		return errors.New("persist: zero report frame; log only views ldp.ValidateReportBatchFrame returned")
	}
	if _, err := s.wal.Append(f.Bytes()); err != nil {
		return err
	}
	s.mgr.AddReportFrame(f)
	return nil
}

// AppendPartial durably logs an edge-aggregated partial tally and folds
// it into the live epoch straight from its wire bytes. f is the view
// ldp.ValidatePartialFrame returned; its frame is appended verbatim. The
// domain and staleness checks run before the append so a rejected
// partial leaves no durable trace; holding the append lock shared
// excludes Seal, so the watermark cannot move between the check and the
// fold — the WAL never holds a partial the manager rejected, and replay
// can fold every surviving record unconditionally.
func (s *Store) AppendPartial(f ldp.CountFrame) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return errors.New("persist: store is closed")
	}
	if f.Domain() != s.mgr.Domain() {
		return fmt.Errorf("persist: partial tally over domain %d, manager domain is %d",
			f.Domain(), s.mgr.Domain())
	}
	if f.Epoch < s.mgr.SealedWatermark() {
		return fmt.Errorf("%w: hint %d, watermark %d",
			stream.ErrStalePartial, f.Epoch, s.mgr.SealedWatermark())
	}
	if _, err := s.wal.Append(f.Bytes()); err != nil {
		return err
	}
	return s.mgr.AddPartialFrame(f)
}

// Seal closes the live epoch, snapshots the manager's state, and
// truncates the WAL up to the oldest retained snapshot's position. When
// the in-memory seal succeeded but persisting did not, the estimate is
// returned alongside the error so the caller can still serve it while
// deciding whether a degraded-durability server should stay up.
func (s *Store) Seal() (*stream.WindowEstimate, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("persist: store is closed")
	}
	est, err := s.mgr.Seal()
	if err != nil {
		return nil, err
	}
	// With appenders excluded, everything in the WAL is in the manager:
	// the log's last LSN is exactly the snapshot point.
	walSeq := s.wal.LastLSN()
	// Epoch boundaries always sync, whatever the append policy: with
	// lazy fsync this bounds a power-loss to the live epoch's batches
	// (everything sealed is durable), and under SyncEvery==1 the file is
	// clean and the call is free.
	if err := s.wal.Sync(); err != nil {
		return est, err
	}
	state := s.mgr.SnapshotState()
	if _, err := WriteSnapshot(filepath.Join(s.dir, "snap"), walSeq, state); err != nil {
		return est, err
	}
	s.snaps = append(s.snaps, snapMeta{seq: state.Seq, walSeq: walSeq})
	if len(s.snaps) > s.opts.KeepSnapshots {
		s.snaps = s.snaps[len(s.snaps)-s.opts.KeepSnapshots:]
	}
	if err := pruneSnapshots(filepath.Join(s.dir, "snap"), s.opts.KeepSnapshots); err != nil {
		return est, err
	}
	// Truncate only through the *oldest retained* snapshot's position:
	// should the newest snapshot be damaged after the fact, the fallback
	// restore still finds every record above its own position — it loses
	// the epoch boundaries sealed since, never the reports.
	if err := s.wal.TruncateThrough(s.snaps[0].walSeq); err != nil {
		return est, err
	}
	return est, nil
}

// Close syncs and closes the WAL. The manager itself stays usable in
// memory; further append and Seal calls on the store fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.wal.Close()
}
