// Package persist makes the epoch-streamed recovery service crash-safe.
// It provides two building blocks and a Store that ties them to an
// EpochManager:
//
//   - a segmented, CRC-framed write-ahead log (WAL) whose record payloads
//     are the ldp batch codec's wire frames — the exact bytes the serving
//     layer ingests over HTTP — with segment rotation, fsync policy
//     knobs, and torn-tail tolerance on replay;
//   - versioned snapshots of the full EpochManager state (sealed-epoch
//     ring, sliding window, recovered history, target-tracker hysteresis,
//     sequence counters) written atomically via temp file + rename at
//     each seal, after which the WAL is truncated up to the snapshot
//     point.
//
// On boot a Store loads the newest valid snapshot and replays the WAL
// tail in one pass, its segments spread over GOMAXPROCS workers that
// each check every record once and fold it (report batches as wire
// frames through AddReportFrame) into a private accumulator; the worker
// totals reach the manager only once the whole log checks out. The
// manager then serves window estimates bit-identical to an
// uninterrupted run: support counting is additive, so re-applying the
// live epoch's records in any order and grouping reproduces the same
// counts, and recovery itself is deterministic.
//
// The merging tiers reuse the same blocks without the WAL: roots and
// interior mergers (-role=merger, DESIGN.md §9) persist SnapshotStore
// snapshots, one per seal and one per membership change, each carrying
// the barrier membership — their inputs are re-sent by the tier below
// until the persisted watermark covers them, so a log of individual
// tallies would be redundant.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// WAL record frame (little endian):
//
//	byte 0..3:   uint32 payload length n
//	byte 4..11:  uint64 LSN (log sequence number, 1-based, monotone)
//	byte 12..15: uint32 CRC-32C over bytes 4..11 and the payload
//	byte 16..:   n payload bytes
//
// The CRC covers the LSN so a record spliced from another position (or a
// stale block the filesystem resurfaced) fails verification, not just
// bit flips in the payload. Records live in segment files named
// wal-<firstLSN>.seg; a segment's records all have LSNs below the next
// segment's name, which is what makes truncation a pure file delete.
const (
	walHeaderSize = 16

	// walMaxPayload caps a record so a corrupt length field cannot make
	// replay allocate gigabytes. It comfortably exceeds any HTTP batch
	// the server accepts (default -max-body is 8 MiB).
	walMaxPayload = 64 << 20

	walSegPrefix = "wal-"
	walSegSuffix = ".seg"

	// DefaultSegmentBytes is the rotation threshold when WALOptions
	// leaves SegmentBytes zero.
	DefaultSegmentBytes = 8 << 20
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms a server runs on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WALOptions are the durability/throughput knobs of a WAL.
type WALOptions struct {
	// SegmentBytes rotates to a fresh segment file once the current one
	// reaches this many bytes. Zero or negative selects
	// DefaultSegmentBytes.
	SegmentBytes int64
	// SyncEvery fsyncs the segment after every n-th append. Zero selects
	// 1 (fsync every append — durable acknowledgements); negative
	// disables explicit fsync entirely and leaves flushing to the OS,
	// trading the tail of the log on power loss for throughput. Rotation
	// and Close always sync regardless of policy.
	SyncEvery int
}

func (o WALOptions) withDefaults() WALOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.SyncEvery == 0 {
		o.SyncEvery = 1
	}
	return o
}

// walSegment is one closed or live segment file.
type walSegment struct {
	first uint64 // LSN named in the file (lower bound of its records)
	path  string
}

// WAL is a segmented write-ahead log. Append is safe for concurrent use;
// replay is meant for boot time, before appending resumes.
type WAL struct {
	dir  string
	opts WALOptions

	mu       sync.Mutex
	segments []walSegment // all segments, oldest first; last is live
	f        *os.File     // live segment, positioned at its end
	size     int64        // live segment size
	nextLSN  uint64       // LSN the next append receives
	unsynced int          // appends since the last fsync
	rec      []byte       // reusable record scratch, guarded by mu
	// failed is the first write, fsync or rotation error. A failed
	// write can leave a partial record in the segment, and a failed
	// fsync can drop written pages, so nothing later is known durable:
	// every later Append, Sync, rotation and Close returns it.
	failed error
}

// OpenWAL opens (or creates) the write-ahead log in dir. The final
// segment is scanned and any torn tail — a partially written last record
// from a crash mid-append — is truncated away, so appending resumes at
// the first LSN that was never durably written.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	w := &WAL{dir: dir, opts: opts, segments: segs}
	if len(segs) == 0 {
		w.nextLSN = 1
		if err := w.createSegmentLocked(); err != nil {
			return nil, err
		}
		return w, nil
	}
	// Scan the final segment for its valid extent; earlier segments are
	// verified lazily by replay (corruption there is a hard error, not a
	// torn tail).
	last := segs[len(segs)-1]
	var r segmentReader
	end, lastLSN, _, err := r.scan(last, nil)
	if err != nil {
		return nil, err
	}
	w.nextLSN = last.first
	if lastLSN != 0 {
		w.nextLSN = lastLSN + 1
	}
	if err := os.Truncate(last.path, end); err != nil {
		return nil, fmt.Errorf("persist: truncating torn WAL tail: %w", err)
	}
	f, err := os.OpenFile(last.path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	w.f = f
	w.size = end
	return w, nil
}

// createSegmentLocked starts a fresh segment named after nextLSN. The
// caller holds w.mu (or exclusive access during Open).
func (w *WAL) createSegmentLocked() error {
	path := filepath.Join(w.dir, fmt.Sprintf("%s%020d%s", walSegPrefix, w.nextLSN, walSegSuffix))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.segments = append(w.segments, walSegment{first: w.nextLSN, path: path})
	w.f = f
	w.size = 0
	return nil
}

// Append writes one record and returns its LSN. The payload is typically
// an ldp batch codec frame, but the WAL is payload-agnostic. After a
// failed write, fsync or rotation, Append returns that first error.
func (w *WAL) Append(payload []byte) (uint64, error) {
	if len(payload) > walMaxPayload {
		return 0, fmt.Errorf("persist: WAL payload of %d bytes exceeds cap %d", len(payload), walMaxPayload)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, errors.New("persist: WAL is closed")
	}
	if w.failed != nil {
		return 0, w.failed
	}
	lsn := w.nextLSN
	// The record scratch is reused across appends (the ingest hot path
	// runs one append per HTTP batch) so steady-state appends allocate
	// nothing; w.mu already serializes access.
	if need := walHeaderSize + len(payload); cap(w.rec) < need {
		w.rec = make([]byte, need)
	}
	rec := w.rec[:walHeaderSize+len(payload)]
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(rec[4:], lsn)
	copy(rec[walHeaderSize:], payload)
	crc := crc32.Update(0, crcTable, rec[4:12])
	crc = crc32.Update(crc, crcTable, payload)
	binary.LittleEndian.PutUint32(rec[12:], crc)
	if _, err := w.f.Write(rec); err != nil {
		return 0, w.fail(err)
	}
	w.nextLSN++
	w.size += int64(len(rec))
	w.unsynced++
	if w.opts.SyncEvery > 0 && w.unsynced >= w.opts.SyncEvery {
		if err := w.syncLocked(); err != nil {
			return 0, err
		}
	}
	if w.size >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// fail records err as the WAL's first failure and returns it. The
// caller holds w.mu.
func (w *WAL) fail(err error) error {
	w.failed = fmt.Errorf("persist: WAL failed, appends stopped: %w", err)
	return w.failed
}

// syncLocked fsyncs the live segment. A failed fsync is never retried:
// the kernel may already have dropped the dirty pages it could not
// write, so a later success would vouch for lost records.
func (w *WAL) syncLocked() error {
	if w.failed != nil {
		return w.failed
	}
	if err := w.f.Sync(); err != nil {
		return w.fail(err)
	}
	w.unsynced = 0
	return nil
}

// rotateLocked syncs and closes the live segment and starts a new one.
func (w *WAL) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return w.fail(err)
	}
	if err := w.createSegmentLocked(); err != nil {
		return w.fail(err)
	}
	return nil
}

// LastLSN returns the LSN of the newest appended record, 0 when the log
// has never held one.
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN - 1
}

// FirstLSNBound returns the oldest segment's lower LSN bound (its file
// name): every surviving record's LSN is at least this. The Store checks
// it against the restored snapshot's WAL position on boot — a bound more
// than one past the position means records in between were truncated
// against a newer snapshot that no longer loads, and a silent restore
// would lose them.
func (w *WAL) FirstLSNBound() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.segments[0].first
}

// AdvanceTo bumps the next LSN past lsn. The Store calls it when a
// snapshot records a WAL position beyond the log's end (the log was
// deleted or lost): without the bump, fresh appends would reuse LSNs the
// snapshot already covers and replay would silently skip them.
func (w *WAL) AdvanceTo(lsn uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.nextLSN <= lsn {
		w.nextLSN = lsn + 1
	}
}

// Sync flushes the live segment to stable storage regardless of policy.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	return w.syncLocked()
}

// Close syncs and closes the live segment. The WAL rejects appends
// afterwards.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.syncLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// replay streams every record with LSN > after to fn, spread over
// workers goroutines (never more than there are segments); worker
// indices passed to fn are below workers. Each worker claims whole
// segments in ascending order and hands their records to fn with its own
// worker index, so one worker's records arrive in ascending LSN order
// while different workers run concurrently; fn must be safe for that, and
// the payload it is given is only valid for the duration of the call.
//
// A torn tail — a final record the crash cut short — ends replay
// cleanly; corruption anywhere else (or in a non-final segment) is an
// error, since valid records are known to follow it and silently
// dropping them would diverge the restored state. When several segments
// fail (corruption, an I/O error, or an error from fn), the error of the
// lowest one is returned, so the failure reported is always the one
// nearest the start of the log; records of later segments may still
// have reached fn. replay is a boot-time operation: run it before
// appending resumes.
func (w *WAL) replay(after uint64, workers int, fn func(worker int, lsn uint64, payload []byte) error) error {
	w.mu.Lock()
	segs := append([]walSegment(nil), w.segments...)
	w.mu.Unlock()
	workers = max(1, min(workers, len(segs)))
	errs := make([]error, len(segs))
	var next atomic.Int64 // next unclaimed segment index
	var failed atomic.Bool
	var wg sync.WaitGroup
	for worker := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var r segmentReader
			emit := func(lsn uint64, payload []byte) error {
				if lsn <= after {
					return nil
				}
				return fn(worker, lsn, payload)
			}
			// Segments are claimed in ascending order, so once any
			// segment has failed, every unclaimed one lies above it and
			// cannot hold the lowest failure: stop claiming. Segments
			// already claimed still finish, and errs keeps them all.
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(segs) {
					return
				}
				if errs[i] = r.replaySegment(segs[i], i == len(segs)-1, emit); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// replaySegment streams one segment's valid records to fn. A torn end is
// tolerated only in the final segment.
func (r *segmentReader) replaySegment(seg walSegment, final bool, fn func(lsn uint64, payload []byte) error) error {
	_, _, torn, err := r.scan(seg, fn)
	if err != nil {
		return err
	}
	if torn && !final {
		return fmt.Errorf("persist: WAL segment %s is corrupt mid-log", filepath.Base(seg.path))
	}
	return nil
}

// TruncateThrough garbage-collects segments whose records are all
// covered by a snapshot at lsn. The live segment is first rotated away if
// it holds any such record, so truncation after a seal leaves the log
// holding only post-snapshot batches. Deleting is pure GC — replay skips
// snapshot-covered records by LSN either way — so a crash between
// snapshot and truncation double-deletes nothing.
func (w *WAL) TruncateThrough(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("persist: WAL is closed")
	}
	live := w.segments[len(w.segments)-1]
	if w.size > 0 && live.first <= lsn && live.first < w.nextLSN {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	// A closed segment's records are all below the next segment's first
	// LSN, so it is fully covered when that bound is <= lsn+1.
	keep := w.segments[:0]
	for i, seg := range w.segments {
		if i+1 < len(w.segments) && w.segments[i+1].first <= lsn+1 {
			if err := os.Remove(seg.path); err != nil {
				return err
			}
			continue
		}
		keep = append(keep, seg)
	}
	w.segments = append([]walSegment(nil), keep...)
	return syncDir(w.dir)
}

// listSegments finds and orders the segment files in dir.
func listSegments(dir string) ([]walSegment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []walSegment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, walSegPrefix) || !strings.HasSuffix(name, walSegSuffix) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, walSegPrefix), walSegSuffix), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("persist: unparseable WAL segment name %q", name)
		}
		segs = append(segs, walSegment{first: first, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// segmentReader reads whole segment files into one buffer it reuses, so
// a boot that scans many segments allocates a buffer per reader, not one
// per segment. Every read of a segment goes through it.
type segmentReader struct {
	buf []byte
}

// read returns the contents of the file at path, valid until the next
// read.
func (r *segmentReader) read(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if int64(cap(r.buf)) < st.Size() {
		r.buf = make([]byte, st.Size())
	}
	data := r.buf[:st.Size()]
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, err
	}
	return data, nil
}

// scan parses one segment, calling fn (when non-nil) per valid record.
// It returns the byte offset past the last valid record, the last valid
// LSN (0 if none), and whether the segment ends in a torn or invalid
// record. I/O failures are returned as errors; parse failures are
// "torn" — the caller decides whether that is tolerable (final segment)
// or corruption (mid-log).
func (r *segmentReader) scan(seg walSegment, fn func(lsn uint64, payload []byte) error) (validEnd int64, lastLSN uint64, torn bool, err error) {
	data, err := r.read(seg.path)
	if err != nil {
		return 0, 0, false, err
	}
	var off int64
	want := seg.first
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return off, lastLSN, false, nil
		}
		if len(rest) < walHeaderSize {
			return off, lastLSN, true, nil
		}
		n := binary.LittleEndian.Uint32(rest[0:])
		lsn := binary.LittleEndian.Uint64(rest[4:])
		crc := binary.LittleEndian.Uint32(rest[12:])
		if n > walMaxPayload || int64(n) > int64(len(rest)-walHeaderSize) {
			return off, lastLSN, true, nil
		}
		payload := rest[walHeaderSize : walHeaderSize+int64(n)]
		sum := crc32.Update(0, crcTable, rest[4:12])
		sum = crc32.Update(sum, crcTable, payload)
		// LSNs within a segment are monotone from the segment's name
		// (gaps are legal after AdvanceTo), so a stale record a crashy
		// filesystem resurfaced from an older position also fails here.
		if sum != crc || lsn < want {
			return off, lastLSN, true, nil
		}
		if fn != nil {
			if err := fn(lsn, payload); err != nil {
				return off, lastLSN, false, err
			}
		}
		lastLSN = lsn
		want = lsn + 1
		off += walHeaderSize + int64(n)
	}
}

// syncDir fsyncs a directory so file creations, deletions and renames in
// it are durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
