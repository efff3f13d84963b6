package persist

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
	"ldprecover/internal/stream"
)

// TestOpenRejectsInvalidRecord: a WAL record that passes its CRC but
// cannot be folded — a structurally invalid report-batch frame, or a
// partial tally over another domain — fails Open with an error naming
// the record. No panic, and nothing reaches the manager, so it comes
// back untouched. Over a many-segment log replayed by several workers,
// the error names the lowest failing record on every open, and a torn
// non-final segment is still corruption.
func TestOpenRejectsInvalidRecord(t *testing.T) {
	const d = 16
	proto, err := ldp.NewOUE(d, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	var reps []ldp.Report
	for v := range d {
		rep, err := proto.Perturb(r, v)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	good := frame(t, reps)
	// The first sub-frame's tag byte (after the 7-byte batch header and
	// its 4-byte length and version byte) set to an unknown tag: every
	// length still adds up, but the frame no longer parses. The WAL
	// checksums it like any record.
	badBatch := append([]byte(nil), good...)
	badBatch[7+4+1] = 0xee
	otherDomain := partialFrame(t, 2*d, 0, nil).Bytes()
	newMgr := func(t *testing.T) *stream.EpochManager {
		t.Helper()
		mgr, err := stream.NewEpochManager(stream.Config{Params: proto.Params(), TargetK: -1})
		if err != nil {
			t.Fatal(err)
		}
		return mgr
	}
	// writeWAL logs recs under dir/wal and returns its segments.
	writeWAL := func(t *testing.T, dir string, opts WALOptions, recs [][]byte) []walSegment {
		t.Helper()
		w, err := OpenWAL(filepath.Join(dir, "wal"), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if _, err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := listSegments(filepath.Join(dir, "wal"))
		if err != nil {
			t.Fatal(err)
		}
		return segs
	}

	for name, bad := range map[string][]byte{"report batch": badBatch, "partial tally": otherDomain} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			writeWAL(t, dir, WALOptions{}, [][]byte{good, bad, good})
			mgr := newMgr(t)
			if _, err := Open(dir, mgr, Options{}); err == nil {
				t.Fatal("Open replayed a WAL holding a record it cannot fold")
			} else if !strings.Contains(err.Error(), "WAL record 2: "+name) {
				t.Fatalf("error %q does not name record 2", err)
			}
			if got := mgr.Stats().IngestedTotal; got != 0 {
				t.Fatalf("failed Open folded %d reports into the manager", got)
			}
		})
	}

	// Two records per segment: segment k holds LSNs 2k+1 and 2k+2. A
	// segment rotates once it reaches SegmentBytes, i.e. after its
	// second record.
	const segments = 14
	twoPerSegment := WALOptions{SegmentBytes: int64(2*(walHeaderSize+len(good)) - 1), SyncEvery: -1}
	goodRecords := func() [][]byte {
		recs := make([][]byte, 2*segments)
		for i := range recs {
			recs[i] = good
		}
		return recs
	}
	// openFails opens dir 20 times with 4 workers and wants every open to
	// fail with an error containing want, folding nothing.
	openFails := func(t *testing.T, dir, want string) {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		for range 20 {
			mgr := newMgr(t)
			if _, err := Open(dir, mgr, Options{SegmentBytes: twoPerSegment.SegmentBytes}); err == nil {
				t.Fatal("Open replayed a corrupt many-segment WAL")
			} else if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q, want it to contain %q", err, want)
			}
			if got := mgr.Stats().IngestedTotal; got != 0 {
				t.Fatalf("failed Open folded %d reports into the manager", got)
			}
		}
	}

	t.Run("lowest of several segments", func(t *testing.T) {
		dir := t.TempDir()
		recs := goodRecords()
		recs[2*3+1] = badBatch // segment 3, LSN 8
		recs[2*9] = badBatch   // segment 9, LSN 19
		segs := writeWAL(t, dir, twoPerSegment, recs)
		if len(segs) < segments || segs[3].first != 7 || segs[9].first != 19 {
			t.Fatalf("unexpected segment layout %+v", segs)
		}
		openFails(t, dir, "WAL record 8: report batch")
	})

	t.Run("torn non-final segment", func(t *testing.T) {
		dir := t.TempDir()
		recs := goodRecords()
		recs[2*9] = badBatch // a later invalid record must not win
		segs := writeWAL(t, dir, twoPerSegment, recs)
		chop(t, segs[5].path, 3)
		openFails(t, dir, fmt.Sprintf("WAL segment %s is corrupt mid-log", filepath.Base(segs[5].path)))
	})
}

// TestStoreParallelReplayEquivalence: a many-segment WAL tail mixing
// report frames (one of them empty) with partial tallies, behind a
// snapshot whose position falls inside a segment, restores the same
// RestoreInfo and the same sealed estimate, bit for bit, as a manager
// that never crashed — whatever the number of replay workers.
func TestStoreParallelReplayEquivalence(t *testing.T) {
	const d = 32
	proto, err := ldp.NewOUE(d, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stream.Config{Params: proto.Params(), TargetK: -1}
	r := rng.New(23)
	type record struct {
		frame   []byte
		partial *ldp.CountFrame // nil for a report batch
		reports int
	}
	// Seals after records 15 and 28; the crash comes after the last
	// record. The segment holding record 28 (LSN 29) also holds LSN 30,
	// so it sits partly at or below the restored snapshot's position.
	const lastSeal = 28
	seals := map[int]bool{15: true, lastSeal: true}
	var recs []record
	epoch := 0
	for i := range 90 {
		n := 3 + i%5
		if i == 40 {
			n = 0
		}
		reps := make([]ldp.Report, n)
		for j := range reps {
			if reps[j], err = proto.Perturb(r, r.Intn(d)); err != nil {
				t.Fatal(err)
			}
		}
		if i%3 == 2 {
			p := partialFrame(t, d, epoch, reps)
			recs = append(recs, record{frame: p.Bytes(), partial: &p, reports: n})
		} else {
			recs = append(recs, record{frame: frame(t, reps), reports: n})
		}
		if seals[i] {
			epoch++
		}
	}

	ref, err := stream.NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mgr, err := stream.NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{SegmentBytes: 300, SyncEvery: -1}
	store, err := Open(dir, mgr, opts)
	if err != nil {
		t.Fatal(err)
	}
	var want RestoreInfo
	var after uint64
	for i, rec := range recs {
		if rec.partial != nil {
			if err := store.AppendPartial(*rec.partial); err != nil {
				t.Fatal(err)
			}
			if err := ref.AddPartialFrame(*rec.partial); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := store.AppendBatchFrame(rec.frame); err != nil {
				t.Fatal(err)
			}
			if err := ref.AddBatchFrame(rec.frame); err != nil {
				t.Fatal(err)
			}
		}
		if i > lastSeal { // the tail above the last snapshot
			if rec.partial != nil {
				want.ReplayedPartials++
				want.ReplayedPartialUsers += int64(rec.reports)
			} else {
				want.ReplayedBatches++
				want.ReplayedReports += int64(rec.reports)
			}
		}
		if seals[i] {
			if _, err := store.Seal(); err != nil {
				t.Fatal(err)
			}
			if _, err := ref.Seal(); err != nil {
				t.Fatal(err)
			}
			want.SnapshotSeq++
			after = store.wal.LastLSN()
		}
	}
	// Crash: no Close, no final seal.
	wantEst, err := ref.Seal()
	if err != nil {
		t.Fatal(err)
	}

	segs, err := listSegments(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 24 {
		t.Fatalf("WAL holds %d segments, want >= 24", len(segs))
	}
	straddles := false
	for i, seg := range segs {
		if seg.first <= after && i+1 < len(segs) && segs[i+1].first > after+1 {
			straddles = true
		}
	}
	if !straddles {
		t.Fatalf("no segment holds records on both sides of the snapshot position %d: %+v", after, segs)
	}

	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			mgr2, err := stream.NewEpochManager(cfg)
			if err != nil {
				t.Fatal(err)
			}
			store2, err := Open(dir, mgr2, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer store2.Close()
			if got := store2.Restored(); got != want {
				t.Fatalf("restore info %+v, want %+v", got, want)
			}
			// Seal in memory only: the store's directory is shared by
			// every subtest and must stay as the crash left it.
			est, err := mgr2.Seal()
			if err != nil {
				t.Fatal(err)
			}
			if est.Total != wantEst.Total || !sameBits(est.Poisoned, wantEst.Poisoned) ||
				!sameBits(est.Recovered, wantEst.Recovered) {
				t.Fatalf("restored seal diverged:\n got %+v\nwant %+v", est, wantEst)
			}
		})
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestStoreReplayCountsFrames: RestoreInfo's replay counters are exact
// over a WAL tail mixing report-batch frames of varied sizes (an empty
// one included) with partial tallies, and count only the records above
// the snapshot.
func TestStoreReplayCountsFrames(t *testing.T) {
	const d = 32
	proto, err := ldp.NewOUE(d, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stream.Config{Params: proto.Params(), TargetK: -1}
	r := rng.New(11)
	batch := func(n int) []ldp.Report {
		reps := make([]ldp.Report, n)
		for i := range reps {
			rep, err := proto.Perturb(r, r.Intn(d))
			if err != nil {
				t.Fatal(err)
			}
			reps[i] = rep
		}
		return reps
	}

	dir := t.TempDir()
	mgr, err := stream.NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := Open(dir, mgr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Sealed before the crash: the snapshot covers these records.
	if err := store.AppendBatchFrame(frame(t, batch(40))); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Seal(); err != nil {
		t.Fatal(err)
	}
	var want RestoreInfo
	want.SnapshotSeq = 1
	for i, n := range []int{1, 7, 0, 9, 269, 64} {
		reps := batch(n)
		if i%2 == 1 {
			p := partialFrame(t, d, 1, reps)
			if err := store.AppendPartial(p); err != nil {
				t.Fatal(err)
			}
			want.ReplayedPartials++
			want.ReplayedPartialUsers += int64(n)
			continue
		}
		f := frame(t, reps)
		count, err := ldp.ValidateReportBatchFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.AppendBatchFrame(f); err != nil {
			t.Fatal(err)
		}
		want.ReplayedBatches++
		want.ReplayedReports += int64(count)
	}
	live := mgr.Stats().LiveTotal
	// Crash: no Close, no final seal.

	mgr2, err := stream.NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store2, err := Open(dir, mgr2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if got := store2.Restored(); got != want {
		t.Fatalf("restore info %+v, want %+v", got, want)
	}
	if got := mgr2.Stats().LiveTotal; got != live {
		t.Fatalf("replayed live epoch holds %d reports, pre-crash %d", got, live)
	}
}
