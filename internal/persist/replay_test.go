package persist

import (
	"path/filepath"
	"strings"
	"testing"

	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
	"ldprecover/internal/stream"
)

// TestOpenRejectsInvalidRecord: a WAL record that passes its CRC but
// cannot be folded — a structurally invalid report-batch frame, or a
// partial tally over another domain — fails Open with an error naming
// the record. No panic, and no earlier record is folded first, so the
// manager comes back untouched.
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
	otherDomain, _ := partialFrame(t, 2*d, 0, nil)

	for name, bad := range map[string][]byte{"report batch": badBatch, "partial tally": otherDomain} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := OpenWAL(filepath.Join(dir, "wal"), WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range [][]byte{good, bad, good} {
				if _, err := w.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			mgr, err := stream.NewEpochManager(stream.Config{Params: proto.Params(), TargetK: -1})
			if err != nil {
				t.Fatal(err)
			}
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
			buf, p := partialFrame(t, d, 1, reps)
			if err := store.AppendPartial(buf, p); err != nil {
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
