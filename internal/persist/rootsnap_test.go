package persist

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ldprecover/internal/ldp"
	"ldprecover/internal/stream"
)

func rootTestManager(t *testing.T) *stream.EpochManager {
	t.Helper()
	mgr, err := stream.NewEpochManager(stream.Config{
		Params:  ldp.Params{Epsilon: 0.7, P: 0.5, Q: 0.25, Domain: 8},
		Window:  2,
		History: 4,
		TargetK: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

// bootRoot opens a root over dir the way a durable root boots: a
// StandbyTailer restores the newest snapshot into mgr, Promote wraps it
// in a merger, and AttachSnapshotStore takes over the per-seal writes.
// restored is the restored snapshot's seal count, 0 on a cold start.
func bootRoot(dir string, mgr *stream.EpochManager) (store *SnapshotStore, restored int, err error) {
	tailer, err := NewStandbyTailer(dir, func() (*stream.EpochManager, error) { return mgr, nil })
	if err != nil {
		return nil, 0, err
	}
	merger, err := tailer.Promote([]string{"fe-0"})
	if err != nil {
		return nil, 0, err
	}
	restored, _ = tailer.SnapshotSeq()
	store, err = AttachSnapshotStore(dir, merger)
	return store, restored, err
}

// TestSnapshotStoreRoundTrip: a root restored from its per-seal
// snapshot serves the same window estimate and resumes at the same
// sealed watermark.
func TestSnapshotStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mgr := rootTestManager(t)
	store, restored, err := bootRoot(dir, mgr)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 0 || mgr.Stats().Epochs != 0 {
		t.Fatalf("cold start restored %d sealed epochs", restored)
	}
	counts := []int64{5, 4, 3, 2, 1, 0, 7, 6}
	for e := 0; e < 3; e++ {
		if err := mgr.AddCounts(counts, 20); err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Seal(); err != nil {
			t.Fatal(err)
		}
		if err := store.Persist(); err != nil {
			t.Fatal(err)
		}
	}
	want := mgr.Latest()

	mgr2 := rootTestManager(t)
	if _, restored, err = bootRoot(dir, mgr2); err != nil {
		t.Fatal(err)
	}
	if restored != 3 {
		t.Fatalf("restored %d sealed epochs, want 3", restored)
	}
	if !reflect.DeepEqual(mgr2.Latest(), want) {
		t.Fatal("restored latest estimate differs")
	}
	if got := mgr2.Stats().Epochs; got != 3 {
		t.Fatalf("restored %d epochs", got)
	}
	// Retention pruned to 2 generations.
	snaps, err := os.ReadDir(filepath.Join(dir, "snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("%d snapshot files retained, want 2", len(snaps))
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Persist(); err == nil {
		t.Fatal("persist after close succeeded")
	}
}

// TestSnapshotStoreRejectsReportWAL: a directory holding a report-level
// WAL belongs to a frontend or single-node server; booting a root over
// it must refuse, not replay tally-incompatible frames.
func TestSnapshotStoreRejectsReportWAL(t *testing.T) {
	dir := t.TempDir()
	mgr := rootTestManager(t)
	// Give the directory a report-level WAL, as a frontend would.
	front, err := Open(dir, mgr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := front.AppendBatchFrame(frame(t, []ldp.Report{ldp.GRRReport(3)})); err != nil {
		t.Fatal(err)
	}
	if err := front.Close(); err != nil {
		t.Fatal(err)
	}

	_, _, err = bootRoot(dir, rootTestManager(t))
	if err == nil {
		t.Fatal("root snapshot store opened over a report-level WAL")
	}
	if !strings.Contains(err.Error(), "report-level WAL") {
		t.Fatalf("error %q does not explain the WAL conflict", err)
	}
}
