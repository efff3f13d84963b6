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

// TestSnapshotStoreRoundTrip: a root restored from its per-seal
// snapshot serves the same window estimate and resumes at the same
// sealed watermark.
func TestSnapshotStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mgr := rootTestManager(t)
	store, err := OpenSnapshotStore(dir, mgr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if store.Restored().SnapshotSeq != 0 {
		t.Fatalf("cold start restored %+v", store.Restored())
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
	store2, err := OpenSnapshotStore(dir, mgr2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if store2.Restored().SnapshotSeq != 3 {
		t.Fatalf("restored %+v, want 3 sealed epochs", store2.Restored())
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
// WAL belongs to a frontend or single-node server; opening it as a root
// snapshot store must refuse, not replay tally-incompatible frames.
func TestSnapshotStoreRejectsReportWAL(t *testing.T) {
	dir := t.TempDir()
	mgr := rootTestManager(t)
	// Give the directory a report-level WAL, as a frontend would.
	front, err := Open(dir, mgr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := ldp.GRRReport(3)
	frame, err := ldp.MarshalReportBatch([]ldp.Report{rep})
	if err != nil {
		t.Fatal(err)
	}
	if err := front.AppendBatchFrame(frame); err != nil {
		t.Fatal(err)
	}
	if err := front.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = OpenSnapshotStore(dir, rootTestManager(t), 2)
	if err == nil {
		t.Fatal("root snapshot store opened over a report-level WAL")
	}
	if !strings.Contains(err.Error(), "report-level WAL") {
		t.Fatalf("error %q does not explain the WAL conflict", err)
	}
}
