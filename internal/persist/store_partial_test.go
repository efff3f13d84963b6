package persist

import (
	"errors"
	"reflect"
	"testing"

	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
	"ldprecover/internal/stream"
)

// partialFrame runs reps through a Collector and returns the validated
// view of the flushed wire frame, which AppendPartial takes.
func partialFrame(t testing.TB, d int, hint int, reps []ldp.Report) ldp.CountFrame {
	t.Helper()
	col, err := ldp.NewCollector("edge-test", d)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.AddBatch(reps); err != nil {
		t.Fatal(err)
	}
	buf, err := col.Flush(hint)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ldp.ValidatePartialFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStoreMixedLaneCrashRestartEquivalence is the tally-first ingest
// acceptance at the store level: a stream ingested over both lanes —
// zero-copy batch frames and edge-aggregated partial tallies — with a
// crash and restart in the middle must produce
// estimates bit-identical to an uninterrupted in-memory manager fed
// every report through the plain report-level path.
func TestStoreMixedLaneCrashRestartEquivalence(t *testing.T) {
	const d, quiet, attacked = 16, 4, 4
	proto, err := ldp.NewOUE(d, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	epochs := epochBatches(t, proto, d, quiet, attacked)

	// Reference: uninterrupted, in-memory, pure report-level.
	ref, err := stream.NewEpochManager(storeConfig(t, proto))
	if err != nil {
		t.Fatal(err)
	}
	var want []*stream.WindowEstimate
	for _, batches := range epochs {
		for _, b := range batches {
			if err := ref.AddBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		est, err := ref.Seal()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, est)
	}

	// Durable run: batch i of epoch e goes through lane (e+i)%3 — a
	// zero-copy frame for 0 and 1, a Collector partial (with the current
	// epoch as its hint) for 2. Crash after sealing epoch crashAt plus a
	// partial and a zero-copy frame of the next epoch, so the WAL tail
	// replay covers both new record kinds.
	const crashAt = quiet
	ingest := func(store *Store, e, i int, b []ldp.Report) {
		t.Helper()
		switch (e + i) % 3 {
		case 0, 1:
			if err := store.AppendBatchFrame(frame(t, b)); err != nil {
				t.Fatal(err)
			}
		default:
			p := partialFrame(t, d, e, b)
			if err := store.AppendPartial(p); err != nil {
				t.Fatal(err)
			}
		}
	}

	dir := t.TempDir()
	mgr, err := stream.NewEpochManager(storeConfig(t, proto))
	if err != nil {
		t.Fatal(err)
	}
	store, err := Open(dir, mgr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got []*stream.WindowEstimate
	for e := 0; e <= crashAt; e++ {
		for i, b := range epochs[e] {
			ingest(store, e, i, b)
		}
		est, err := store.Seal()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, est)
	}
	// Tail of the crashed epoch: one partial, one zero-copy frame.
	next := epochs[crashAt+1]
	p := partialFrame(t, d, crashAt+1, next[0])
	if err := store.AppendPartial(p); err != nil {
		t.Fatal(err)
	}
	if err := store.AppendBatchFrame(frame(t, next[1])); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close, no final seal.

	mgr2, err := stream.NewEpochManager(storeConfig(t, proto))
	if err != nil {
		t.Fatal(err)
	}
	store2, err := Open(dir, mgr2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	ri := store2.Restored()
	if ri.SnapshotSeq != crashAt+1 || ri.ReplayedPartials != 1 ||
		ri.ReplayedPartialUsers != int64(len(next[0])) ||
		ri.ReplayedBatches != 1 || ri.ReplayedReports != int64(len(next[1])) {
		t.Fatalf("restore info %+v", ri)
	}
	if !reflect.DeepEqual(mgr2.Latest(), got[crashAt]) {
		t.Fatal("restored Latest() differs from the pre-crash estimate")
	}
	for i, b := range next[2:] {
		ingest(store2, crashAt+1, i+2, b)
	}
	est, err := store2.Seal()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, est)
	for e := crashAt + 2; e < len(epochs); e++ {
		for i, b := range epochs[e] {
			ingest(store2, e, i, b)
		}
		est, err := store2.Seal()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, est)
	}

	if len(got) != len(want) {
		t.Fatalf("%d estimates vs %d", len(got), len(want))
	}
	engaged := -1
	for e := range want {
		if !reflect.DeepEqual(got[e], want[e]) {
			t.Fatalf("epoch %d estimate diverged from pure report-level:\n got %+v\nwant %+v",
				e, got[e], want[e])
		}
		if want[e].PartialKnowledge && engaged < 0 {
			engaged = e
		}
	}
	if engaged <= crashAt {
		t.Fatalf("LDPRecover* engaged at epoch %d, not after the crash at %d", engaged, crashAt)
	}
}

// TestStoreAppendPartialStaleLeavesNoTrace: a stale partial is rejected
// before it touches the WAL, so a restart replays nothing for it.
func TestStoreAppendPartialStaleLeavesNoTrace(t *testing.T) {
	const d = 8
	proto, err := ldp.NewOUE(d, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stream.Config{Params: proto.Params(), TargetK: -1}
	dir := t.TempDir()
	mgr, err := stream.NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := Open(dir, mgr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reps, err := ldp.PerturbAll(proto, rng.New(9), []int64{4, 4, 4, 4, 4, 4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	p := partialFrame(t, d, 0, reps)
	if err := store.AppendPartial(p); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Seal(); err != nil {
		t.Fatal(err)
	}
	// Watermark is now 1; the same hint-0 partial is stale.
	p2 := partialFrame(t, d, 0, reps)
	if err := store.AppendPartial(p2); !errors.Is(err, stream.ErrStalePartial) {
		t.Fatalf("stale partial: %v, want ErrStalePartial", err)
	}
	if got := mgr.Stats().LiveTotal; got != 0 {
		t.Fatalf("stale partial folded %d live users", got)
	}
	// Crash and reopen: the rejected partial must not replay.
	mgr2, err := stream.NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store2, err := Open(dir, mgr2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	ri := store2.Restored()
	if ri.ReplayedPartials != 0 || ri.ReplayedPartialUsers != 0 {
		t.Fatalf("restore info %+v: rejected partial left a WAL trace", ri)
	}
	if got := mgr2.Stats().IngestedTotal; got != int64(len(reps)) {
		t.Fatalf("restored %d users, want %d", got, len(reps))
	}
}

// TestStoreAppendBatchFrameRejectsCorrupt: nothing but a validated view
// reaches the WAL — replay must never meet a frame the validator would
// refuse. A corrupt frame cannot become a view at all, so the one input
// left to refuse is the zero view, whose empty record would fail replay.
func TestStoreAppendBatchFrameRejectsCorrupt(t *testing.T) {
	const d = 8
	proto, err := ldp.NewOUE(d, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stream.Config{Params: proto.Params(), TargetK: -1}
	dir := t.TempDir()
	mgr, err := stream.NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := Open(dir, mgr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reps, err := ldp.PerturbAll(proto, rng.New(10), []int64{4, 4, 4, 4, 4, 4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	good := frame(t, reps)
	if _, err := ldp.ValidateReportBatchFrame(good.Bytes()[:len(good.Bytes())-1]); err == nil {
		t.Fatal("truncated frame validated")
	}
	if err := store.AppendBatchFrame(ldp.ReportFrame{}); err == nil {
		t.Fatal("zero report frame appended")
	}
	if err := store.AppendBatchFrame(good); err != nil {
		t.Fatal(err)
	}
	// Crash and reopen: exactly the one valid frame replays.
	mgr2, err := stream.NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store2, err := Open(dir, mgr2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if ri := store2.Restored(); ri.ReplayedBatches != 1 || ri.ReplayedReports != int64(len(reps)) {
		t.Fatalf("restore info %+v", ri)
	}
}
