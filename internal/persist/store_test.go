package persist

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ldprecover/internal/attack"
	"ldprecover/internal/detect"
	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
	"ldprecover/internal/stream"
)

// testManagerState drives a real manager through a few epochs and
// exports its state, so snapshot round trips exercise realistic floats,
// history rows and tracker contents.
func testManagerState(t testing.TB) stream.ManagerState {
	t.Helper()
	proto, err := ldp.NewOUE(24, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := stream.NewEpochManager(stream.Config{
		Params: proto.Params(), Window: 2, History: 6, StableAfter: 2, MinHistory: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	counts := make([]int64, 24)
	for e := 0; e < 5; e++ {
		for v := range counts {
			counts[v] = int64(300 + 10*v)
		}
		if e >= 3 {
			counts[7] += 800 // a spike the z-score should notice
		}
		sim, err := proto.SimulateGenuineCounts(r, counts)
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		for _, c := range counts {
			n += c
		}
		if err := m.AddCounts(sim, n); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	return m.SnapshotState()
}

func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	st := testManagerState(t)
	st.Tracker = detect.TrackerState{Last: []int{7}, Streak: 1, Stable: []int{3, 9}}
	buf := encodeSnapshot(42, st)
	walSeq, got, err := decodeSnapshot(buf)
	if err != nil {
		t.Fatal(err)
	}
	if walSeq != 42 {
		t.Fatalf("walSeq %d, want 42", walSeq)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, st)
	}

	// Every kind of damage must be rejected, never mis-decoded.
	for name, mangle := range map[string]func([]byte) []byte{
		"bit-flip":     func(b []byte) []byte { b[len(b)/2] ^= 1; return b },
		"truncated":    func(b []byte) []byte { return b[:len(b)-5] },
		"trailing":     func(b []byte) []byte { return append(b, 0) },
		"bad-magic":    func(b []byte) []byte { b[0] = 'X'; return b },
		"empty":        func(b []byte) []byte { return nil },
		"short-header": func(b []byte) []byte { return b[:6] },
	} {
		buf := encodeSnapshot(42, st)
		if _, _, err := decodeSnapshot(mangle(buf)); err == nil {
			t.Errorf("%s snapshot decoded without error", name)
		}
	}

	// A well-formed future version (valid CRC) must fail on the version
	// field, not mis-decode.
	v2 := encodeSnapshot(42, st)
	v2[4] = 2
	v2 = v2[:len(v2)-4]
	v2 = binary.LittleEndian.AppendUint32(v2, crc32.Checksum(v2, crcTable))
	if _, _, err := decodeSnapshot(v2); err == nil {
		t.Error("future snapshot version decoded without error")
	}
}

func TestSnapshotWriteLoadPrune(t *testing.T) {
	dir := t.TempDir()
	st := testManagerState(t)

	// No snapshots yet.
	_, _, found, err := LoadLatestSnapshot(dir)
	if err != nil || found {
		t.Fatalf("empty dir: found=%v err=%v", found, err)
	}

	// Write three generations with distinct Seq/walSeq.
	for i := 1; i <= 3; i++ {
		gen := st
		gen.Seq = st.Seq + i
		if _, err := WriteSnapshot(dir, uint64(100+i), gen); err != nil {
			t.Fatal(err)
		}
	}
	walSeq, got, found, err := LoadLatestSnapshot(dir)
	if err != nil || !found {
		t.Fatalf("found=%v err=%v", found, err)
	}
	if walSeq != 103 || got.Seq != st.Seq+3 {
		t.Fatalf("loaded walSeq=%d seq=%d, want 103/%d", walSeq, got.Seq, st.Seq+3)
	}

	// Corrupt the newest: the loader must fall back to the next valid one.
	snaps, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snaps[0].path, []byte("ruined"), 0o644); err != nil {
		t.Fatal(err)
	}
	walSeq, got, found, err = LoadLatestSnapshot(dir)
	if err != nil || !found {
		t.Fatalf("fallback: found=%v err=%v", found, err)
	}
	if walSeq != 102 || got.Seq != st.Seq+2 {
		t.Fatalf("fallback loaded walSeq=%d seq=%d, want 102/%d", walSeq, got.Seq, st.Seq+2)
	}

	// A leftover temp file from an interrupted write is swept, and
	// pruning keeps only the newest two.
	if err := os.WriteFile(filepath.Join(dir, snapPrefix+"zzz"+snapSuffix+".tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := pruneSnapshots(dir, 2); err != nil {
		t.Fatal(err)
	}
	snaps, err = listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("%d snapshots after pruning, want 2", len(snaps))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("temp file %s survived", e.Name())
		}
	}
}

// storeConfig is the stream configuration shared by the store tests: a
// window under history, hysteresis short enough to engage mid-test.
func storeConfig(t testing.TB, proto ldp.Protocol) stream.Config {
	t.Helper()
	return stream.Config{
		Params: proto.Params(), Window: 2, History: 10,
		StableAfter: 2, MinHistory: 3, TargetK: 3,
	}
}

// epochBatches pre-generates per-epoch report batches — quiet epochs
// first, then epochs with an MGA attacker — identical for every manager
// that ingests them.
func epochBatches(t testing.TB, proto ldp.Protocol, d, quiet, attacked int) [][][]ldp.Report {
	t.Helper()
	r := rng.New(77)
	trueCounts := make([]int64, d)
	for v := range trueCounts {
		trueCounts[v] = 120
	}
	mga, err := attack.NewMGA([]int{3, d - 2})
	if err != nil {
		t.Fatal(err)
	}
	var epochs [][][]ldp.Report
	for e := 0; e < quiet+attacked; e++ {
		reps, err := ldp.PerturbAll(proto, r, trueCounts)
		if err != nil {
			t.Fatal(err)
		}
		if e >= quiet {
			mal, err := mga.CraftReports(r, proto, int64(d)*120/8)
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, mal...)
		}
		// Split each epoch into a few wire batches.
		var batches [][]ldp.Report
		const per = 500
		for lo := 0; lo < len(reps); lo += per {
			hi := min(lo+per, len(reps))
			batches = append(batches, reps[lo:hi])
		}
		epochs = append(epochs, batches)
	}
	return epochs
}

// frame encodes and validates a batch for AppendBatchFrame.
func frame(t testing.TB, reps []ldp.Report) ldp.ReportFrame {
	t.Helper()
	buf, err := ldp.MarshalReportBatch(reps)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ldp.ValidateReportBatchFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestStoreCrashRestartEquivalence is the persistence acceptance at the
// store level: a durable manager that "crashes" (is abandoned without a
// clean close) mid-epoch and is reopened from snapshot + WAL tail must
// produce, for the rest of the stream, estimates bit-identical to an
// uninterrupted in-memory manager fed the same reports — including the
// epoch at which LDPRecover* engages.
func TestStoreCrashRestartEquivalence(t *testing.T) {
	const d, quiet, attacked = 16, 4, 4
	proto, err := ldp.NewOUE(d, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	epochs := epochBatches(t, proto, d, quiet, attacked)

	// Reference: uninterrupted, in-memory.
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

	// Durable run, crashing after sealing epoch `crashAt` plus one extra
	// batch of the next epoch (so the WAL tail is non-empty). crashAt is
	// the first attacked epoch: the tracker streak is mid-hysteresis and
	// the LDPRecover* promotion must happen after the restart.
	const crashAt = quiet
	dir := t.TempDir()
	mgr, err := stream.NewEpochManager(storeConfig(t, proto))
	if err != nil {
		t.Fatal(err)
	}
	store, err := Open(dir, mgr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ri := store.Restored(); ri != (RestoreInfo{}) {
		t.Fatalf("cold start restored %+v", ri)
	}
	var got []*stream.WindowEstimate
	for e := 0; e <= crashAt; e++ {
		for _, b := range epochs[e] {
			if err := store.AppendBatchFrame(frame(t, b)); err != nil {
				t.Fatal(err)
			}
		}
		est, err := store.Seal()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, est)
	}
	if err := store.AppendBatchFrame(frame(t, epochs[crashAt+1][0])); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close, no final seal. (The abandoned store's descriptor
	// stays open; it writes nothing further.)

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
	if ri.SnapshotSeq != crashAt+1 || ri.ReplayedBatches != 1 ||
		ri.ReplayedReports != int64(len(epochs[crashAt+1][0])) {
		t.Fatalf("restore info %+v", ri)
	}
	// The restored Latest() is the pre-crash serving estimate.
	if !reflect.DeepEqual(mgr2.Latest(), got[crashAt]) {
		t.Fatal("restored Latest() differs from the pre-crash estimate")
	}
	// Continue the stream: rest of the crashed epoch, then the remainder.
	for _, b := range epochs[crashAt+1][1:] {
		if err := store2.AppendBatchFrame(frame(t, b)); err != nil {
			t.Fatal(err)
		}
	}
	est, err := store2.Seal()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, est)
	for e := crashAt + 2; e < len(epochs); e++ {
		for _, b := range epochs[e] {
			if err := store2.AppendBatchFrame(frame(t, b)); err != nil {
				t.Fatal(err)
			}
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
			t.Fatalf("epoch %d estimate diverged after restart:\n got %+v\nwant %+v", e, got[e], want[e])
		}
		if want[e].PartialKnowledge && engaged < 0 {
			engaged = e
		}
	}
	// The point of persisting history + hysteresis: the upgrade must
	// actually have happened (after the restart) for the comparison to
	// mean anything.
	if engaged <= crashAt {
		t.Fatalf("LDPRecover* engaged at epoch %d, not after the crash at %d", engaged, crashAt)
	}
	if st := mgr2.Stats(); !reflect.DeepEqual(st.Targets, []int{3, d - 2}) {
		t.Fatalf("restored stream identified targets %v", st.Targets)
	}
}

// TestStoreTornTailOnReplay: a torn final WAL record (crash mid-append)
// loses only that batch; the reopened store replays the intact prefix.
func TestStoreTornTailOnReplay(t *testing.T) {
	const d = 12
	proto, err := ldp.NewOUE(d, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mgr, err := stream.NewEpochManager(stream.Config{Params: proto.Params(), TargetK: -1})
	if err != nil {
		t.Fatal(err)
	}
	store, err := Open(dir, mgr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reps, err := ldp.PerturbAll(proto, rng.New(5), []int64{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := store.AppendBatchFrame(frame(t, reps)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash mid-append: the last record loses its final bytes.
	chop(t, lastSegment(t, filepath.Join(dir, "wal")), 5)

	mgr2, err := stream.NewEpochManager(stream.Config{Params: proto.Params(), TargetK: -1})
	if err != nil {
		t.Fatal(err)
	}
	store2, err := Open(dir, mgr2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	ri := store2.Restored()
	if ri.ReplayedBatches != 2 || ri.ReplayedReports != int64(2*len(reps)) {
		t.Fatalf("restore info %+v, want 2 intact batches", ri)
	}
	if got := mgr2.Stats().IngestedTotal; got != int64(2*len(reps)) {
		t.Fatalf("replayed %d reports, want %d", got, 2*len(reps))
	}
}

// TestStoreLostWALGuard: a snapshot whose WAL position outruns a wiped
// log must not cause fresh appends to land on covered LSNs.
func TestStoreLostWALGuard(t *testing.T) {
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
	reps, err := ldp.PerturbAll(proto, rng.New(6), []int64{5, 5, 5, 5, 5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := store.AppendBatchFrame(frame(t, reps)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := store.Seal(); err != nil {
		t.Fatal(err)
	}
	store.Close()
	// Wipe the WAL; the snapshot survives.
	if err := os.RemoveAll(filepath.Join(dir, "wal")); err != nil {
		t.Fatal(err)
	}

	mgr2, err := stream.NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store2, err := Open(dir, mgr2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// New batches get fresh LSNs above the snapshot point…
	if err := store2.AppendBatchFrame(frame(t, reps)); err != nil {
		t.Fatal(err)
	}
	store2.Close()
	// …so yet another reopen replays exactly the new batch.
	mgr3, err := stream.NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store3, err := Open(dir, mgr3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store3.Close()
	if ri := store3.Restored(); ri.ReplayedBatches != 1 {
		t.Fatalf("restore info %+v, want the post-wipe batch replayed", ri)
	}
}

// TestStoreSnapshotFallbackConservesReports: WAL truncation stops at the
// oldest *retained* snapshot, so when the newest snapshot is damaged
// after the fact (the case 2-generation retention exists for), the
// fallback restore still finds every record above its own position — it
// loses the epoch boundaries sealed since, never the reports.
func TestStoreSnapshotFallbackConservesReports(t *testing.T) {
	const d = 8
	proto, err := ldp.NewOUE(d, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stream.Config{Params: proto.Params(), Window: 2, History: 4, TargetK: -1}
	dir := t.TempDir()
	mgr, err := stream.NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := Open(dir, mgr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reps, err := ldp.PerturbAll(proto, rng.New(31), []int64{6, 6, 6, 6, 6, 6, 6, 6})
	if err != nil {
		t.Fatal(err)
	}
	buf := frame(t, reps)
	var total int64
	for epoch := 0; epoch < 2; epoch++ {
		for i := 0; i < 3; i++ {
			if err := store.AppendBatchFrame(buf); err != nil {
				t.Fatal(err)
			}
			total += int64(len(reps))
		}
		if _, err := store.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	store.Close()

	// Damage the newest snapshot on disk.
	snaps, err := listSnapshots(filepath.Join(dir, "snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("%d snapshots retained, want 2", len(snaps))
	}
	if err := os.WriteFile(snaps[0].path, []byte("ruined"), 0o644); err != nil {
		t.Fatal(err)
	}

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
	if ri.SnapshotSeq != 1 {
		t.Fatalf("fell back to snapshot of %d epochs, want 1", ri.SnapshotSeq)
	}
	// Epoch 2's three batches came back from the WAL (into the live
	// epoch — boundaries since the fallback are lost, reports are not).
	if ri.ReplayedBatches != 3 {
		t.Fatalf("replayed %d batches, want 3", ri.ReplayedBatches)
	}
	st := mgr2.Stats()
	if st.IngestedTotal != total {
		t.Fatalf("restored %d reports, want %d", st.IngestedTotal, total)
	}
	if st.Epochs != 1 || st.LiveTotal != total/2 {
		t.Fatalf("fallback shape: %+v", st)
	}
}

// TestStoreWALGapFailsLoudly: when no loadable snapshot reaches back to
// the log's surviving records — here both retained snapshots damaged
// after the WAL was truncated past older positions — boot must fail
// instead of silently serving a partial stream.
func TestStoreWALGapFailsLoudly(t *testing.T) {
	const d = 8
	proto, err := ldp.NewOUE(d, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stream.Config{Params: proto.Params(), Window: 2, History: 8, TargetK: -1}
	dir := t.TempDir()
	mgr, err := stream.NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := Open(dir, mgr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reps, err := ldp.PerturbAll(proto, rng.New(32), []int64{6, 6, 6, 6, 6, 6, 6, 6})
	if err != nil {
		t.Fatal(err)
	}
	buf := frame(t, reps)
	// Enough seals that truncation has deleted the earliest records.
	for epoch := 0; epoch < 4; epoch++ {
		if err := store.AppendBatchFrame(buf); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	store.Close()
	snaps, err := listSnapshots(filepath.Join(dir, "snap"))
	if err != nil {
		t.Fatal(err)
	}
	for _, sf := range snaps {
		if err := os.WriteFile(sf.path, []byte("ruined"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mgr2, err := stream.NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, mgr2, Options{})
	if err == nil {
		t.Fatal("booted over a WAL whose early records were truncated away")
	}
	// The refusal folds the teardown Close error in with errors.Join;
	// the primary gap diagnosis must survive the composition.
	if !strings.Contains(err.Error(), "records in between are gone") {
		t.Fatalf("gap refusal lost its diagnosis: %v", err)
	}
}

// TestStoreConcurrentAppendAndSeal hammers durable ingest from several
// goroutines while sealing continuously — the serve layer's actual
// concurrency shape (run under -race by make race) — then reopens the
// store and checks conservation: snapshot + WAL tail reproduce every
// report that was appended.
func TestStoreConcurrentAppendAndSeal(t *testing.T) {
	const d, appenders, perAppender = 16, 4, 30
	proto, err := ldp.NewOUE(d, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stream.Config{Params: proto.Params(), Window: 2, History: 4, TargetK: -1}
	dir := t.TempDir()
	mgr, err := stream.NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Lazy fsync keeps the test quick; seals still sync at boundaries.
	store, err := Open(dir, mgr, Options{SyncEvery: -1, SegmentBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, d)
	for v := range counts {
		counts[v] = 3
	}
	reps, err := ldp.PerturbAll(proto, rng.New(14), counts)
	if err != nil {
		t.Fatal(err)
	}
	buf := frame(t, reps)

	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perAppender; i++ {
				if err := store.AppendBatchFrame(buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	sealDone := make(chan struct{})
	go func() {
		defer close(sealDone)
		for i := 0; i < 10; i++ {
			if _, err := store.Seal(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-sealDone
	wantTotal := int64(appenders * perAppender * len(reps))
	if got := mgr.Stats().IngestedTotal; got != wantTotal {
		t.Fatalf("ingested %d reports, want %d", got, wantTotal)
	}
	// Crash (no close) and reopen: snapshot + WAL tail conserve every
	// appended report.
	mgr2, err := stream.NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store2, err := Open(dir, mgr2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if got := mgr2.Stats().IngestedTotal; got != wantTotal {
		t.Fatalf("restored %d reports, want %d", got, wantTotal)
	}
}

// TestStoreClosedAndInvalid exercises the error surfaces.
func TestStoreClosedAndInvalid(t *testing.T) {
	if _, err := Open(t.TempDir(), nil, Options{}); err == nil {
		t.Fatal("nil manager accepted")
	}
	proto, err := ldp.NewOUE(8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := stream.NewEpochManager(stream.Config{Params: proto.Params()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(t.TempDir(), mgr, Options{KeepSnapshots: -1}); err == nil {
		t.Fatal("negative snapshot retention accepted")
	}
	store, err := Open(t.TempDir(), mgr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := store.AppendBatchFrame(frame(t, nil)); err == nil {
		t.Fatal("append on closed store succeeded")
	}
	if _, err := store.Seal(); err == nil {
		t.Fatal("seal on closed store succeeded")
	}
}
