package persist

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ldprecover/internal/ldp"
	"ldprecover/internal/stream"
)

func failoverStreamConfig(d int) stream.Config {
	return stream.Config{
		Params:      ldp.Params{Epsilon: 0.7, P: 0.5, Q: 1.0 / 3.0, Domain: d},
		Window:      2,
		History:     8,
		TargetK:     2,
		MinZ:        2,
		StableAfter: 2,
		MinHistory:  2,
	}
}

// mergeTally submits t to sm the way the root's tally endpoint does:
// marshal, validate the frame, merge the view.
func mergeTally(sm *stream.SealedMerger, t *ldp.Tally) (stream.SubmitResult, error) {
	frame, err := ldp.MarshalTally(t)
	if err != nil {
		return stream.SubmitResult{}, err
	}
	f, err := ldp.ValidateTallyFrame(frame)
	if err != nil {
		return stream.SubmitResult{}, err
	}
	return sm.MergeFrame(f)
}

func TestSealLogAppendReplayAndTornTail(t *testing.T) {
	dir := t.TempDir()
	log, err := OpenSealLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := log.Membership(); ok {
		t.Fatal("fresh log claims membership")
	}
	recs := []SealRecord{
		{Kind: SealRecordMember, Epoch: 0, Node: "fe-2", Join: true,
			Members: []string{"fe-0", "fe-1", "fe-2"}},
		{Kind: SealRecordSeal, Epoch: 0, Nodes: []string{"fe-0", "fe-1", "fe-2"},
			Members: []string{"fe-0", "fe-1", "fe-2"}},
		{Kind: SealRecordMember, Epoch: 2, Node: "fe-0", Join: false,
			Members: []string{"fe-0", "fe-1", "fe-2"},
			Sched:   []stream.MemberChange{{Epoch: 2, Node: "fe-0", Join: false}}},
	}
	for _, r := range recs {
		if err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	members, sched, ok := log.Membership()
	if !ok || !reflect.DeepEqual(members, recs[2].Members) || !reflect.DeepEqual(sched, recs[2].Sched) {
		t.Fatalf("in-memory membership: %v %v %v", members, sched, ok)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Read-only scan (the standby's view) agrees.
	members, sched, ok, err = ReadSealLogMembership(dir)
	if err != nil || !ok || !reflect.DeepEqual(members, recs[2].Members) || !reflect.DeepEqual(sched, recs[2].Sched) {
		t.Fatalf("read-only membership: %v %v %v %v", members, sched, ok, err)
	}

	// A torn tail (crash mid-append) is truncated; the prefix survives.
	path := filepath.Join(dir, sealLogName)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, sealLogHeader+3)
	binary.LittleEndian.PutUint32(torn, 100) // claims 100 payload bytes, has 3
	if err := os.WriteFile(path, append(append([]byte(nil), clean...), torn...), 0o644); err != nil {
		t.Fatal(err)
	}
	log2, err := OpenSealLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if members, _, ok := log2.Membership(); !ok || !reflect.DeepEqual(members, recs[2].Members) {
		t.Fatalf("membership after torn tail: %v %v", members, ok)
	}
	// Appends after truncation land on the clean prefix.
	next := SealRecord{Kind: SealRecordSeal, Epoch: 1, Members: []string{"fe-1", "fe-2"}}
	if err := log2.Append(next); err != nil {
		t.Fatal(err)
	}
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}
	records, _, err := readSealLog(path)
	if err != nil || len(records) != len(recs)+1 {
		t.Fatalf("replay after torn-tail append: %d records, err %v", len(records), err)
	}
	if !reflect.DeepEqual(records[len(records)-1], next) {
		t.Fatalf("last record: %+v", records[len(records)-1])
	}

	// A corrupted byte mid-log stops replay at the damage, keeping the
	// prefix — the last *valid* record still wins.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(clean)+4] ^= 0xff // flip inside the appended record's CRC
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	members, _, ok, err = ReadSealLogMembership(dir)
	if err != nil || !ok || !reflect.DeepEqual(members, recs[2].Members) {
		t.Fatalf("membership after corruption: %v %v %v", members, ok, err)
	}

	// An absent log is an empty log, not an error.
	if _, _, ok, err := ReadSealLogMembership(t.TempDir()); err != nil || ok {
		t.Fatalf("absent log: ok=%v err=%v", ok, err)
	}
}

// TestSealLogFailedWriteStopsAppends is the seal-log's case of
// TestWALFailedWriteStopsAppends: after a write fails part-way, later
// appends must fail rather than land behind a torn frame, where reopening
// would silently end the log before them.
func TestSealLogFailedWriteStopsAppends(t *testing.T) {
	dir := t.TempDir()
	log, err := OpenSealLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := SealRecord{Kind: SealRecordSeal, Epoch: 0, Members: []string{"fe-0", "fe-1"}}
	if err := log.Append(first); err != nil {
		t.Fatal(err)
	}
	// The failed append: 7 bytes of its frame reach the file, then the
	// write fails (a read-only handle on the file refuses it).
	if _, err := log.f.Write(make([]byte, 7)); err != nil {
		t.Fatal(err)
	}
	live := log.f
	ro, err := os.Open(filepath.Join(dir, sealLogName))
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	log.f = ro
	if err := log.Append(SealRecord{Kind: SealRecordSeal, Epoch: 1, Members: first.Members}); err == nil {
		t.Fatal("append through a read-only seal-log succeeded")
	}
	// The fault clears: the file is writable again.
	log.f = live
	for epoch := 2; epoch <= 3; epoch++ {
		join := SealRecord{Kind: SealRecordMember, Epoch: epoch, Node: "fe-2", Join: true,
			Members: []string{"fe-0", "fe-1", "fe-2"}}
		if err := log.Append(join); err == nil {
			t.Fatalf("append at epoch %d after a failed write was acknowledged", epoch)
		}
	}
	if members, _, ok := log.Membership(); !ok || !reflect.DeepEqual(members, first.Members) {
		t.Fatalf("in-memory membership after failed appends: %v %v", members, ok)
	}
	if err := log.Close(); err == nil {
		t.Fatal("Close after a failed write succeeded")
	}
	members, _, ok, err := ReadSealLogMembership(dir)
	if err != nil || !ok || !reflect.DeepEqual(members, first.Members) {
		t.Fatalf("membership after reopen: %v %v %v", members, ok, err)
	}
}

func TestLeaseAcquireRefuseRefreshRelease(t *testing.T) {
	dir := t.TempDir()
	const stale = 250 * time.Millisecond

	l, err := AcquireLease(dir, "root-a", stale)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh foreign lease blocks acquisition.
	if _, err := AcquireLease(dir, "root-b", stale); err == nil {
		t.Fatal("fresh foreign lease acquired")
	}
	// The holder itself may re-acquire (restart of the same root).
	if _, err := AcquireLease(dir, "root-a", stale); err != nil {
		t.Fatalf("self re-acquire: %v", err)
	}
	if info, err := InspectLease(dir); err != nil || info.Owner != "root-a" {
		t.Fatalf("inspect: %+v err=%v", info, err)
	}
	// Heartbeats keep it fresh.
	if err := l.Refresh(); err != nil {
		t.Fatal(err)
	}
	// Once stale, a standby takes over...
	time.Sleep(stale + 50*time.Millisecond)
	l2, err := AcquireLease(dir, "root-b", stale)
	if err != nil {
		t.Fatalf("stale lease not taken: %v", err)
	}
	// ...and the superseded holder's next heartbeat tells it to stop.
	if err := l.Refresh(); err == nil {
		t.Fatal("superseded holder heartbeat succeeded")
	}
	// The superseded holder's release is a no-op, not a theft.
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	if info, err := InspectLease(dir); err != nil || info.Owner != "root-b" {
		t.Fatalf("lease after superseded release: %+v err=%v", info, err)
	}
	// The real holder's release clears the way without waiting out TTL.
	if err := l2.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := AcquireLease(dir, "root-c", time.Hour); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}

	// Parameter validation.
	if _, err := AcquireLease(dir, "", stale); err == nil {
		t.Fatal("empty owner accepted")
	}
	if _, err := AcquireLease(dir, "x", 0); err == nil {
		t.Fatal("zero staleness accepted")
	}
}

// TestStandbyTailerTracksRootAndPromotes is the persist-level failover
// story: a root seals epochs, persisting a snapshot per seal and a
// seal-log; a standby tails both; when the root dies the standby
// promotes a merger that resumes at the persisted watermark with the
// logged membership, dedupes every re-sent tally, and merges the
// in-flight epoch the crash lost.
func TestStandbyTailerTracksRootAndPromotes(t *testing.T) {
	const d = 16
	dir := t.TempDir()
	cfg := failoverStreamConfig(d)

	rootMgr, err := stream.NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := AttachSnapshotStore(dir, rootMgr)
	if err != nil {
		t.Fatal(err)
	}
	merger, err := stream.NewSealedMerger(rootMgr, []string{"fe-0", "fe-1"})
	if err != nil {
		t.Fatal(err)
	}
	slog, err := OpenSealLog(dir)
	if err != nil {
		t.Fatal(err)
	}

	tailer, err := NewStandbyTailer(dir, func() (*stream.EpochManager, error) {
		return stream.NewEpochManager(cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	if adv, err := tailer.Poll(); err != nil || adv {
		t.Fatalf("poll of an empty dir: adv=%v err=%v", adv, err)
	}
	if tailer.Manager() != nil {
		t.Fatal("warm manager before any snapshot")
	}

	tally := func(node string, epoch int) *ldp.Tally {
		tl := &ldp.Tally{NodeID: node, Epoch: epoch, Counts: make([]int64, d), Total: 100}
		tl.Counts[epoch%d] = 100
		return tl
	}
	var sent []*ldp.Tally
	sealEpoch := func(e int) {
		t.Helper()
		for _, n := range merger.Nodes() {
			tl := tally(n, e)
			if _, err := mergeTally(merger, tl); err != nil {
				t.Fatal(err)
			}
			sent = append(sent, tl)
		}
		if est, info, err := merger.TrySeal(); err != nil || est == nil {
			t.Fatalf("seal %d: est=%v err=%v", e, est, err)
		} else {
			if err := snaps.Persist(); err != nil {
				t.Fatal(err)
			}
			members, sched := merger.Membership()
			if err := slog.Append(SealRecord{Kind: SealRecordSeal, Epoch: info.Epoch,
				Nodes: info.Nodes, Missing: info.Missing, Members: members, Sched: sched}); err != nil {
				t.Fatal(err)
			}
		}
	}

	sealEpoch(0)
	sealEpoch(1)
	if adv, err := tailer.Poll(); err != nil || !adv {
		t.Fatalf("tailer missed snapshots: adv=%v err=%v", adv, err)
	}
	if seq, ok := tailer.SnapshotSeq(); !ok || seq != 2 {
		t.Fatalf("tailed seq %d ok=%v, want 2", seq, ok)
	}
	warm := tailer.Manager()
	if warm == nil || warm.Stats().Epochs != 2 {
		t.Fatalf("warm manager: %+v", warm)
	}
	// Polling with nothing new keeps the same generation.
	if adv, err := tailer.Poll(); err != nil || adv {
		t.Fatalf("idle poll advanced: adv=%v err=%v", adv, err)
	}
	if tailer.Manager() != warm {
		t.Fatal("idle poll replaced the warm manager")
	}

	// Membership changes flow through the seal-log.
	eff, err := merger.Join("fe-2")
	if err != nil {
		t.Fatal(err)
	}
	members, sched := merger.Membership()
	if err := slog.Append(SealRecord{Kind: SealRecordMember, Epoch: eff, Node: "fe-2", Join: true,
		Members: members, Sched: sched}); err != nil {
		t.Fatal(err)
	}
	sealEpoch(2)

	// The root dies mid-epoch 3: fe-0's tally is in flight, nothing of
	// epoch 3 is persisted.
	if _, err := mergeTally(merger, tally("fe-0", 3)); err != nil {
		t.Fatal(err)
	}
	wantEst := func() *stream.WindowEstimate {
		// The reference: an uninterrupted root sealing epoch 3 from both
		// deliveries.
		refMgr, err := stream.NewEpochManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := stream.NewSealedMerger(refMgr, []string{"fe-0", "fe-1", "fe-2"})
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 4; e++ {
			for _, n := range ref.Nodes() {
				if e < 2 && n == "fe-2" {
					continue
				}
				if _, err := mergeTally(ref, tally(n, e)); err != nil {
					t.Fatal(err)
				}
			}
			est, _, err := ref.SealPartial()
			if err != nil || est == nil {
				t.Fatalf("ref seal %d: %v %v", e, est, err)
			}
			if e == 3 {
				return est
			}
		}
		return nil
	}()

	promoted, err := tailer.Promote([]string{"wrong-fallback"})
	if err != nil {
		t.Fatal(err)
	}
	if got := promoted.SealedThrough(); got != 3 {
		t.Fatalf("promoted watermark %d, want 3", got)
	}
	if got := promoted.Nodes(); !reflect.DeepEqual(got, []string{"fe-0", "fe-1", "fe-2"}) {
		t.Fatalf("promoted membership %v (fallback must lose to the seal-log)", got)
	}
	// Frontends re-send everything unacked and then some: every sealed
	// tally dedupes, the lost in-flight one merges fresh.
	for _, tl := range sent {
		res, err := mergeTally(promoted, tl)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Duplicate {
			t.Fatalf("tally %s/%d double-merged across promotion", tl.NodeID, tl.Epoch)
		}
	}
	for _, n := range []string{"fe-0", "fe-1", "fe-2"} {
		if _, err := mergeTally(promoted, tally(n, 3)); err != nil {
			t.Fatal(err)
		}
	}
	est, info, err := promoted.TrySeal()
	if err != nil || est == nil {
		t.Fatalf("promoted seal: est=%v err=%v", est, err)
	}
	if info.Epoch != 3 || len(info.Missing) != 0 {
		t.Fatalf("promoted accounting: %+v", info)
	}
	if !reflect.DeepEqual(est, wantEst) {
		t.Fatalf("promoted estimate diverged from uninterrupted root\ngot  %+v\nwant %+v", est, wantEst)
	}
}

// TestStandbyPromoteEmptyDirFallsBack: promoting against a directory
// the root never sealed into uses the fallback membership and a fresh
// manager — the cluster simply starts from epoch 0 under the new root.
func TestStandbyPromoteEmptyDirFallsBack(t *testing.T) {
	const d = 8
	tailer, err := NewStandbyTailer(t.TempDir(), func() (*stream.EpochManager, error) {
		return stream.NewEpochManager(failoverStreamConfig(d))
	})
	if err != nil {
		t.Fatal(err)
	}
	promoted, err := tailer.Promote([]string{"fe-0", "fe-1"})
	if err != nil {
		t.Fatal(err)
	}
	if promoted.SealedThrough() != 0 || !reflect.DeepEqual(promoted.Nodes(), []string{"fe-0", "fe-1"}) {
		t.Fatalf("empty-dir promotion: through=%d nodes=%v", promoted.SealedThrough(), promoted.Nodes())
	}
	// With neither a seal-log nor fallback nodes there is nothing to
	// promote onto.
	if _, err := tailer.Promote(nil); err == nil {
		t.Fatal("promotion with no membership source accepted")
	}
}

// TestStandbyPollLeavesRootTempFiles: a standby tailing the root's
// directory only reads. A poll that lands while the root is between
// writing a snapshot's temp file and renaming it must leave that file
// alone — deleting it made the root's rename fail, which fail-stopped
// the root with its persisted watermark one epoch behind.
func TestStandbyPollLeavesRootTempFiles(t *testing.T) {
	const d = 8
	dir := t.TempDir()
	rootMgr, err := stream.NewEpochManager(failoverStreamConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := AttachSnapshotStore(dir, rootMgr)
	if err != nil {
		t.Fatal(err)
	}
	defer snaps.Close()
	if _, err := rootMgr.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := snaps.Persist(); err != nil {
		t.Fatal(err)
	}
	// The root's next snapshot, written but not yet renamed.
	inFlight := filepath.Join(dir, "snap", snapPrefix+"00000000000000000009"+snapSuffix+".tmp")
	if err := os.WriteFile(inFlight, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	tailer, err := NewStandbyTailer(dir, func() (*stream.EpochManager, error) {
		return stream.NewEpochManager(failoverStreamConfig(d))
	})
	if err != nil {
		t.Fatal(err)
	}
	if adv, err := tailer.Poll(); err != nil || !adv {
		t.Fatalf("poll: adv=%v err=%v", adv, err)
	}
	if _, err := os.Stat(inFlight); err != nil {
		t.Fatalf("the standby's poll removed the root's in-flight snapshot: %v", err)
	}
	// The writer's own prune is what sweeps a temp file left behind.
	if _, err := rootMgr.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := snaps.Persist(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(inFlight); !os.IsNotExist(err) {
		t.Fatalf("the root's prune left a stale temp file: %v", err)
	}
}
