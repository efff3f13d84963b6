package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ldprecover/internal/detect"
	"ldprecover/internal/ldp"
	"ldprecover/internal/stream"
)

// withSnapVersion rewrites an encoded snapshot's version field and
// reseals its checksum, so the result is well-formed at that version.
func withSnapVersion(b []byte, version uint16) []byte {
	body := slices.Clone(b[:len(b)-4])
	binary.LittleEndian.PutUint16(body[4:], version)
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crcTable))
}

// snapState is testManagerState with tracker slices a decode
// reproduces exactly (it cannot tell an empty slice from nil).
func snapState(t *testing.T) stream.ManagerState {
	st := testManagerState(t)
	st.Tracker = detect.TrackerState{Last: []int{7}, Streak: 1, Stable: []int{3, 9}}
	return st
}

// snapPath names the snapshot file WriteSnapshot writes for seq.
func snapPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%020d%s", snapPrefix, seq, snapSuffix))
}

// TestSnapshotMembershipRoundTrip: the barrier membership — member set
// and pending schedule — survives a write and a load through the
// directory (TestSnapshotEncodeDecodeRoundTrip covers the codec), a
// rewrite at the same seal count (a join acked between seals) replaces
// the file in place, and the section costs what the format says.
func TestSnapshotMembershipRoundTrip(t *testing.T) {
	st := snapState(t)
	st.Members = []string{"fe-0", "fe-1"}
	st.Sched = []stream.MemberChange{{Epoch: 6, Node: "fe-2", Join: true}}
	dir := t.TempDir()
	if _, err := WriteSnapshot(dir, 9, st); err != nil {
		t.Fatal(err)
	}
	joined := st
	joined.Members = append(slices.Clone(st.Members), "fe-3")
	if _, err := WriteSnapshot(dir, 9, joined); err != nil {
		t.Fatal(err)
	}
	if snaps, err := listSnapshots(dir); err != nil || len(snaps) != 1 || snaps[0].path != snapPath(dir, st.Seq) {
		t.Fatalf("same-seq rewrite left %+v (err %v), want one file", snaps, err)
	}
	walSeq, got, found, err := LoadLatestSnapshot(dir)
	if err != nil || !found || walSeq != 9 || !reflect.DeepEqual(got, joined) {
		t.Fatalf("loaded found=%v err=%v walSeq=%d: %v %+v, want %v %+v",
			found, err, walSeq, got.Members, got.Sched, joined.Members, joined.Sched)
	}

	bare := st
	bare.Members, bare.Sched = nil, nil
	want := (4 + 4) + (4 + 4) + (8 + 4 + len("fe-2") + 1)
	if grow := len(encodeSnapshot(9, st)) - len(encodeSnapshot(9, bare)); grow != want {
		t.Fatalf("membership grew the snapshot by %d bytes, want %d", grow, want)
	}
}

// TestSnapshotV1HasNoMembership: a version 1 file — the layout before
// the membership section — decodes to the state it carries with no
// membership, and a root booting over it falls back to its -nodes.
func TestSnapshotV1HasNoMembership(t *testing.T) {
	st := snapState(t)
	cur := encodeSnapshot(5, st)
	// Version 1 is the current layout without the two empty lengths;
	// withSnapVersion drops the placeholder where the checksum goes.
	v1 := withSnapVersion(append(slices.Clone(cur[:len(cur)-4-8]), 0, 0, 0, 0), 1)
	walSeq, got, err := decodeSnapshot(v1)
	if err != nil {
		t.Fatal(err)
	}
	if walSeq != 5 || !reflect.DeepEqual(got, st) || got.Members != nil || got.Sched != nil {
		t.Fatalf("v1 decoded to walSeq %d, membership %v %+v (state equal: %v)", walSeq, got.Members, got.Sched, reflect.DeepEqual(got.Ring, st.Ring))
	}

	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "snap"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath(filepath.Join(dir, "snap"), st.Seq), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	proto, err := ldp.NewOUE(24, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	tailer, err := NewStandbyTailer(dir, func() (*stream.EpochManager, error) {
		return stream.NewEpochManager(stream.Config{
			Params: proto.Params(), Window: 2, History: 6, StableAfter: 2, MinHistory: 2,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	merger, err := tailer.Promote([]string{"fe-0", "fe-1"})
	if err != nil {
		t.Fatal(err)
	}
	if merger.SealedThrough() != st.Seq || !reflect.DeepEqual(merger.Nodes(), []string{"fe-0", "fe-1"}) {
		t.Fatalf("v1 boot: watermark %d members %v, want %d and the fallback", merger.SealedThrough(), merger.Nodes(), st.Seq)
	}
}

// TestSnapshotUnknownVersionFailsLoad: a snapshot that checksums clean
// but carries a version this build cannot read fails the load, naming
// the file, instead of being skipped like damage — skipping it would
// boot the older generation beneath it, an older watermark.
func TestSnapshotUnknownVersionFailsLoad(t *testing.T) {
	dir := t.TempDir()
	st := testManagerState(t)
	if _, err := WriteSnapshot(dir, 1, st); err != nil {
		t.Fatal(err)
	}
	newer := st
	newer.Seq++
	path := snapPath(dir, newer.Seq)
	if err := os.WriteFile(path, withSnapVersion(encodeSnapshot(2, newer), snapVersion+1), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, found, err := LoadLatestSnapshot(dir)
	if err == nil || found {
		t.Fatalf("load over a future-version snapshot: found=%v err=%v", found, err)
	}
	for _, want := range []string{path, "version"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %s", err, want)
		}
	}
}

// TestLegacySealLogRefused: a root or standby data directory holding a
// seal-log from an older build is refused with an error naming the
// file, which is left as it was: its joins and leaves are in no
// snapshot, and booting over it would drop them silently.
func TestLegacySealLogRefused(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "seals.log")
	if err := os.WriteFile(legacy, []byte("journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := NewStandbyTailer(dir, func() (*stream.EpochManager, error) {
		return stream.NewEpochManager(failoverStreamConfig(8))
	})
	if err == nil || !strings.Contains(err.Error(), legacy) {
		t.Fatalf("legacy seal-log directory: err %v, want a refusal naming %s", err, legacy)
	}
	if data, err := os.ReadFile(legacy); err != nil || string(data) != "journal" {
		t.Fatalf("refused boot disturbed the seal-log: %q %v", data, err)
	}
}

// TestStandbyTailerSeesJoinBetweenSeals: a join acked between seals
// rewrites the snapshot at the same seal count. A standby that already
// restored that generation keeps its warm manager, picks the new
// membership and schedule up on its next poll, and promotes with them.
func TestStandbyTailerSeesJoinBetweenSeals(t *testing.T) {
	const d = 8
	dir := t.TempDir()
	cfg := failoverStreamConfig(d)
	rootMgr, err := stream.NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	merger, err := stream.NewSealedMerger(rootMgr, []string{"fe-0", "fe-1"})
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := AttachSnapshotStore(dir, merger)
	if err != nil {
		t.Fatal(err)
	}
	defer snaps.Close()
	tally := func(node string, epoch int) *ldp.Tally {
		tl := &ldp.Tally{NodeID: node, Epoch: epoch, Counts: make([]int64, d), Total: 10}
		tl.Counts[epoch%d] = 10
		return tl
	}
	for _, n := range []string{"fe-0", "fe-1"} {
		if _, err := mergeTally(merger, tally(n, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if est, _, err := merger.TrySeal(); err != nil || est == nil {
		t.Fatalf("seal 0: est=%v err=%v", est, err)
	}
	if err := snaps.Persist(); err != nil {
		t.Fatal(err)
	}
	tailer, err := NewStandbyTailer(dir, func() (*stream.EpochManager, error) {
		return stream.NewEpochManager(cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	if adv, err := tailer.Poll(); err != nil || !adv {
		t.Fatalf("poll: adv=%v err=%v", adv, err)
	}
	warm := tailer.Manager()

	// fe-0's epoch-1 tally is pending, so the join lands a boundary later.
	if _, err := mergeTally(merger, tally("fe-0", 1)); err != nil {
		t.Fatal(err)
	}
	if eff, err := merger.Join("fe-2"); err != nil || eff != 2 {
		t.Fatalf("join: eff=%d err=%v", eff, err)
	}
	if err := snaps.Persist(); err != nil {
		t.Fatal(err)
	}
	if adv, err := tailer.Poll(); err != nil || adv {
		t.Fatalf("poll after a same-seq rewrite: adv=%v err=%v", adv, err)
	}
	if tailer.Manager() != warm {
		t.Fatal("a membership-only rewrite replaced the warm manager")
	}

	promoted, err := tailer.Promote([]string{"fe-0"})
	if err != nil {
		t.Fatal(err)
	}
	st := promoted.SnapshotState()
	wantSched := []stream.MemberChange{{Epoch: 2, Node: "fe-2", Join: true}}
	if promoted.SealedThrough() != 1 || !reflect.DeepEqual(st.Members, []string{"fe-0", "fe-1"}) || !reflect.DeepEqual(st.Sched, wantSched) {
		t.Fatalf("promoted at %d with %v %+v, want 1 with [fe-0 fe-1] %+v",
			promoted.SealedThrough(), st.Members, st.Sched, wantSched)
	}
}
