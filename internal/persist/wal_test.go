package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// collect replays everything after `after` into memory, in LSN order.
// It checks replay's ordering contract on the way: worker indices stay
// below GOMAXPROCS, each worker's records arrive in strictly ascending
// LSN order, and no LSN reaches fn twice.
func collect(t *testing.T, w *WAL, after uint64) (lsns []uint64, payloads [][]byte) {
	t.Helper()
	type record struct {
		lsn     uint64
		payload []byte
	}
	workers := runtime.GOMAXPROCS(0)
	var mu sync.Mutex
	perWorker := make(map[int][]record)
	err := w.replay(after, runtime.GOMAXPROCS(0), func(worker int, lsn uint64, payload []byte) error {
		mu.Lock()
		defer mu.Unlock()
		if worker < 0 || worker >= workers {
			return fmt.Errorf("worker index %d outside [0, %d)", worker, workers)
		}
		if prev := perWorker[worker]; len(prev) > 0 && lsn <= prev[len(prev)-1].lsn {
			return fmt.Errorf("worker %d: LSN %d after %d", worker, lsn, prev[len(prev)-1].lsn)
		}
		perWorker[worker] = append(perWorker[worker], record{lsn, append([]byte(nil), payload...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var all []record
	for _, recs := range perWorker {
		all = append(all, recs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].lsn < all[j].lsn })
	for i, rec := range all {
		if i > 0 && rec.lsn == all[i-1].lsn {
			t.Fatalf("LSN %d replayed twice", rec.lsn)
		}
		lsns = append(lsns, rec.lsn)
		payloads = append(payloads, rec.payload)
	}
	return lsns, payloads
}

func payload(i int) []byte {
	return bytes.Repeat([]byte{byte(i)}, 10+i%7)
}

func TestWALAppendReplayReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		lsn, err := w.Append(payload(i))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("append %d got LSN %d", i, lsn)
		}
	}
	check := func(w *WAL, after uint64) {
		t.Helper()
		lsns, payloads := collect(t, w, after)
		if len(lsns) != n-int(after) {
			t.Fatalf("replay after %d returned %d records, want %d", after, len(lsns), n-int(after))
		}
		for j, lsn := range lsns {
			i := int(after) + j
			if lsn != uint64(i+1) || !bytes.Equal(payloads[j], payload(i)) {
				t.Fatalf("record %d: lsn %d payload %v", i, lsn, payloads[j])
			}
		}
	}
	check(w, 0)
	check(w, 9)
	if got := w.LastLSN(); got != n {
		t.Fatalf("LastLSN %d, want %d", got, n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(payload(0)); err == nil {
		t.Fatal("append after close succeeded")
	}

	// Reopen: same records, appends continue at the next LSN.
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	check(w2, 0)
	lsn, err := w2.Append(payload(99))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != n+1 {
		t.Fatalf("post-reopen append got LSN %d, want %d", lsn, n+1)
	}
}

// lastSegment returns the path of the newest WAL segment file in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	return segs[len(segs)-1].path
}

// TestWALTornTail pins the crash-mid-append semantics: however the final
// record is damaged — truncated header, truncated payload, flipped bit,
// garbage length — reopening tolerates it, replay stops at the last
// intact record, and the torn LSN is reissued to the next append.
func TestWALTornTail(t *testing.T) {
	damage := map[string]func(t *testing.T, path string){
		"truncated-header": func(t *testing.T, path string) {
			chop(t, path, walHeaderSize+3) // cuts into the final header
		},
		"truncated-payload": func(t *testing.T, path string) {
			chop(t, path, 9) // header intact, payload short
		},
		"flipped-payload-bit": func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"garbage-appended": func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			// A wildly wrong length field must not drive an allocation.
			if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			f.Close()
		},
	}
	for name, damageFn := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := OpenWAL(dir, WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := w.Append(payload(i)); err != nil {
					t.Fatal(err)
				}
			}
			w.Close()
			keep := 2
			if name == "garbage-appended" {
				keep = 3 // the garbage follows three intact records
			}
			damageFn(t, lastSegment(t, dir))

			w2, err := OpenWAL(dir, WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			lsns, _ := collect(t, w2, 0)
			if len(lsns) != keep {
				t.Fatalf("replay kept %d records, want %d", len(lsns), keep)
			}
			// The torn LSN was never durable, so it is reissued.
			lsn, err := w2.Append(payload(9))
			if err != nil {
				t.Fatal(err)
			}
			if want := uint64(keep + 1); lsn != want {
				t.Fatalf("post-damage append got LSN %d, want %d", lsn, want)
			}
		})
	}
}

// TestWALFailedWriteStopsAppends: a write that fails part-way leaves
// the start of a record header in the live segment. Had the WAL kept
// appending after it, reopening would take those bytes for a torn tail,
// truncate there and silently drop every record appended after them.
// So once a write has failed, every later Append, Sync, rotation and
// Close must fail, and replay must return exactly the acknowledged
// records.
func TestWALFailedWriteStopsAppends(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(payload(1)); err != nil {
		t.Fatal(err)
	}
	// The failed append: 7 bytes of its header reach the segment, then
	// the write fails (a read-only handle on the segment refuses it).
	hdr := make([]byte, walHeaderSize)
	binary.LittleEndian.PutUint32(hdr, uint32(len(payload(2))))
	binary.LittleEndian.PutUint64(hdr[4:], 2)
	if _, err := w.f.Write(hdr[:7]); err != nil {
		t.Fatal(err)
	}
	live := w.f
	ro, err := os.Open(lastSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	w.f = ro
	if _, err := w.Append(payload(2)); err == nil {
		t.Fatal("append through a read-only segment succeeded")
	}
	// The fault clears: the segment is writable again.
	w.f = live
	for i := 3; i <= 4; i++ {
		if lsn, err := w.Append(payload(i)); err == nil {
			t.Fatalf("append %d after a failed write was acknowledged as LSN %d", i, lsn)
		}
	}
	if err := w.Sync(); err == nil {
		t.Fatal("Sync after a failed write succeeded")
	}
	if err := w.TruncateThrough(1); err == nil {
		t.Fatal("rotation after a failed write succeeded")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close after a failed write succeeded")
	}

	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	lsns, payloads := collect(t, w2, 0)
	if len(lsns) != 1 || lsns[0] != 1 || !bytes.Equal(payloads[0], payload(1)) {
		t.Fatalf("replay returned LSNs %v, want only the acknowledged LSN 1", lsns)
	}
}

// TestWALFailedSyncIsNotRetried: after a failed fsync the kernel may
// have dropped the pages it could not write, so a retry that succeeds
// would vouch for lost records. The WAL never retries one.
func TestWALFailedSyncIsNotRetried(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(payload(1)); err != nil {
		t.Fatal(err)
	}
	live := w.f
	closed, err := os.Open(lastSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	w.f = closed // fsync on a closed handle fails
	if err := w.Sync(); err == nil {
		t.Fatal("Sync on a closed handle succeeded")
	}
	w.f = live
	if err := w.Sync(); err == nil {
		t.Fatal("Sync retried after a failed fsync")
	}
	if _, err := w.Append(payload(2)); err == nil {
		t.Fatal("append after a failed fsync succeeded")
	}
	w.Close()
}

// chop truncates the last n bytes off a file.
func chop(t *testing.T, path string, n int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// TestWALMidLogCorruption: damage in a non-final segment is not a torn
// tail — valid records follow it, so replay must fail loudly instead of
// silently dropping them.
func TestWALMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := w.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("rotation produced %d segments, want >= 3", len(segs))
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.replay(0, runtime.GOMAXPROCS(0), func(int, uint64, []byte) error { return nil }); err == nil {
		t.Fatal("mid-log corruption replayed silently")
	}
	w.Close()
}

func TestWALRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record rotates.
	w, err := OpenWAL(dir, WALOptions{SegmentBytes: 1, SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const n = 8
	for i := 0; i < n; i++ {
		if _, err := w.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != n+1 { // each append rotated; one fresh live segment
		t.Fatalf("%d segments after %d appends, want %d", len(segs), n, n+1)
	}

	// Truncating through LSN 5 must drop exactly the segments holding
	// records 1..5 and keep 6..8 replayable.
	if err := w.TruncateThrough(5); err != nil {
		t.Fatal(err)
	}
	lsns, _ := collect(t, w, 0)
	if len(lsns) != 3 || lsns[0] != 6 {
		t.Fatalf("post-truncate replay: %v", lsns)
	}
	// Appends continue unaffected.
	if lsn, err := w.Append(payload(9)); err != nil || lsn != n+1 {
		t.Fatalf("append after truncate: lsn %d err %v", lsn, err)
	}

	// Truncating through everything leaves an empty but appendable log.
	if err := w.TruncateThrough(w.LastLSN()); err != nil {
		t.Fatal(err)
	}
	if lsns, _ := collect(t, w, 0); len(lsns) != 0 {
		t.Fatalf("records survived full truncation: %v", lsns)
	}
	if lsn, err := w.Append(payload(10)); err != nil || lsn != n+2 {
		t.Fatalf("append after full truncate: lsn %d err %v", lsn, err)
	}
}

// TestWALAdvanceTo pins the lost-log guard: when a snapshot's WAL
// position is beyond the (wiped) log, fresh appends must not reuse
// covered LSNs, and the resulting in-segment LSN gap must survive a
// reopen rather than read as a torn tail.
func TestWALAdvanceTo(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(payload(0)); err != nil {
		t.Fatal(err)
	}
	w.AdvanceTo(100)
	lsn, err := w.Append(payload(1))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 101 {
		t.Fatalf("append after AdvanceTo got LSN %d, want 101", lsn)
	}
	w.AdvanceTo(50) // never moves backwards
	if lsn, err = w.Append(payload(2)); err != nil || lsn != 102 {
		t.Fatalf("append got LSN %d err %v, want 102", lsn, err)
	}
	w.Close()

	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	lsns, _ := collect(t, w2, 0)
	want := []uint64{1, 101, 102}
	if fmt.Sprint(lsns) != fmt.Sprint(want) {
		t.Fatalf("replay after reopen: %v, want %v", lsns, want)
	}
	if got := w2.LastLSN(); got != 102 {
		t.Fatalf("LastLSN %d after reopen, want 102", got)
	}
}

func TestWALEmptyAndFreshDirs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "wal") // created on demand
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.LastLSN(); got != 0 {
		t.Fatalf("fresh WAL LastLSN %d", got)
	}
	if lsns, _ := collect(t, w, 0); len(lsns) != 0 {
		t.Fatal("fresh WAL replayed records")
	}
	w.Close()
	// Reopen with zero records is fine too.
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lsn, err := w2.Append(payload(0)); err != nil || lsn != 1 {
		t.Fatalf("first append: lsn %d err %v", lsn, err)
	}
	w2.Close()
}

func TestWALOversizedPayload(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(make([]byte, walMaxPayload+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}
