package persist

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// walRecord frames one valid WAL record for fuzz seeding.
func walRecord(lsn uint64, payload []byte) []byte {
	rec := make([]byte, walHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(rec[4:], lsn)
	copy(rec[walHeaderSize:], payload)
	crc := crc32.Update(0, crcTable, rec[4:12])
	crc = crc32.Update(crc, crcTable, payload)
	binary.LittleEndian.PutUint32(rec[12:], crc)
	return rec
}

// FuzzWALOpen: a segment holding arbitrary bytes — torn tails, flipped
// bits, hostile length fields — must never panic OpenWAL or replay,
// only error or truncate cleanly. When the log does open, the surviving
// prefix must replay with each worker's LSNs monotone and none twice,
// and the log must accept new appends that land after everything
// replayed.
func FuzzWALOpen(f *testing.F) {
	r1 := walRecord(1, []byte("batch-one"))
	r2 := walRecord(2, []byte("batch-two"))
	full := append(append([]byte(nil), r1...), r2...)
	f.Add([]byte{})
	f.Add(append([]byte(nil), r1...))
	f.Add(full)
	f.Add(full[:len(full)-3]) // torn tail
	f.Add(append(full, 0xff)) // trailing garbage
	flip := append([]byte(nil), full...)
	flip[walHeaderSize+2] ^= 0x10 // corrupt first payload
	f.Add(flip)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // cap I/O per exec; the parser sees sliced variants anyway
		}
		dir := t.TempDir()
		seg := filepath.Join(dir, "wal-00000000000000000001.seg")
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenWAL(dir, WALOptions{SyncEvery: -1})
		if err != nil {
			return // refusing a mangled log is fine; panicking is not
		}
		defer w.Close()
		// Each worker's records arrive in strictly ascending LSN order,
		// and every LSN is replayed once; last is the highest replayed.
		var mu sync.Mutex
		perWorker := make(map[int]uint64)
		seen := make(map[uint64]bool)
		var last uint64
		err = w.replay(0, runtime.GOMAXPROCS(0), func(worker int, lsn uint64, payload []byte) error {
			mu.Lock()
			defer mu.Unlock()
			if prev, ok := perWorker[worker]; ok && lsn <= prev {
				t.Errorf("worker %d replay LSNs not monotone: %d after %d", worker, lsn, prev)
			}
			if seen[lsn] {
				t.Errorf("LSN %d replayed twice", lsn)
			}
			perWorker[worker], seen[lsn] = lsn, true
			last = max(last, lsn)
			return nil
		})
		if err != nil {
			t.Fatalf("replay of a freshly opened log failed: %v", err)
		}
		lsn, err := w.Append([]byte("post-recovery"))
		if err != nil {
			t.Fatalf("append after recovery failed: %v", err)
		}
		if lsn <= last {
			t.Fatalf("fresh append reused LSN %d (last replayed %d)", lsn, last)
		}
	})
}
