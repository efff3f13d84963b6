package persist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"ldprecover/internal/stream"
)

// The seal-log is the root's tiny append-only companion to its per-seal
// snapshots: one record per sealed epoch and one per membership change,
// each carrying the *complete* post-event membership (member set plus
// pending boundary schedule). Snapshots make the merged estimate state
// durable; the seal-log makes the barrier's expectations durable — who
// the next epoch must wait for. Replay is trivial by construction: the
// last valid record wins, so a restarting root or a promoting standby
// never reconstructs membership by folding history.
//
// Records are length-prefixed JSON frames with a CRC-32C trailer
// (u32 payload length, u32 CRC, payload); a torn tail from a crash
// mid-append is detected and truncated on open, like the WAL's.
const (
	sealLogName   = "seals.log"
	sealLogHeader = 8 // u32 length + u32 crc

	// sealLogMaxRecord bounds a record so a corrupt length field cannot
	// drive an unbounded allocation. Membership of a few hundred nodes
	// fits in a few KiB; 1 MiB is generous.
	sealLogMaxRecord = 1 << 20
)

// SealRecord is one seal-log entry. Kind "seal" records a sealed epoch
// (Epoch, Nodes, Missing); kind "member" records a join or leave (Node,
// Join, Epoch = effective boundary). Every record of either kind also
// snapshots the full membership state after the event.
type SealRecord struct {
	Kind    string   `json:"kind"`
	Epoch   int      `json:"epoch"`
	Node    string   `json:"node,omitempty"`
	Join    bool     `json:"join,omitempty"`
	Nodes   []string `json:"nodes,omitempty"`
	Missing []string `json:"missing,omitempty"`

	// Members and Sched are the post-event membership: the expected set
	// and the pending boundary changes, as exported by
	// stream.SealedMerger.Membership.
	Members []string              `json:"members"`
	Sched   []stream.MemberChange `json:"sched,omitempty"`
}

const (
	// SealRecordSeal marks a sealed-epoch record.
	SealRecordSeal = "seal"
	// SealRecordMember marks a membership-change record.
	SealRecordMember = "member"
)

// SealLog is the root's open seal-log, append side.
type SealLog struct {
	mu     sync.Mutex
	f      *os.File
	dir    string
	closed bool
	last   *SealRecord // most recent valid record, nil on a fresh log
	// failed is the first write or fsync error, returned by every later
	// Append and by Close, as the WAL's is: a torn frame on disk would
	// end the log at reopen, silently dropping any record after it.
	failed error
}

// OpenSealLog opens (creating if absent) dir's seal-log, truncates any
// torn tail, and remembers the last valid record so Membership answers
// without rescanning.
func OpenSealLog(dir string) (*SealLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, sealLogName)
	records, validLen, err := readSealLog(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if info, err := f.Stat(); err == nil && info.Size() > validLen {
		// Torn tail from a crash mid-append: drop it, keep the prefix.
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	l := &SealLog{f: f, dir: dir}
	if len(records) > 0 {
		l.last = &records[len(records)-1]
	}
	return l, nil
}

// Append frames, writes, and fsyncs one record. The caller orders it
// against the acknowledgement it backs: a membership record goes down
// before the join/leave is acked, a seal record before the new
// watermark is advertised.
func (l *SealLog) Append(rec SealRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if len(payload) > sealLogMaxRecord {
		return fmt.Errorf("persist: seal-log record of %d bytes exceeds cap %d", len(payload), sealLogMaxRecord)
	}
	frame := make([]byte, sealLogHeader+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	copy(frame[sealLogHeader:], payload)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("persist: seal-log is closed")
	}
	if l.failed != nil {
		return l.failed
	}
	if _, err := l.f.Write(frame); err != nil {
		return l.fail(err)
	}
	if err := l.f.Sync(); err != nil {
		return l.fail(err)
	}
	clone := rec
	l.last = &clone
	return nil
}

// fail records err as the log's first failure and returns it. The
// caller holds l.mu.
func (l *SealLog) fail(err error) error {
	l.failed = fmt.Errorf("persist: seal-log failed, appends stopped: %w", err)
	return l.failed
}

// Membership returns the membership state of the last record, ok=false
// on a fresh log (caller falls back to its -nodes config).
func (l *SealLog) Membership() (members []string, sched []stream.MemberChange, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.last == nil {
		return nil, nil, false
	}
	return append([]string(nil), l.last.Members...), append([]stream.MemberChange(nil), l.last.Sched...), true
}

// Close fsyncs and closes the log file.
func (l *SealLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.failed
	if err == nil {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadSealLogMembership scans dir's seal-log read-only — the standby's
// view — and returns the last record's membership. ok is false when the
// log is absent or holds no valid record.
func ReadSealLogMembership(dir string) (members []string, sched []stream.MemberChange, ok bool, err error) {
	records, _, err := readSealLog(filepath.Join(dir, sealLogName))
	if err != nil || len(records) == 0 {
		return nil, nil, false, err
	}
	last := records[len(records)-1]
	return last.Members, last.Sched, true, nil
}

// readSealLog parses every valid record of the log at path, stopping at
// the first frame that is truncated or fails its checksum; validLen is
// the byte offset of the clean prefix. A missing file is an empty log.
func readSealLog(path string) (records []SealRecord, validLen int64, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	off := int64(0)
	for int64(len(data))-off >= sealLogHeader {
		n := binary.LittleEndian.Uint32(data[off:])
		if n == 0 || n > sealLogMaxRecord || int64(n) > int64(len(data))-off-sealLogHeader {
			break
		}
		payload := data[off+sealLogHeader : off+sealLogHeader+int64(n)]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[off+4:]) {
			break
		}
		var rec SealRecord
		if json.Unmarshal(payload, &rec) != nil {
			break
		}
		records = append(records, rec)
		off += sealLogHeader + int64(n)
	}
	return records, off, nil
}
