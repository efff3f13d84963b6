package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"ldprecover/internal/detect"
	"ldprecover/internal/stream"
)

// Snapshot wire format (little endian):
//
//	"LDPS" magic, uint16 version,
//	uint64 WAL position (last LSN whose record the state reflects),
//	the ManagerState fields in declaration order — ints as uint64,
//	floats as IEEE-754 bits, strings and slices as uint32 length +
//	elements, a scheduled change as epoch, node, one join byte —
//	and a trailing uint32 CRC-32C over everything before it.
//
// Version 2 added the barrier membership (Members, Sched) after the
// tracker state: a root's or interior merger's expected children, so a
// restart or a promotion resumes the barrier the snapshot's watermark
// ran under. It is two empty lengths on a single node or a frontend. A
// version 1 file decodes as "no membership recorded". A version this
// build does not know fails the load instead of being skipped: falling
// back to an older file would boot an older watermark.
//
// Floats are stored as raw bits because the whole point of the snapshot
// is bit-identical serving after a restart; a decimal round trip would
// be exact too (Go guarantees it) but bits make the intent unmissable.
// Snapshots are written to snap-<seq>.snap via temp file + rename, so a
// crash mid-write leaves the previous snapshot untouched and the loader
// simply picks the newest file that decodes and checksums clean.
const (
	snapVersion = 2

	snapPrefix = "snap-"
	snapSuffix = ".snap"

	// snapMaxLen bounds any single length field so a corrupt header
	// cannot drive a huge allocation before the CRC check runs.
	snapMaxLen = 1 << 28
)

var snapMagic = [4]byte{'L', 'D', 'P', 'S'}

// errSnapVersion marks a snapshot that checksums clean but carries a
// version this build cannot read.
var errSnapVersion = errors.New("persist: unsupported snapshot version")

// encodeSnapshot serializes a manager state and its WAL position.
func encodeSnapshot(walSeq uint64, st stream.ManagerState) []byte {
	b := make([]byte, 0, snapshotSize(st))
	b = append(b, snapMagic[:]...)
	b = binary.LittleEndian.AppendUint16(b, snapVersion)
	b = binary.LittleEndian.AppendUint64(b, walSeq)
	b = binary.LittleEndian.AppendUint64(b, uint64(st.Seq))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.Sealed))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.Ring)))
	for _, ep := range st.Ring {
		b = binary.LittleEndian.AppendUint64(b, uint64(ep.Seq))
		b = binary.LittleEndian.AppendUint64(b, uint64(ep.Total))
		b = appendInt64s(b, ep.Counts)
	}
	b = appendInt64s(b, st.WinCounts)
	b = binary.LittleEndian.AppendUint64(b, uint64(st.WinTotal))
	b = binary.LittleEndian.AppendUint32(b, uint32(st.WinEpochs))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.History)))
	for _, row := range st.History {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(row)))
		for _, f := range row {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	b = appendInts(b, st.Tracker.Last)
	b = binary.LittleEndian.AppendUint32(b, uint32(st.Tracker.Streak))
	b = appendInts(b, st.Tracker.Stable)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.Members)))
	for _, m := range st.Members {
		b = appendString(b, m)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.Sched)))
	for _, ev := range st.Sched {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(ev.Epoch)))
		b = appendString(b, ev.Node)
		join := byte(0)
		if ev.Join {
			join = 1
		}
		b = append(b, join)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

func snapshotSize(st stream.ManagerState) int {
	size := 4 + 2 + 8 + 8 + 8 + 4 + 4 + 8 + 4 + 4 + 8 + 4 + 4 + 4 + 4
	size += (4 + 8 + 8) * len(st.Ring)
	for _, ep := range st.Ring {
		size += 8 * len(ep.Counts)
	}
	size += 8 * len(st.WinCounts)
	for _, row := range st.History {
		size += 4 + 8*len(row)
	}
	size += 8 * (len(st.Tracker.Last) + len(st.Tracker.Stable))
	size += 4 + 4 + 4*len(st.Members) + (8+4+1)*len(st.Sched)
	for _, m := range st.Members {
		size += len(m)
	}
	for _, ev := range st.Sched {
		size += len(ev.Node)
	}
	return size
}

func appendInt64s(b []byte, vs []int64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(vs)))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

func appendInts(b []byte, vs []int) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(vs)))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
	}
	return b
}

func appendString(b []byte, v string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
	return append(b, v...)
}

// snapReader is a bounds-checked little-endian cursor.
type snapReader struct {
	data []byte
	off  int
	err  error
}

func (r *snapReader) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.data) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.data[r.off:])
	r.off += 2
	return v
}

func (r *snapReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.data) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *snapReader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.data) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *snapReader) u8() byte {
	if r.err != nil || r.off+1 > len(r.data) {
		r.fail()
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

// length reads a uint32 element count, bounded by what the rest of the
// body could hold at elem bytes per element.
func (r *snapReader) length(elem int) int {
	n := r.u32()
	if r.err == nil && (n > snapMaxLen || int64(n)*int64(elem) > int64(len(r.data)-r.off)) {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *snapReader) str() string {
	n := r.length(1)
	if r.err != nil {
		return ""
	}
	v := string(r.data[r.off : r.off+n])
	r.off += n
	return v
}

func (r *snapReader) int64s() []int64 {
	n := r.length(8)
	if r.err != nil {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(r.u64())
	}
	return out
}

func (r *snapReader) ints() []int {
	n := r.length(8)
	if r.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(int64(r.u64()))
	}
	return out
}

func (r *snapReader) floats() []float64 {
	n := r.length(8)
	if r.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(r.u64())
	}
	return out
}

func (r *snapReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("persist: snapshot truncated at byte %d", r.off)
	}
}

// decodeSnapshot parses and checksums a snapshot file's contents.
func decodeSnapshot(data []byte) (walSeq uint64, st stream.ManagerState, err error) {
	if len(data) < 4+2+4 || string(data[:4]) != string(snapMagic[:]) {
		return 0, st, fmt.Errorf("persist: not a snapshot (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return 0, st, fmt.Errorf("persist: snapshot checksum mismatch")
	}
	r := &snapReader{data: body, off: 4}
	version := r.u16()
	if version != 1 && version != snapVersion {
		return 0, st, fmt.Errorf("%w %d (this build reads 1 and %d)", errSnapVersion, version, snapVersion)
	}
	walSeq = r.u64()
	st.Seq = int(int64(r.u64()))
	st.Sealed = int64(r.u64())
	ringLen := r.length(8)
	if r.err == nil {
		st.Ring = make([]stream.Epoch, ringLen)
		for i := range st.Ring {
			st.Ring[i].Seq = int(int64(r.u64()))
			st.Ring[i].Total = int64(r.u64())
			st.Ring[i].Counts = r.int64s()
		}
	}
	st.WinCounts = r.int64s()
	st.WinTotal = int64(r.u64())
	st.WinEpochs = int(int32(r.u32()))
	histLen := r.length(8)
	if r.err == nil && histLen > 0 {
		st.History = make([][]float64, histLen)
		for i := range st.History {
			st.History[i] = r.floats()
		}
	}
	st.Tracker = detect.TrackerState{Last: r.ints()}
	st.Tracker.Streak = int(int32(r.u32()))
	st.Tracker.Stable = r.ints()
	if version >= 2 {
		if n := r.length(4); n > 0 {
			st.Members = make([]string, n)
			for i := range st.Members {
				st.Members[i] = r.str()
			}
		}
		if n := r.length(8 + 4 + 1); n > 0 {
			st.Sched = make([]stream.MemberChange, n)
			for i := range st.Sched {
				st.Sched[i] = stream.MemberChange{Epoch: int(int64(r.u64())), Node: r.str(), Join: r.u8() == 1}
			}
		}
	}
	if r.err != nil {
		return 0, stream.ManagerState{}, r.err
	}
	if r.off != len(body) {
		return 0, stream.ManagerState{}, fmt.Errorf("persist: %d trailing snapshot bytes", len(body)-r.off)
	}
	return walSeq, st, nil
}

// WriteSnapshot atomically persists a snapshot named after the state's
// seal count and returns its path.
func WriteSnapshot(dir string, walSeq uint64, st stream.ManagerState) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("%s%020d%s", snapPrefix, st.Seq, snapSuffix))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", err
	}
	_, err = f.Write(encodeSnapshot(walSeq, st))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return path, syncDir(dir)
}

// snapFile is one snapshot file, identified by its seal count.
type snapFile struct {
	seq  uint64
	path string
}

// listSnapshots returns the snapshot files in dir, newest first. It
// only reads: a standby tails a directory whose root may be between
// writing a snapshot's temp file and renaming it, so sweeping temp files
// is left to the writer (pruneSnapshots).
func listSnapshots(dir string) ([]snapFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var snaps []snapFile
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix), 10, 64)
		if err != nil {
			continue // not ours; leave it alone
		}
		snaps = append(snaps, snapFile{seq: seq, path: filepath.Join(dir, name)})
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq > snaps[j].seq })
	return snaps, nil
}

// LoadLatestSnapshot returns the newest snapshot in dir that decodes and
// checksums clean, skipping (but keeping) damaged newer ones. found is
// false when no valid snapshot exists. A snapshot of a version this
// build does not know is an error, not damage.
func LoadLatestSnapshot(dir string) (walSeq uint64, st stream.ManagerState, found bool, err error) {
	snaps, err := listSnapshots(dir)
	if err != nil {
		return 0, st, false, err
	}
	for _, sf := range snaps {
		data, err := os.ReadFile(sf.path)
		if err != nil {
			return 0, st, false, err
		}
		walSeq, st, err = decodeSnapshot(data)
		if err == nil {
			return walSeq, st, true, nil
		}
		if errors.Is(err, errSnapVersion) {
			return 0, stream.ManagerState{}, false, fmt.Errorf("%s: %w", sf.path, err)
		}
	}
	return 0, stream.ManagerState{}, false, nil
}

// snapMeta is a retained snapshot's identity: its seal count and the WAL
// position it covers. The Store tracks these so WAL truncation can stop
// at the *oldest* retained snapshot — keeping every record a fallback
// restore would need should the newest snapshot be damaged after the
// fact.
type snapMeta struct {
	seq    int
	walSeq uint64
}

// validSnapshots decodes every snapshot file in dir and returns the ones
// that checksum clean, oldest first. Boot-time only: retention keeps the
// file count tiny.
func validSnapshots(dir string) ([]snapMeta, error) {
	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, err
	}
	var metas []snapMeta
	for i := len(snaps) - 1; i >= 0; i-- { // listSnapshots is newest first
		data, err := os.ReadFile(snaps[i].path)
		if err != nil {
			return nil, err
		}
		//ldplint:allow failstop a corrupt snapshot candidate is skipped by design; the next-older file is the fallback
		walSeq, st, err := decodeSnapshot(data)
		if err != nil {
			continue
		}
		metas = append(metas, snapMeta{seq: st.Seq, walSeq: walSeq})
	}
	return metas, nil
}

// pruneSnapshots deletes all but the newest DefaultKeepSnapshots
// snapshot files, and the temp files of interrupted writes. Only the
// directory's one writer calls it, after its own write has been renamed
// into place.
func pruneSnapshots(dir string) error {
	tmps, err := filepath.Glob(filepath.Join(dir, snapPrefix+"*"+snapSuffix+".tmp"))
	if err != nil {
		return err
	}
	for _, tmp := range tmps {
		os.Remove(tmp)
	}
	snaps, err := listSnapshots(dir)
	if err != nil {
		return err
	}
	for _, sf := range snaps[min(DefaultKeepSnapshots, len(snaps)):] {
		if err := os.Remove(sf.path); err != nil {
			return err
		}
	}
	return nil
}
