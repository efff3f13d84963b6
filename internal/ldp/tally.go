package ldp

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"sync"
)

// Tally is one frontend node's sealed per-epoch aggregate: the raw
// support counts and report total that node collected during one epoch
// of the shared epoch clock. Tallies are the unit the scale-out
// collection tier ships from frontend ingest nodes to the root merger
// (DESIGN.md §7): support counting is exactly additive, so merging the
// tallies of disjoint user populations loses nothing — the merged counts
// are bit-identical to a single collector having seen every report.
type Tally struct {
	// NodeID identifies the frontend that sealed this tally. The root
	// dedupes by (NodeID, Epoch), which is what makes at-least-once
	// delivery (retries, crash-restart re-sends) safe.
	NodeID string
	// Epoch is the shared epoch clock index this tally covers. Frontends
	// seal on the same clock, so equal indices across nodes describe the
	// same collection period.
	Epoch int
	// Counts are the sealed raw support counts (length = domain).
	Counts []int64
	// Total is the number of reports sealed into the tally.
	Total int64
}

// Validate checks the tally's structural invariants: a non-empty node
// id, a non-negative epoch and total, and non-negative counts over a
// plausible domain.
func (t *Tally) Validate() error {
	return validateCounts("tally", t.NodeID, t.Epoch, t.Total, t.Counts)
}

// validateCounts checks the invariants the two count frames share:
// Tally's (NodeID, Epoch, Total, Counts) and PartialTally's (NodeID,
// EpochHint, Users, Counts). kind names the frame in errors.
func validateCounts(kind, nodeID string, epoch int, total int64, counts []int64) error {
	if nodeID == "" {
		return fmt.Errorf("%w: %s without a node id", ErrCodec, kind)
	}
	if len(nodeID) > maxTallyNodeID {
		return fmt.Errorf("%w: %s node id of %d bytes exceeds cap %d",
			ErrCodec, kind, len(nodeID), maxTallyNodeID)
	}
	if epoch < 0 {
		return fmt.Errorf("%w: negative %s epoch %d", ErrCodec, kind, epoch)
	}
	if len(counts) < 2 || len(counts) > maxTallyDomain {
		return fmt.Errorf("%w: %s domain %d outside [2, %d]",
			ErrCodec, kind, len(counts), maxTallyDomain)
	}
	if total < 0 {
		return fmt.Errorf("%w: negative %s total %d", ErrCodec, kind, total)
	}
	for v, c := range counts {
		if c < 0 {
			return fmt.Errorf("%w: negative %s count %d for item %d", ErrCodec, kind, c, v)
		}
	}
	return nil
}

// Merge folds another node's tally for the same epoch into this one.
// The merge is exact — int64 addition of per-item counts and totals —
// which is the whole cluster-mode guarantee: order and grouping of
// merges cannot change the result. The node id is not merged; the
// caller owns the identity of the combined aggregate.
func (t *Tally) Merge(other *Tally) error {
	if other == nil {
		return fmt.Errorf("%w: merging a nil tally", ErrCodec)
	}
	return other.MergeInto(t)
}

// MergeInto folds this tally into acc, never retaining its counts.
// The fold is exact int64 addition, so any grouping of MergeInto/Merge
// calls over the same tallies produces the same bits;
// CountFrame.MergeInto is the same fold from the wire bytes.
func (t *Tally) MergeInto(acc *Tally) error {
	if err := checkMerge(len(t.Counts), t.Epoch, acc); err != nil {
		return err
	}
	for v, c := range t.Counts {
		acc.Counts[v] += c
	}
	acc.Total += t.Total
	return nil
}

// checkMerge is both MergeInto folds' shape check: a source over domain
// d for epoch folds only into a non-nil tally of that domain and epoch.
func checkMerge(d, epoch int, acc *Tally) error {
	switch {
	case acc == nil:
		return fmt.Errorf("%w: merging into a nil tally", ErrCodec)
	case d != len(acc.Counts):
		return fmt.Errorf("%w: merging tallies over domains %d and %d", ErrCodec, d, len(acc.Counts))
	case epoch != acc.Epoch:
		return fmt.Errorf("%w: merging tallies for epochs %d and %d", ErrCodec, epoch, acc.Epoch)
	}
	return nil
}

// Clone returns a deep copy.
func (t *Tally) Clone() *Tally {
	return &Tally{NodeID: t.NodeID, Epoch: t.Epoch, Counts: slices.Clone(t.Counts), Total: t.Total}
}

// Count-frame wire format (little endian), shared by the sealed-tally
// ("LT") and partial-tally ("LP", partial.go) frames:
//
//	byte 0..1:  magic, "LT" or "LP"
//	byte 2:     format version (currently 1)
//	byte 3..4:  uint16 node id length, then that many id bytes
//	then:       uint64 epoch (a tally's sealed epoch, a partial's
//	            epoch hint), uint64 total (a tally's report total, a
//	            partial's user count), uint32 domain d,
//	            d uint64 per-item support counts
//	trailer:    uint32 CRC-32C over every preceding byte
//
// Unlike report frames (which travel inside HTTP bodies the server
// already length-checks), a count frame crosses a node boundary or sits
// in a WAL, where a partially written or bit-flipped frame would
// silently corrupt the merged view for an entire epoch, so the frame
// carries its own checksum like the WAL records it is derived from.
// The two kinds differ only in magic and field meaning; both magics
// stay, since WALs hold "LP" records and the replay dispatch routes on
// them.
const (
	countFrameVersion = 1

	// maxTallyDomain caps the declared domain so a corrupt frame cannot
	// drive a gigabyte allocation before the CRC check runs; it matches
	// the unary report codec's bit cap.
	maxTallyDomain = 1 << 26
	// maxTallyNodeID bounds the node id, which is operator-chosen
	// configuration, not data.
	maxTallyNodeID = 256

	countHeaderSize = 2 + 1 + 2
)

var tallyMagic = [2]byte{'L', 'T'}

// tallyCRCTable is the Castagnoli polynomial, the same the WAL uses.
var tallyCRCTable = crc32.MakeTable(crc32.Castagnoli)

// MarshalTally frames a sealed tally for the wire.
func MarshalTally(t *Tally) ([]byte, error) {
	if t == nil {
		return nil, fmt.Errorf("%w: marshaling a nil tally", ErrCodec)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return marshalCountFrame(tallyMagic, t.NodeID, t.Epoch, t.Total, t.Counts), nil
}

// UnmarshalTally parses a wire-format sealed tally.
func UnmarshalTally(data []byte) (*Tally, error) {
	f, err := ValidateTallyFrame(data)
	if err != nil {
		return nil, err
	}
	return &Tally{NodeID: f.NodeID, Epoch: f.Epoch, Counts: f.decodeCounts(), Total: f.Total}, nil
}

// ValidateTallyFrame checks frame as an "LT" count frame — accepting
// exactly the frames UnmarshalTally accepts — and returns a view of it.
func ValidateTallyFrame(frame []byte) (CountFrame, error) {
	return validateCountFrame(frame, tallyMagic, "tally")
}

// CountFrame is a validated view of an "LT" or "LP" count frame (as
// its validator decides): header fields decoded, counts left as the
// frame's little-endian bytes, so neither count lane decodes a []int64.
// It aliases the bytes it was validated from (only NodeID is copied)
// and is valid only while those bytes are.
type CountFrame struct {
	// NodeID, Epoch and Total mean what they do in Tally; for a
	// partial, Epoch is the epoch hint and Total the user count.
	NodeID string
	Epoch  int
	Total  int64

	frame  []byte // the whole validated frame
	counts []byte // its 8*Domain() count bytes, each a non-negative int64
}

// Domain returns the number of items the frame counts.
func (f CountFrame) Domain() int { return len(f.counts) / 8 }

// Bytes returns the validated wire frame the view aliases — what a
// durable store appends to its log.
func (f CountFrame) Bytes() []byte { return f.frame }

// decodeCounts copies the wire counts into a fresh []int64.
func (f CountFrame) decodeCounts() []int64 {
	counts := make([]int64, f.Domain())
	addCountBytes(counts, f.counts)
	return counts
}

// addCountBytes adds src's little-endian int64 counts to dst: the one
// loop every fold from count-frame bytes runs. Four items per re-sliced
// step measured about twice the one-item loop's speed at d=4096.
func addCountBytes(dst []int64, src []byte) {
	for ; len(dst) >= 4 && len(src) >= 32; dst, src = dst[4:], src[32:] {
		dst[0] += int64(binary.LittleEndian.Uint64(src))
		dst[1] += int64(binary.LittleEndian.Uint64(src[8:]))
		dst[2] += int64(binary.LittleEndian.Uint64(src[16:]))
		dst[3] += int64(binary.LittleEndian.Uint64(src[24:]))
	}
	for v := range dst {
		dst[v] += int64(binary.LittleEndian.Uint64(src))
		src = src[8:]
	}
}

// Chunk-parallel merging (merge-on-arrival, DESIGN.md §9): the counts
// split into disjoint chunks folded by a small worker pool, race-free
// and bit-identical to the sequential fold whatever the worker count.
const (
	// parallelMergeMin is the domain below which MergeInto stays
	// sequential: goroutine handoff would dominate a few-µs fold.
	parallelMergeMin = 1 << 15
	// parallelMergeGrain is the minimum chunk per worker.
	parallelMergeGrain = 1 << 13
)

// MergeInto folds the frame into acc straight from the wire bytes,
// exactly like Tally.MergeInto of the decoded tally, chunked across a
// worker pool when the domain and GOMAXPROCS make that worthwhile.
func (f CountFrame) MergeInto(acc *Tally) error {
	return f.mergeInto(acc, runtime.GOMAXPROCS(0))
}

// mergeInto is MergeInto with an explicit worker count, the hook tests
// use to force real chunking on any host.
func (f CountFrame) mergeInto(acc *Tally, workers int) error {
	d := f.Domain()
	if err := checkMerge(d, f.Epoch, acc); err != nil {
		return err
	}
	if workers = min(workers, d/parallelMergeGrain); workers <= 1 || d < parallelMergeMin {
		addCountBytes(acc.Counts, f.counts)
	} else {
		chunk := (d + workers - 1) / workers
		var wg sync.WaitGroup
		for lo := 0; lo < d; lo += chunk {
			hi := min(lo+chunk, d)
			wg.Add(1)
			go func(dst []int64, src []byte) {
				defer wg.Done()
				addCountBytes(dst, src)
			}(acc.Counts[lo:hi], f.counts[8*lo:8*hi])
		}
		wg.Wait()
	}
	acc.Total += f.Total
	return nil
}

// marshalCountFrame encodes already-validated count-frame fields.
func marshalCountFrame(magic [2]byte, nodeID string, epoch int, total int64, counts []int64) []byte {
	size := countHeaderSize + len(nodeID) + 8 + 8 + 4 + 8*len(counts) + 4
	b := make([]byte, 0, size)
	b = append(b, magic[0], magic[1], countFrameVersion)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(nodeID)))
	b = append(b, nodeID...)
	b = binary.LittleEndian.AppendUint64(b, uint64(epoch))
	b = binary.LittleEndian.AppendUint64(b, uint64(total))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(counts)))
	for _, c := range counts {
		b = binary.LittleEndian.AppendUint64(b, uint64(c))
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, tallyCRCTable))
}

// validateCountFrame is the one definition of a valid count frame with
// the given magic; kind names the frame in errors. The CRC is verified
// before any field is trusted, every declared length is bounds-checked
// against the frame, and every count is checked non-negative on the
// wire bytes, so a frame that passes here satisfies validateCounts
// once decoded. Nothing is allocated but the node id string; the
// returned view aliases data.
func validateCountFrame(data []byte, magic [2]byte, kind string) (CountFrame, error) {
	if len(data) < countHeaderSize+8+8+4+4 {
		return CountFrame{}, fmt.Errorf("%w: short %s frame (%d bytes)", ErrCodec, kind, len(data))
	}
	if data[0] != magic[0] || data[1] != magic[1] {
		return CountFrame{}, fmt.Errorf("%w: bad %s magic %q", ErrCodec, kind, string(data[:2]))
	}
	if data[2] != countFrameVersion {
		return CountFrame{}, fmt.Errorf("%w: unsupported %s version %d", ErrCodec, kind, data[2])
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, tallyCRCTable) != binary.LittleEndian.Uint32(tail) {
		return CountFrame{}, fmt.Errorf("%w: %s checksum mismatch", ErrCodec, kind)
	}
	idLen := int(binary.LittleEndian.Uint16(data[3:]))
	if idLen == 0 || idLen > maxTallyNodeID {
		return CountFrame{}, fmt.Errorf("%w: %s node id length %d outside [1, %d]",
			ErrCodec, kind, idLen, maxTallyNodeID)
	}
	rest := body[countHeaderSize:]
	if len(rest) < idLen+8+8+4 {
		return CountFrame{}, fmt.Errorf("%w: %s frame truncated inside header", ErrCodec, kind)
	}
	id := rest[:idLen]
	rest = rest[idLen:]
	epoch := binary.LittleEndian.Uint64(rest)
	total := binary.LittleEndian.Uint64(rest[8:])
	d := binary.LittleEndian.Uint32(rest[16:])
	rest = rest[20:]
	if epoch > math.MaxInt64 || total > math.MaxInt64 {
		return CountFrame{}, fmt.Errorf("%w: %s epoch/total out of int64 range", ErrCodec, kind)
	}
	if d < 2 || d > maxTallyDomain {
		return CountFrame{}, fmt.Errorf("%w: %s domain %d outside [2, %d]", ErrCodec, kind, d, maxTallyDomain)
	}
	if len(rest) != 8*int(d) {
		return CountFrame{}, fmt.Errorf("%w: %s frame holds %d count bytes, domain %d needs %d",
			ErrCodec, kind, len(rest), d, 8*d)
	}
	// A count is negative exactly when bit 63 of its little-endian word
	// is set: OR the words together, four at a time, and test the bit
	// once. Only a frame that fails is walked again, to name the first
	// negative item.
	var signs uint64
	w := rest
	for ; len(w) >= 32; w = w[32:] {
		signs |= binary.LittleEndian.Uint64(w) | binary.LittleEndian.Uint64(w[8:]) |
			binary.LittleEndian.Uint64(w[16:]) | binary.LittleEndian.Uint64(w[24:])
	}
	for ; len(w) >= 8; w = w[8:] {
		signs |= binary.LittleEndian.Uint64(w)
	}
	if signs>>63 != 0 {
		for v := 0; v < int(d); v++ {
			if c := int64(binary.LittleEndian.Uint64(rest[8*v:])); c < 0 {
				return CountFrame{}, fmt.Errorf("%w: negative %s count %d for item %d",
					ErrCodec, kind, c, v)
			}
		}
	}
	return CountFrame{NodeID: string(id), Epoch: int(epoch), Total: int64(total),
		frame: data, counts: rest}, nil
}
