package ldp

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
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

// MergeInto folds this tally into acc — the direction the merge tree's
// accept path uses: the incoming tally is the receiver, the per-epoch
// accumulated tally the argument, and the incoming counts are never
// retained. The fold is exact int64 addition, so any grouping of
// MergeInto/Merge calls over the same tallies produces the same bits.
func (t *Tally) MergeInto(acc *Tally) error {
	if acc == nil {
		return fmt.Errorf("%w: merging into a nil tally", ErrCodec)
	}
	if len(t.Counts) != len(acc.Counts) {
		return fmt.Errorf("%w: merging tallies over domains %d and %d",
			ErrCodec, len(t.Counts), len(acc.Counts))
	}
	if t.Epoch != acc.Epoch {
		return fmt.Errorf("%w: merging tallies for epochs %d and %d",
			ErrCodec, t.Epoch, acc.Epoch)
	}
	for v, c := range t.Counts {
		acc.Counts[v] += c
	}
	acc.Total += t.Total
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
	f, err := validateCountFrame(data, tallyMagic, "tally")
	if err != nil {
		return nil, err
	}
	return &Tally{NodeID: f.nodeID, Epoch: f.epoch, Counts: f.decodeCounts(), Total: f.total}, nil
}

// countFrame is a validated count frame's header fields and its counts
// as raw wire bytes: 8 bytes per item, little endian, each a
// non-negative int64. counts aliases the validated frame.
type countFrame struct {
	nodeID string
	epoch  int
	total  int64
	counts []byte
}

// decodeCounts copies the wire counts into a fresh []int64.
func (f *countFrame) decodeCounts() []int64 {
	counts := make([]int64, len(f.counts)/8)
	for v := range counts {
		counts[v] = int64(binary.LittleEndian.Uint64(f.counts[8*v:]))
	}
	return counts
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
// returned counts alias data.
func validateCountFrame(data []byte, magic [2]byte, kind string) (countFrame, error) {
	var f countFrame
	if len(data) < countHeaderSize+8+8+4+4 {
		return f, fmt.Errorf("%w: short %s frame (%d bytes)", ErrCodec, kind, len(data))
	}
	if data[0] != magic[0] || data[1] != magic[1] {
		return f, fmt.Errorf("%w: bad %s magic %q", ErrCodec, kind, string(data[:2]))
	}
	if data[2] != countFrameVersion {
		return f, fmt.Errorf("%w: unsupported %s version %d", ErrCodec, kind, data[2])
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, tallyCRCTable) != binary.LittleEndian.Uint32(tail) {
		return f, fmt.Errorf("%w: %s checksum mismatch", ErrCodec, kind)
	}
	idLen := int(binary.LittleEndian.Uint16(data[3:]))
	if idLen == 0 || idLen > maxTallyNodeID {
		return f, fmt.Errorf("%w: %s node id length %d outside [1, %d]",
			ErrCodec, kind, idLen, maxTallyNodeID)
	}
	rest := body[countHeaderSize:]
	if len(rest) < idLen+8+8+4 {
		return f, fmt.Errorf("%w: %s frame truncated inside header", ErrCodec, kind)
	}
	id := rest[:idLen]
	rest = rest[idLen:]
	epoch := binary.LittleEndian.Uint64(rest)
	total := binary.LittleEndian.Uint64(rest[8:])
	d := binary.LittleEndian.Uint32(rest[16:])
	rest = rest[20:]
	if epoch > math.MaxInt64 || total > math.MaxInt64 {
		return f, fmt.Errorf("%w: %s epoch/total out of int64 range", ErrCodec, kind)
	}
	if d < 2 || d > maxTallyDomain {
		return f, fmt.Errorf("%w: %s domain %d outside [2, %d]", ErrCodec, kind, d, maxTallyDomain)
	}
	if len(rest) != 8*int(d) {
		return f, fmt.Errorf("%w: %s frame holds %d count bytes, domain %d needs %d",
			ErrCodec, kind, len(rest), d, 8*d)
	}
	// A count is negative exactly when the top bit of its last
	// (little-endian, most significant) byte is set.
	for v := 0; v < int(d); v++ {
		if rest[8*v+7]&0x80 != 0 {
			return f, fmt.Errorf("%w: negative %s count %d for item %d",
				ErrCodec, kind, int64(binary.LittleEndian.Uint64(rest[8*v:])), v)
		}
	}
	f.nodeID = string(id)
	f.epoch = int(epoch)
	f.total = int64(total)
	f.counts = rest
	return f, nil
}
