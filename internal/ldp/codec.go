package ldp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Wire format for reports, so clients and servers written against this
// library can exchange perturbed data. Layout (little endian):
//
//	byte 0:   format version (currently 1)
//	byte 1:   protocol tag (GRR=1, unary=2, OLH=5)
//	payload:  tag-specific fixed-width fields
//
//	GRR:    uint32 value
//	unary:  uint32 bit count, then ceil(n/64) uint64 words
//	        (OUE and SUE)
//	OLH:    uint64 seed, uint32 value, uint32 g
//
// Two tags are retired and REJECTED on decode. An OLH report's bytes
// only mean something relative to the hash family that produced its
// value, so the OLH tag encodes the family: tag 3 is the retired
// single-stage v1 family (decoding it as v2 would silently turn every
// estimate into noise — the true item's support probability collapses
// from p to ~1/g); tag 5 is the current two-stage (hashx.Premixed)
// family. Tag 4 was a sparse unary encoding (a sorted support list);
// unary reports now go only as dense bitsets.
const (
	codecVersion = 1

	tagGRR    = 1
	tagUnary  = 2
	tagOLHV1  = 3
	tagSparse = 4
	tagOLH    = 5

	// maxReportBits caps a unary report's declared bit count (64 Mbit)
	// so a corrupt length cannot drive a huge allocation.
	maxReportBits = 1 << 26
)

// ErrCodec wraps all report (de)serialization failures.
var ErrCodec = errors.New("ldp: report codec")

// MarshalReport serializes a report to its wire format. Arena-backed
// reports (the pointer boxings PerturbAllInto produces) serialize
// identically to their value forms.
func MarshalReport(rep Report) ([]byte, error) {
	switch r := rep.(type) {
	case *GRRReport:
		return MarshalReport(*r)
	case *OUEReport:
		return MarshalReport(*r)
	case *OLHReport:
		return MarshalReport(*r)
	}
	switch r := rep.(type) {
	case GRRReport:
		if r < 0 || int64(r) > math.MaxUint32 {
			return nil, fmt.Errorf("%w: GRR value %d out of range", ErrCodec, int(r))
		}
		buf := make([]byte, 2+4)
		buf[0], buf[1] = codecVersion, tagGRR
		binary.LittleEndian.PutUint32(buf[2:], uint32(r))
		return buf, nil
	case OUEReport:
		if r.Bits == nil {
			return nil, fmt.Errorf("%w: nil unary bitset", ErrCodec)
		}
		n := r.Bits.Len()
		if n <= 0 || n > maxReportBits {
			return nil, fmt.Errorf("%w: unary bit count %d out of range", ErrCodec, n)
		}
		words := (n + 63) / 64
		buf := make([]byte, 2+4+8*words)
		buf[0], buf[1] = codecVersion, tagUnary
		binary.LittleEndian.PutUint32(buf[2:], uint32(n))
		for w := 0; w < words; w++ {
			binary.LittleEndian.PutUint64(buf[6+8*w:], r.Bits.words[w])
		}
		return buf, nil
	case OLHReport:
		if r.G < 2 || r.Value < 0 || r.Value >= r.G {
			return nil, fmt.Errorf("%w: invalid OLH report g=%d value=%d", ErrCodec, r.G, r.Value)
		}
		buf := make([]byte, 2+8+4+4)
		buf[0], buf[1] = codecVersion, tagOLH
		binary.LittleEndian.PutUint64(buf[2:], r.Seed)
		binary.LittleEndian.PutUint32(buf[10:], uint32(r.Value))
		binary.LittleEndian.PutUint32(buf[14:], uint32(r.G))
		return buf, nil
	default:
		return nil, fmt.Errorf("%w: unsupported report type %T", ErrCodec, rep)
	}
}

// UnmarshalReport parses a wire-format report. It validates structure
// (version, tag, lengths, field ranges) but cannot validate domain
// membership — callers aggregate against their own domain size.
func UnmarshalReport(data []byte) (Report, error) {
	if err := validateReportFrame(data); err != nil {
		return nil, err
	}
	return unmarshalValidReport(data), nil
}

// unmarshalValidReport extracts the report from a frame that
// validateReportFrame accepted; it checks nothing itself.
func unmarshalValidReport(data []byte) Report {
	payload := data[2:]
	switch data[1] {
	case tagGRR:
		return GRRReport(binary.LittleEndian.Uint32(payload))
	case tagUnary:
		bits := NewBitset(int(binary.LittleEndian.Uint32(payload)))
		for w := range bits.words {
			bits.words[w] = binary.LittleEndian.Uint64(payload[4+8*w:])
		}
		return OUEReport{Bits: bits}
	default: // tagOLH — validation admits no other tag
		return OLHReport{
			Seed:  binary.LittleEndian.Uint64(payload),
			Value: int(binary.LittleEndian.Uint32(payload[8:])),
			G:     int(binary.LittleEndian.Uint32(payload[12:])),
		}
	}
}
