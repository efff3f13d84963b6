// Fixture for the codecbounds analyzer: wire decoders must
// bounds-check wire-derived lengths before allocating and verify the
// frame CRC-32C before any wire-derived allocation.
package codecbounds

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var errFrame = errors.New("bad frame")

const maxDomain = 1 << 26

type Tally struct {
	Counts []int64
}

// UnmarshalTally is the well-formed decoder: CRC verified first, the
// wire-derived length bound before it drives an allocation.
func UnmarshalTally(b []byte) (*Tally, error) {
	if len(b) < 12 {
		return nil, errFrame
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return nil, errFrame
	}
	d := int(binary.LittleEndian.Uint32(body[4:8]))
	if d < 0 || d > maxDomain {
		return nil, errFrame
	}
	t := &Tally{Counts: make([]int64, d)}
	return t, nil
}

// UnmarshalPartial checksums the frame but allocates from an unchecked
// wire length.
func UnmarshalPartial(b []byte) ([]int64, error) {
	if len(b) < 8 {
		return nil, errFrame
	}
	if crc32.Checksum(b[:len(b)-4], castagnoli) != binary.LittleEndian.Uint32(b[len(b)-4:]) {
		return nil, errFrame
	}
	d := int(binary.LittleEndian.Uint32(b[:4]))
	out := make([]int64, d) // want "without a prior bounds check"
	return out, nil
}

// UnmarshalAnnounce reads the length inline inside make, so it cannot
// have been bounds-checked.
func UnmarshalAnnounce(b []byte) ([]byte, error) {
	if len(b) < 8 {
		return nil, errFrame
	}
	if crc32.Checksum(b[:len(b)-4], castagnoli) != binary.LittleEndian.Uint32(b[len(b)-4:]) {
		return nil, errFrame
	}
	out := make([]byte, binary.LittleEndian.Uint16(b)) // want "read inline"
	return out, nil
}

// ValidateSpanFrame bounds-checks correctly but allocates before the
// CRC is verified, letting a corrupt frame drive the allocation.
func ValidateSpanFrame(b []byte) error {
	if len(b) < 8 {
		return errFrame
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n > maxDomain {
		return errFrame
	}
	buf := make([]byte, n) // want "before the CRC-32C check"
	copy(buf, b[4:])
	if crc32.Checksum(buf, castagnoli) != binary.LittleEndian.Uint32(b[len(b)-4:]) {
		return errFrame
	}
	return nil
}

// UnmarshalLegacy takes a recorded exception: the 16-bit wire type
// already caps the length.
func UnmarshalLegacy(b []byte) []byte {
	n := int(binary.LittleEndian.Uint16(b))
	//ldplint:allow codecbounds length is capped at 64 KiB by the 16-bit wire type
	return make([]byte, n)
}

// UnmarshalHeader re-derives its length locally: no wire taint, no
// finding.
func UnmarshalHeader(b []byte) []byte {
	n := len(b) / 2
	return make([]byte, n)
}

// unmarshalCountFrame is an unexported shared decoder: lower-case, but
// in scope and held to both rules. It allocates before its CRC check.
func unmarshalCountFrame(b []byte) ([]int64, error) {
	if len(b) < 8 {
		return nil, errFrame
	}
	d := int(binary.LittleEndian.Uint32(b[:4]))
	if d < 0 || d > maxDomain {
		return nil, errFrame
	}
	out := make([]int64, d) // want "before the CRC-32C check"
	if crc32.Checksum(b[:len(b)-4], castagnoli) != binary.LittleEndian.Uint32(b[len(b)-4:]) {
		return nil, errFrame
	}
	return out, nil
}

// validateWordsFrame is an unexported validator: in scope, so its
// unchecked wire length is a finding.
func validateWordsFrame(b []byte) error {
	n := int(binary.LittleEndian.Uint32(b))
	_ = make([]uint64, n) // want "without a prior bounds check"
	return nil
}
