// Fixture for the codecbounds missing-CRC rule: the Tally/Partial/
// Announce frame family carries a CRC-32C trailer, so a decoder with
// one of those names — or the count-frame decoder or validator Tally
// and Partial share — that never touches hash/crc32 cannot be
// verifying it.
package nocrc

import (
	"encoding/binary"
	"errors"

	"codecbounds"
)

var errFrame = errors.New("bad frame")

const maxDomain = 1 << 26

func UnmarshalTally(b []byte) ([]int64, error) { // want "never verifies a CRC-32C"
	if len(b) < 8 {
		return nil, errFrame
	}
	d := int(binary.LittleEndian.Uint32(b[:4]))
	if d < 0 || d > maxDomain {
		return nil, errFrame
	}
	return make([]int64, d), nil
}

// UnmarshalPartial delegates to a CRC-required decoder; the callee is
// held to the invariant, so the wrapper inherits its verification.
func UnmarshalPartial(b []byte) (*codecbounds.Tally, error) {
	return codecbounds.UnmarshalTally(b)
}

// unmarshalCountFrame is the shared count-frame decoder: unexported,
// still CRC-required.
func unmarshalCountFrame(b []byte) ([]int64, error) { // want "never verifies a CRC-32C"
	if len(b) < 8 {
		return nil, errFrame
	}
	d := int(binary.LittleEndian.Uint32(b[:4]))
	if d < 0 || d > maxDomain {
		return nil, errFrame
	}
	return make([]int64, d), nil
}

// validateCountFrame is the shared count-frame validator: it checks
// lengths but skips the CRC, so it is reported like a decoder.
func validateCountFrame(b []byte) (int, error) { // want "never verifies a CRC-32C"
	if len(b) < 8 {
		return 0, errFrame
	}
	d := int(binary.LittleEndian.Uint32(b[:4]))
	if d < 2 || d > maxDomain || len(b) != 8+8*d {
		return 0, errFrame
	}
	return d, nil
}

// UnmarshalAnnounce delegates to the shared decoder and inherits its
// verification, so only the callee is reported.
func UnmarshalAnnounce(b []byte) ([]int64, error) {
	return unmarshalCountFrame(b)
}
