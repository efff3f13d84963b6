package ldp

import (
	"encoding/binary"
	"fmt"
)

// Batch wire format: many reports in one frame, the unit the serving
// layer ingests over HTTP. Layout (little endian):
//
//	byte 0..1:  "LB" magic
//	byte 2:     batch format version (currently 1)
//	byte 3..6:  uint32 report count
//	then per report: uint32 length, followed by that many bytes of the
//	single-report wire format (MarshalReport).
//
// The frame deliberately carries no compression or domain metadata —
// reports are already near-incompressible perturbed bits, and domain
// validation belongs to the aggregating server, exactly as in the
// single-report codec.
const (
	batchVersion = 1

	// MaxBatchReports caps a frame's declared report count so a corrupt
	// or hostile length field cannot make the decoder pre-allocate
	// gigabytes. Servers enforce their own (usually much smaller) batch
	// limits on top.
	MaxBatchReports = 1 << 22
)

var batchMagic = [2]byte{'L', 'B'}

// MarshalReportBatch frames a slice of reports for the wire. Marshaling
// is per report, so a frame may mix protocols; decoding rejects nothing a
// single-report decode would accept.
func MarshalReportBatch(reps []Report) ([]byte, error) {
	if len(reps) > MaxBatchReports {
		return nil, fmt.Errorf("%w: batch of %d reports exceeds cap %d",
			ErrCodec, len(reps), MaxBatchReports)
	}
	bufs := make([][]byte, len(reps))
	size := 7
	for i, rep := range reps {
		b, err := MarshalReport(rep)
		if err != nil {
			return nil, fmt.Errorf("batch report %d: %w", i, err)
		}
		bufs[i] = b
		size += 4 + len(b)
	}
	out := make([]byte, 0, size)
	out = append(out, batchMagic[0], batchMagic[1], batchVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(reps)))
	for _, b := range bufs {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(b)))
		out = append(out, b...)
	}
	return out, nil
}

// UnmarshalReportBatch parses a wire-format report batch. The frame must
// be exactly one batch: trailing bytes are an error, like every other
// malformed frame.
func UnmarshalReportBatch(data []byte) ([]Report, error) {
	f, err := ValidateReportBatchFrame(data)
	if err != nil {
		return nil, err
	}
	reps := make([]Report, 0, f.Reports())
	for off := 7; off < len(data); {
		sub, next := f.sub(off)
		reps = append(reps, unmarshalValidReport(sub))
		off = next
	}
	return reps, nil
}
