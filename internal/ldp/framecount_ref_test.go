package ldp

import (
	"encoding/binary"
	"fmt"
)

// Reference copies of the report-frame validator and dense frame walker
// as they were before the strided fast paths: a generic per-report
// check, and a dense fold that re-parses every sub-frame's header. The
// stride tests hold the production code to these, error text and
// counts alike.

// refValidateBatchFrame checks a batch frame and every sub-frame in it
// through validateReportFrame, returning the report count.
func refValidateBatchFrame(frame []byte) (int, error) {
	if len(frame) < 7 {
		return 0, fmt.Errorf("%w: short batch frame (%d bytes)", ErrCodec, len(frame))
	}
	if frame[0] != batchMagic[0] || frame[1] != batchMagic[1] {
		return 0, fmt.Errorf("%w: bad batch magic %q", ErrCodec, string(frame[:2]))
	}
	if frame[2] != batchVersion {
		return 0, fmt.Errorf("%w: unsupported batch version %d", ErrCodec, frame[2])
	}
	count := binary.LittleEndian.Uint32(frame[3:])
	if count > MaxBatchReports {
		return 0, fmt.Errorf("%w: batch declares %d reports, cap %d",
			ErrCodec, count, MaxBatchReports)
	}
	if int64(count)*10 > int64(len(frame)-7) {
		return 0, fmt.Errorf("%w: batch declares %d reports in %d bytes",
			ErrCodec, count, len(frame))
	}
	rest := frame[7:]
	for i := uint32(0); i < count; i++ {
		if len(rest) < 4 {
			return 0, fmt.Errorf("%w: batch truncated at report %d", ErrCodec, i)
		}
		n := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(n) > uint64(len(rest)) {
			return 0, fmt.Errorf("%w: batch report %d declares %d bytes, %d remain",
				ErrCodec, i, n, len(rest))
		}
		if err := validateReportFrame(rest[:n]); err != nil {
			return 0, fmt.Errorf("batch report %d: %w", i, err)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes after batch", ErrCodec, len(rest))
	}
	return int(count), nil
}

// refAddReportFrame folds a validated frame through the header-parsing
// dense walker below and the production OLH and GRR walkers.
func (a *Accumulator) refAddReportFrame(f ReportFrame) {
	for off := 7; off < len(f.frame); {
		sub, _ := f.sub(off)
		switch sub[1] {
		case tagUnary:
			n := int(binary.LittleEndian.Uint32(sub[2:]))
			off = a.refAddDenseFrameRun(f, off, (n+63)/64)
		case tagOLH:
			off = a.addOLHFrameRun(f, off)
		default:
			off = a.addGRRFrameRun(f, off)
		}
	}
}

// refDenseFrameWords returns the word region and word count of a dense
// unary sub-frame, or ok=false for any other tag.
func refDenseFrameWords(f []byte) (words []byte, n int, ok bool) {
	if f[1] != tagUnary {
		return nil, 0, false
	}
	bitLen := int(binary.LittleEndian.Uint32(f[2:]))
	return f[6:], (bitLen + 63) / 64, true
}

// refAddDenseFrameRun folds the run of dense sub-frames with the given
// word count from off, 8 at a time through add8, the rest through add1.
func (a *Accumulator) refAddDenseFrameRun(f ReportFrame, off, words int) int {
	fold := a.newDenseFold(words)
	var ws [8][]byte
	n := 0
	for next, ok := refDenseFrames8(&ws, f, off, words); ok; next, ok = refDenseFrames8(&ws, f, off, words) {
		fold.add8(&ws)
		off, n = next, n+8
	}
	for off < len(f.frame) {
		sub, next := f.sub(off)
		region, w, ok := refDenseFrameWords(sub)
		if !ok || w != words {
			break
		}
		fold.add1(region)
		off, n = next, n+1
	}
	fold.flush()
	a.total += int64(n)
	return off
}

// refDenseFrames8 points ws at the word regions of the 8 sub-frames from
// off, or reports false when the run ends inside the group.
func refDenseFrames8(ws *[8][]byte, f ReportFrame, off, words int) (int, bool) {
	for k := range ws {
		if off >= len(f.frame) {
			return 0, false
		}
		sub, next := f.sub(off)
		region, n, ok := refDenseFrameWords(sub)
		if !ok || n != words {
			return 0, false
		}
		ws[k], off = region, next
	}
	return off, true
}
