package ldp

import (
	"encoding/binary"
	"fmt"
)

// Zero-copy batch ingest: AddBatchFrame folds a marshaled "LB" report
// batch straight from the wire bytes — no []Report materialization, no
// per-report boxing, no bitset allocation. It is the one report lane of
// the server: live ingest and WAL replay both fold frames through it.
//
// The validators below are the one definition of a valid report frame:
// UnmarshalReport and UnmarshalReportBatch run them first and then only
// extract fields, so the decoders, the request-path check and the fold
// cannot disagree on what they admit. AddBatchFrame validates and
// slices the frame into per-report sub-frames in one walk, then the run
// walkers pull words, indices, seeds and values out of the sub-frames
// in place and hand them to the kernels AddBatch uses (addbatch.go).
// The aggregate is bit-identical to UnmarshalReportBatch + AddBatch,
// which the equivalence tests pin; validation runs to completion before
// any count moves, so a bad frame leaves the accumulator untouched.

// ValidateReportBatchFrame structurally validates a wire-format report
// batch frame without decoding it, returning the report count. A frame
// that passes here cannot fail a later decode or an AddBatchFrame fold.
// Servers call this on the request path to settle the 400-vs-accepted
// decision (and learn the user volume) before the frame is queued for
// durable ingest.
func ValidateReportBatchFrame(frame []byte) (int, error) {
	return validateBatchFrame(frame, nil)
}

// validateBatchFrame is ValidateReportBatchFrame that also appends each
// validated single-report sub-frame to *subs when subs is non-nil. On
// error *subs may hold the sub-frames validated before the bad one.
func validateBatchFrame(frame []byte, subs *[][]byte) (int, error) {
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
	// A report is at least 6 bytes on the wire (GRR) plus its 4-byte
	// length prefix, so the declared count also may not exceed what the
	// frame could physically hold.
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
		if subs != nil {
			*subs = append(*subs, rest[:n])
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes after batch", ErrCodec, len(rest))
	}
	return int(count), nil
}

// validateReportFrame checks one single-report wire frame (version, tag,
// lengths, field ranges), allocating nothing. It cannot check domain
// membership — callers aggregate against their own domain size.
func validateReportFrame(data []byte) error {
	if len(data) < 2 {
		return fmt.Errorf("%w: short buffer (%d bytes)", ErrCodec, len(data))
	}
	if data[0] != codecVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrCodec, data[0])
	}
	payload := data[2:]
	switch data[1] {
	case tagGRR:
		if len(payload) != 4 {
			return fmt.Errorf("%w: GRR payload %d bytes, want 4", ErrCodec, len(payload))
		}
	case tagUnary:
		if len(payload) < 4 {
			return fmt.Errorf("%w: unary payload too short", ErrCodec)
		}
		n := int(binary.LittleEndian.Uint32(payload))
		if n <= 0 || n > maxReportBits {
			return fmt.Errorf("%w: unary bit count %d out of range", ErrCodec, n)
		}
		words := (n + 63) / 64
		if len(payload) != 4+8*words {
			return fmt.Errorf("%w: unary payload %d bytes, want %d", ErrCodec, len(payload), 4+8*words)
		}
		// Set bits beyond the declared length would corrupt Count and
		// aggregation.
		if tail := n % 64; tail != 0 {
			if binary.LittleEndian.Uint64(payload[4+8*(words-1):])>>uint(tail) != 0 {
				return fmt.Errorf("%w: unary report has bits beyond length %d", ErrCodec, n)
			}
		}
	case tagOLHV1:
		return fmt.Errorf("%w: OLH report uses the retired v1 hash family; "+
			"its hash values cannot be interpreted by the current two-stage family — re-collect the report", ErrCodec)
	case tagOLH:
		if len(payload) != 16 {
			return fmt.Errorf("%w: OLH payload %d bytes, want 16", ErrCodec, len(payload))
		}
		value := int(binary.LittleEndian.Uint32(payload[8:]))
		g := int(binary.LittleEndian.Uint32(payload[12:]))
		if g < 2 || value < 0 || value >= g {
			return fmt.Errorf("%w: invalid OLH fields g=%d value=%d", ErrCodec, g, value)
		}
	case tagSparse:
		if len(payload) < 8 {
			return fmt.Errorf("%w: sparse unary payload too short", ErrCodec)
		}
		n := int(binary.LittleEndian.Uint32(payload))
		if n <= 0 || n > maxReportBits {
			return fmt.Errorf("%w: sparse unary bit count %d out of range", ErrCodec, n)
		}
		k := int(binary.LittleEndian.Uint32(payload[4:]))
		if k > n || len(payload) != 8+4*k {
			return fmt.Errorf("%w: sparse unary payload %d bytes for %d supports", ErrCodec, len(payload), k)
		}
		prev := int32(-1)
		for i := 0; i < k; i++ {
			v := binary.LittleEndian.Uint32(payload[8+4*i:])
			if int64(v) >= int64(n) || int32(v) <= prev {
				return fmt.Errorf("%w: sparse unary support %d out of order or range", ErrCodec, v)
			}
			prev = int32(v)
		}
	default:
		return fmt.Errorf("%w: unknown tag %d", ErrCodec, data[1])
	}
	return nil
}

// AddBatchFrame folds a wire-format report batch frame into the
// aggregate without decoding it into reports. Bit-identical to
// UnmarshalReportBatch followed by AddBatch; on error nothing is folded.
func (a *Accumulator) AddBatchFrame(frame []byte) error {
	// One walk validates the frame and slices it into the per-report
	// sub-frames the run walkers group by type. The slice header is
	// reused across calls and cleared afterwards, on error too, so it
	// never pins the (possibly pooled) wire buffer.
	a.scratch.frames = a.scratch.frames[:0]
	_, err := validateBatchFrame(frame, &a.scratch.frames)
	if err == nil {
		a.addFrames(a.scratch.frames)
	}
	clear(a.scratch.frames)
	return err
}

// addFrames folds validated single-report sub-frames through the
// type-specialized run walkers, mirroring addBatch's dispatch.
func (a *Accumulator) addFrames(frames [][]byte) {
	i := 0
	for i < len(frames) {
		switch frames[i][1] {
		case tagUnary:
			n := int(binary.LittleEndian.Uint32(frames[i][2:]))
			i = a.addDenseFrameRun(frames, i, (n+63)/64)
		case tagSparse:
			i = a.addSparseFrameRun(frames, i)
		case tagOLH:
			i = a.addOLHFrameRun(frames, i)
		default: // tagGRR — validation admits no other tag
			i = a.addGRRFrameRun(frames, i)
		}
	}
}

// denseFrameWords returns the little-endian word region and word count
// of a dense unary sub-frame, or ok=false for any other tag.
func denseFrameWords(f []byte) (words []byte, n int, ok bool) {
	if f[1] != tagUnary {
		return nil, 0, false
	}
	bitLen := int(binary.LittleEndian.Uint32(f[2:]))
	return f[6:], (bitLen + 63) / 64, true
}

// addDenseFrameRun is addDenseRun over sub-frames: the dense kernel
// reads each report's words straight out of the wire buffer.
func (a *Accumulator) addDenseFrameRun(frames [][]byte, start, words int) int {
	f := a.newDenseFold(words)
	var ws [8][]byte
	i := start
	for ; i+8 <= len(frames) && denseFrames8(&ws, frames[i:i+8], words); i += 8 {
		f.add8(&ws)
	}
	for ; i < len(frames); i++ {
		region, n, ok := denseFrameWords(frames[i])
		if !ok || n != words {
			break
		}
		f.add1(region)
	}
	f.flush()
	a.total += int64(i - start)
	return i
}

// denseFrames8 points ws at the next 8 sub-frames' word regions for one
// CSA group, or reports false when the run ends inside the group.
func denseFrames8(ws *[8][]byte, frames [][]byte, words int) bool {
	for k := range ws {
		region, n, ok := denseFrameWords(frames[k])
		if !ok || n != words {
			return false
		}
		ws[k] = region
	}
	return true
}

// addSparseFrameRun folds the run of sparse unary sub-frames starting at
// start: one bounds-checked increment per encoded set position.
func (a *Accumulator) addSparseFrameRun(frames [][]byte, start int) int {
	i := start
	for ; i < len(frames); i++ {
		f := frames[i]
		if f[1] != tagSparse {
			break
		}
		k := int(binary.LittleEndian.Uint32(f[6:]))
		for j := 0; j < k; j++ {
			bump(a.counts, uint64(binary.LittleEndian.Uint32(f[10+4*j:])))
		}
		a.total++
	}
	return i
}

// addOLHFrameRun folds the run of OLH sub-frames starting at start.
// Validation admitted only value ∈ [0, g), so no report needs the
// degenerate fallback of the report-slice walker.
func (a *Accumulator) addOLHFrameRun(frames [][]byte, start int) int {
	run := a.scratch.olh[:0]
	i := start
	for ; i < len(frames); i++ {
		f := frames[i]
		if f[1] != tagOLH {
			break
		}
		run = append(run, newPremixedOLH(binary.LittleEndian.Uint64(f[2:]),
			int(binary.LittleEndian.Uint32(f[10:])), int(binary.LittleEndian.Uint32(f[14:]))))
	}
	a.scratch.olh = run
	a.sweepOLH(run)
	return i
}

// addGRRFrameRun folds the run of GRR sub-frames starting at start.
func (a *Accumulator) addGRRFrameRun(frames [][]byte, start int) int {
	i := start
	for ; i < len(frames); i++ {
		f := frames[i]
		if f[1] != tagGRR {
			break
		}
		bump(a.counts, uint64(binary.LittleEndian.Uint32(f[2:])))
		a.total++
	}
	return i
}

// AddBatchFrame folds a wire-format report batch frame under a single
// shard lock — the concurrency-safe zero-copy ingest path. Bit-identical
// to UnmarshalReportBatch + AddBatch; on error nothing is folded.
func (sa *ShardedAccumulator) AddBatchFrame(frame []byte) error {
	sh := sa.shard()
	sh.mu.Lock()
	err := sh.acc.AddBatchFrame(frame)
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	sa.gen.Add(1)
	return nil
}
