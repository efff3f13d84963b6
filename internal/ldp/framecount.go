package ldp

import (
	"encoding/binary"
	"fmt"
)

// Zero-copy batch ingest: AddReportFrame folds a marshaled "LB" report
// batch straight from the wire bytes — no []Report materialization, no
// per-report boxing, no bitset allocation. It is the one report lane of
// the server: live ingest and WAL replay both fold frames through it.
//
// ValidateReportBatchFrame is the one definition of a valid report
// frame, and the only constructor of a non-zero ReportFrame view:
// UnmarshalReport and UnmarshalReportBatch run the validators first and
// then only extract fields, and the serve queue, the WAL append and the
// fold take the view, so a frame is judged once where it enters and no
// later stage can disagree about what was admitted. The fold's run
// walkers step through the view's sub-frames by their length prefixes
// (one pass, nothing sliced out first), pull words, indices, seeds and
// values out of them in place and hand them to the kernels AddBatch
// uses (addbatch.go). The aggregate is bit-identical to
// UnmarshalReportBatch + AddBatch, which the equivalence tests pin.

// ValidateReportBatchFrame structurally validates a wire-format report
// batch frame without decoding it and returns a view of it. A view
// cannot fail a later decode or fold. Servers call this on the request
// path to settle the 400-vs-accepted decision (and learn the user
// volume) before the view is queued for durable ingest.
func ValidateReportBatchFrame(frame []byte) (ReportFrame, error) {
	count, err := validateBatchFrame(frame)
	if err != nil {
		return ReportFrame{}, err
	}
	return ReportFrame{frame: frame, reports: count}, nil
}

// ReportFrame is a validated view of an "LB" report batch frame. Only
// ValidateReportBatchFrame makes a non-zero one, so whatever takes a
// view folds or logs it without checking it again. It aliases the bytes
// it was validated from and is valid only while those bytes are. The
// zero view holds no frame and folds nothing.
type ReportFrame struct {
	frame   []byte
	reports int
}

// Bytes returns the validated wire frame the view aliases — what a
// durable store appends to its log. It is nil for the zero view.
func (f ReportFrame) Bytes() []byte { return f.frame }

// Reports returns the number of reports in the frame.
func (f ReportFrame) Reports() int { return f.reports }

// sub returns the single-report sub-frame whose length prefix starts at
// off, and the offset of the next prefix. Sub-frames run back to back
// from offset 7 to the end of a validated frame.
func (f ReportFrame) sub(off int) (sub []byte, next int) {
	next = off + 4 + int(binary.LittleEndian.Uint32(f.frame[off:]))
	return f.frame[off+4 : next], next
}

// validateBatchFrame checks a batch frame and every sub-frame in it,
// returning the report count.
func validateBatchFrame(frame []byte) (int, error) {
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

// AddBatchFrame validates a wire-format report batch frame and folds it
// into the aggregate without decoding it into reports. Bit-identical to
// UnmarshalReportBatch followed by AddBatch; on error nothing is folded.
func (a *Accumulator) AddBatchFrame(frame []byte) error {
	f, err := ValidateReportBatchFrame(frame)
	if err != nil {
		return err
	}
	a.addReportFrame(f)
	return nil
}

// addReportFrame folds a validated report batch frame straight from its
// wire bytes through the type-specialized run walkers, mirroring
// addBatch's dispatch. Each walker takes the offset of its run's first
// sub-frame and returns the offset just past the run.
func (a *Accumulator) addReportFrame(f ReportFrame) {
	for off := 7; off < len(f.frame); {
		sub, _ := f.sub(off)
		switch sub[1] {
		case tagUnary:
			n := int(binary.LittleEndian.Uint32(sub[2:]))
			off = a.addDenseFrameRun(f, off, (n+63)/64)
		case tagSparse:
			off = a.addSparseFrameRun(f, off)
		case tagOLH:
			off = a.addOLHFrameRun(f, off)
		default: // tagGRR — validation admits no other tag
			off = a.addGRRFrameRun(f, off)
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
func (a *Accumulator) addDenseFrameRun(f ReportFrame, off, words int) int {
	fold := a.newDenseFold(words)
	var ws [8][]byte
	n := 0
	for next, ok := denseFrames8(&ws, f, off, words); ok; next, ok = denseFrames8(&ws, f, off, words) {
		fold.add8(&ws)
		off, n = next, n+8
	}
	for off < len(f.frame) {
		sub, next := f.sub(off)
		region, w, ok := denseFrameWords(sub)
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

// denseFrames8 points ws at the word regions of the 8 sub-frames from
// off for one CSA group and returns the offset past them, or reports
// false when the run ends inside the group.
func denseFrames8(ws *[8][]byte, f ReportFrame, off, words int) (int, bool) {
	for k := range ws {
		if off >= len(f.frame) {
			return 0, false
		}
		sub, next := f.sub(off)
		region, n, ok := denseFrameWords(sub)
		if !ok || n != words {
			return 0, false
		}
		ws[k], off = region, next
	}
	return off, true
}

// addSparseFrameRun folds the run of sparse unary sub-frames from off:
// one bounds-checked increment per encoded set position.
func (a *Accumulator) addSparseFrameRun(f ReportFrame, off int) int {
	for off < len(f.frame) {
		sub, next := f.sub(off)
		if sub[1] != tagSparse {
			break
		}
		k := int(binary.LittleEndian.Uint32(sub[6:]))
		for j := 0; j < k; j++ {
			bump(a.counts, uint64(binary.LittleEndian.Uint32(sub[10+4*j:])))
		}
		a.total++
		off = next
	}
	return off
}

// addOLHFrameRun folds the run of OLH sub-frames from off. Validation
// admitted only value ∈ [0, g), so no report needs the degenerate
// fallback of the report-slice walker.
func (a *Accumulator) addOLHFrameRun(f ReportFrame, off int) int {
	run := a.scratch.olh[:0]
	for off < len(f.frame) {
		sub, next := f.sub(off)
		if sub[1] != tagOLH {
			break
		}
		run = append(run, newPremixedOLH(binary.LittleEndian.Uint64(sub[2:]),
			int(binary.LittleEndian.Uint32(sub[10:])), int(binary.LittleEndian.Uint32(sub[14:]))))
		off = next
	}
	a.scratch.olh = run
	a.sweepOLH(run)
	return off
}

// addGRRFrameRun folds the run of GRR sub-frames from off.
func (a *Accumulator) addGRRFrameRun(f ReportFrame, off int) int {
	for off < len(f.frame) {
		sub, next := f.sub(off)
		if sub[1] != tagGRR {
			break
		}
		bump(a.counts, uint64(binary.LittleEndian.Uint32(sub[2:])))
		a.total++
		off = next
	}
	return off
}

// AddReportFrame folds a validated report batch frame under a single
// shard lock — the concurrency-safe zero-copy ingest path. Bit-identical
// to UnmarshalReportBatch + AddBatch.
func (sa *ShardedAccumulator) AddReportFrame(f ReportFrame) {
	sh := sa.shard()
	sh.mu.Lock()
	sh.acc.addReportFrame(f)
	sh.mu.Unlock()
	sa.gen.Add(1)
}
