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
// (one pass, nothing sliced out first), pull words, seeds and values
// out of them in place and hand them to the kernels AddBatch uses
// (addbatch.go). A run of dense unary sub-frames of one length is
// one fixed-size record repeated, so the validator checks a repeated
// head once and the fold reads the run's words by stride, with no
// per-report walk. The aggregate is bit-identical to
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

// denseHeaderBytes is the fixed head of a dense unary sub-frame: u32
// length prefix, version, tag and u32 bit count. Together with the tail
// bits of its last word it decides whether the sub-frame is valid.
const denseHeaderBytes = 10

// denseHeader is the head of a dense unary sub-frame that passed
// validation, with the stride and tail-bit shift it implies. A later
// sub-frame with the same head bytes is valid exactly when its stride
// fits in what remains and its last word has no bits past the bit count.
type denseHeader struct {
	lo     uint64 // head bytes 0..7
	hi     uint16 // head bytes 8..9
	stride int    // 10 + 8·words
	tail   uint   // bit count mod 64: the valid bits of the last word
}

// newDenseHeader is the head of a valid dense sub-frame sub, whose
// length prefix reads n.
func newDenseHeader(n uint32, sub []byte) denseHeader {
	return denseHeader{
		lo:     uint64(n) | uint64(binary.LittleEndian.Uint32(sub))<<32,
		hi:     binary.LittleEndian.Uint16(sub[4:]),
		stride: 4 + int(n),
		tail:   uint(binary.LittleEndian.Uint32(sub[2:]) % 64),
	}
}

// repeats counts the sub-frames from the start of b, at most max, that
// in turn repeat h's head, fit in what remains and carry no bits past
// their bit count — which, for a head that already passed, is all
// validateReportFrame would check.
func (h denseHeader) repeats(b []byte, max int) int {
	n := 0
	for n < max && len(b) >= h.stride &&
		binary.LittleEndian.Uint64(b) == h.lo && binary.LittleEndian.Uint16(b[8:]) == h.hi &&
		(h.tail == 0 || binary.LittleEndian.Uint64(b[h.stride-8:])>>h.tail == 0) {
		b = b[h.stride:]
		n++
	}
	return n
}

// validateBatchFrame checks a batch frame and every sub-frame in it,
// returning the report count. The run of sub-frames that repeat the
// head of a dense sub-frame that just passed is checked by
// denseHeader.repeats alone; every other sub-frame, including the first
// one repeats refuses, goes through validateReportFrame, so the errors
// are the generic check's.
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
		sub := rest[:n]
		rest = rest[n:]
		if err := validateReportFrame(sub); err != nil {
			return 0, fmt.Errorf("batch report %d: %w", i, err)
		}
		if sub[1] != tagUnary {
			continue
		}
		// The run of sub-frames repeating this dense head needs only
		// repeats' checks; the first one after it goes the generic way.
		h := newDenseHeader(n, sub)
		k := h.repeats(rest, int(count-i-1))
		rest = rest[k*h.stride:]
		i += uint32(k)
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
	case tagSparse:
		return fmt.Errorf("%w: the sparse unary encoding (tag 4) is retired; "+
			"unary reports go as dense bitsets (tag 2)", ErrCodec)
	case tagOLH:
		if len(payload) != 16 {
			return fmt.Errorf("%w: OLH payload %d bytes, want 16", ErrCodec, len(payload))
		}
		value := int(binary.LittleEndian.Uint32(payload[8:]))
		g := int(binary.LittleEndian.Uint32(payload[12:]))
		if g < 2 || value < 0 || value >= g {
			return fmt.Errorf("%w: invalid OLH fields g=%d value=%d", ErrCodec, g, value)
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
		switch f.frame[off+5] { // the sub-frame's tag
		case tagUnary:
			off = a.addDenseFrameRun(f, off)
		case tagOLH:
			off = a.addOLHFrameRun(f, off)
		default: // tagGRR — validation admits no other tag
			off = a.addGRRFrameRun(f, off)
		}
	}
}

// addDenseFrameRun folds the run of dense unary sub-frames from off that
// share its length prefix, so sit a fixed stride apart, through the
// strided kernel.
func (a *Accumulator) addDenseFrameRun(f ReportFrame, off int) int {
	prefix := binary.LittleEndian.Uint32(f.frame[off:])
	stride := 4 + int(prefix)
	end := off + stride
	for end < len(f.frame) && f.frame[end+5] == tagUnary &&
		binary.LittleEndian.Uint32(f.frame[end:]) == prefix {
		end += stride
	}
	a.addDenseStrided(f.frame[off:end], stride, (end-off)/stride)
	return end
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
