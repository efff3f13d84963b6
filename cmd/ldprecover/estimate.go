package main

import (
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"strconv"
	"sync"

	"ldprecover/internal/stream"
)

// encodedEstimate pairs a window estimate with its JSON body. The body is
// written to clients as is and never modified once published.
type encodedEstimate struct {
	est  *stream.WindowEstimate
	body []byte
}

// estimateResponse is the JSON shape of a window estimate: the fields
// of stream.WindowEstimate with their JSON names, so an estimate
// converts to it directly (and stops compiling if the two drift apart).
// encodeEstimate writes this shape by hand; tests hold its bytes to
// encoding/json of this type.
type estimateResponse struct {
	Seq              int       `json:"seq"`
	Epochs           int       `json:"epochs"`
	Total            int64     `json:"total"`
	Poisoned         []float64 `json:"poisoned,omitempty"`
	Recovered        []float64 `json:"recovered,omitempty"`
	Targets          []int     `json:"targets,omitempty"`
	PartialKnowledge bool      `json:"partial_knowledge"`
}

// writeEstimate answers 200 with est's JSON body (encodeEstimate) in
// one write with its Content-Length. The serving estimate is encoded
// once: the seal's response (or the first read after a seal that had
// none) stores the body, and every later request for the same
// estimate — GET /v1/estimate, or ?window= covering the serving window,
// which EstimateWindow answers with the same pointer — writes those
// bytes. Any other estimate is encoded per request. A non-finite value,
// which JSON cannot carry, answers 500 before any header is written.
func (s *streamServer) writeEstimate(w http.ResponseWriter, est *stream.WindowEstimate) {
	prev := s.encoded.Load()
	var body []byte
	if prev != nil && prev.est == est {
		body = prev.body
	} else {
		var err error
		if body, err = encodeEstimate(est); err != nil {
			httpError(w, http.StatusInternalServerError, "encoding estimate: %v", err)
			return
		}
		if est == s.manager().Latest() {
			s.encoded.Store(&encodedEstimate{est: est, body: body})
		}
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// encodeEstimate returns est's JSON body with a trailing newline: the
// bytes json.NewEncoder writes for estimateResponse(*est), written
// directly into one buffer sized for the whole body (2 bytes for a
// zero with its comma, 24 for any other float: LDPRecover's simplex
// projection leaves many recovered values at 0). Floats go through
// appendJSONFloat, which matches encoding/json's float64 text byte for
// byte, once per distinct value of a vector (appendFloatArray). A NaN or
// ±Inf, which JSON cannot represent, is refused with an error naming
// the first by field and index.
func encodeEstimate(est *stream.WindowEstimate) ([]byte, error) {
	size := 96 + 8*len(est.Targets)
	for _, vec := range []struct {
		field string
		vs    []float64
	}{{"poisoned", est.Poisoned}, {"recovered", est.Recovered}} {
		for i, f := range vec.vs {
			switch {
			case f == 0:
				size += 2
			case math.IsNaN(f) || math.IsInf(f, 0):
				return nil, fmt.Errorf("%s[%d] is %v, which JSON cannot represent", vec.field, i, f)
			default:
				size += 24
			}
		}
	}
	b := make([]byte, 0, size)
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, int64(est.Seq), 10)
	b = append(b, `,"epochs":`...)
	b = strconv.AppendInt(b, int64(est.Epochs), 10)
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, est.Total, 10)
	memo := floatMemos.Get().(*floatMemo)
	b = appendFloatArray(b, `,"poisoned":`, est.Poisoned, memo)
	b = appendFloatArray(b, `,"recovered":`, est.Recovered, memo)
	floatMemos.Put(memo)
	if len(est.Targets) > 0 {
		b = append(b, `,"targets":[`...)
		for i, v := range est.Targets {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"partial_knowledge":`...)
	b = strconv.AppendBool(b, est.PartialKnowledge)
	return append(b, "}\n"...), nil
}

// appendFloatArray appends key and vs as a JSON array, or nothing for an
// empty vs, as omitempty does.
//
// Each distinct value is formatted once: a repeat copies the text
// written at the value's first occurrence, which is exact because
// appendJSONFloat is a function of the bits alone. Repeats are the norm
// in an estimate: Eq. 11 maps integer support counts affinely, and at
// d ≫ √n most items' counts fall in a band a few standard deviations
// wide, so at the partial-seal workload's shape a 4096-item poisoned
// vector holds about 1,200 distinct values.
func appendFloatArray(b []byte, key string, vs []float64, memo *floatMemo) []byte {
	if len(vs) == 0 {
		return b
	}
	b = append(b, key...)
	b = append(b, '[')
	memo.reset(len(vs))
	for i, f := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		if f == 0 && !math.Signbit(f) {
			b = append(b, '0')
			continue
		}
		fb := math.Float64bits(f)
		slot, text := memo.find(fb)
		if text != nil {
			b = append(b, b[text.off:text.end]...)
			continue
		}
		off := len(b)
		b = appendJSONFloat(b, f)
		memo.texts = append(memo.texts, memoText{key: fb, off: off, end: len(b)})
		*slot = uint32(len(memo.texts))
	}
	return append(b, ']')
}

// floatMemo maps a float64's bits to where appendFloatArray wrote its
// text: texts lists the vector's distinct values in order of first
// occurrence, and slots is an open-addressing index into it (Fibonacci
// hash, linear probing), 1-based so that 0 marks an empty slot. A slot
// is 4 bytes and there are at least two slots a value, so at d=4096 the
// memory a lookup can touch is 32 KiB of slots plus 24 bytes a distinct
// value: little enough to stay in cache between the ingest requests
// that precede a seal.
type floatMemo struct {
	slots []uint32
	texts []memoText
	shift uint // 64 - log2(len(slots))
}

type memoText struct {
	key      uint64
	off, end int // the text's bytes in the buffer
}

// floatMemos lends tables to concurrent encodes.
var floatMemos = sync.Pool{New: func() any { return new(floatMemo) }}

// reset empties the memo for a vector of n values, with at least 2n
// slots.
func (m *floatMemo) reset(n int) {
	size := 1 << bits.Len(uint(max(16, 2*n)-1))
	if cap(m.slots) < size {
		m.slots = make([]uint32, size)
	} else {
		m.slots = m.slots[:size]
		clear(m.slots)
	}
	m.shift = uint(64 - bits.TrailingZeros(uint(size)))
	m.texts = m.texts[:0]
}

// find returns key's slot and its text, or the empty slot where it
// belongs and nil.
func (m *floatMemo) find(key uint64) (*uint32, *memoText) {
	mask := len(m.slots) - 1
	for i := int(key * 0x9e3779b97f4a7c15 >> m.shift); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if *s == 0 {
			return s, nil
		}
		if t := &m.texts[*s-1]; t.key == key {
			return s, t
		}
	}
}
