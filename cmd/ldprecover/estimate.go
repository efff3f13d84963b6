package main

import (
	"fmt"
	"math"
	"net/http"
	"strconv"

	"ldprecover"
)

// encodedEstimate pairs a window estimate with its JSON body. The body is
// written to clients as is and never modified once published.
type encodedEstimate struct {
	est  *ldprecover.WindowEstimate
	body []byte
}

// estimateResponse is the JSON shape of a window estimate: the fields
// of ldprecover.WindowEstimate with their JSON names, so an estimate
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
func (s *streamServer) writeEstimate(w http.ResponseWriter, est *ldprecover.WindowEstimate) {
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
// byte. A NaN or ±Inf, which JSON cannot represent, is refused with an
// error naming the first by field and index.
func encodeEstimate(est *ldprecover.WindowEstimate) ([]byte, error) {
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
	b = appendFloatArray(b, `,"poisoned":`, est.Poisoned)
	b = appendFloatArray(b, `,"recovered":`, est.Recovered)
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
func appendFloatArray(b []byte, key string, vs []float64) []byte {
	if len(vs) == 0 {
		return b
	}
	b = append(b, key...)
	b = append(b, '[')
	for i, f := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONFloat(b, f)
	}
	return append(b, ']')
}
