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

// writeEstimate answers 200 with est's JSON body. The serving estimate
// is encoded once: the seal's response (or the first read after a seal
// that had none) stores the body, and every later request for the same
// estimate — GET /v1/estimate, or ?window= covering the serving window,
// which EstimateWindow answers with the same pointer — writes those
// bytes. Any other estimate is encoded per request into a buffer sized
// from the cached body. A non-finite value, which JSON cannot carry,
// answers 500 before any header is written.
func (s *streamServer) writeEstimate(w http.ResponseWriter, est *ldprecover.WindowEstimate) {
	prev := s.encoded.Load()
	var body []byte
	if prev != nil && prev.est == est {
		body = prev.body
	} else {
		size := 0
		if prev != nil {
			size = len(prev.body) + len(prev.body)/16
		}
		var err error
		if body, err = appendEstimateJSON(make([]byte, 0, size), est); err != nil {
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

// appendEstimateJSON appends the JSON body of a window estimate: the
// fields seq, epochs, total, poisoned, recovered, targets and
// partial_knowledge in that order, the three slices omitted when empty,
// and a trailing newline — byte for byte what encoding/json's Encoder
// writes for the same object. It fails on NaN or ±Inf.
func appendEstimateJSON(b []byte, est *ldprecover.WindowEstimate) ([]byte, error) {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, int64(est.Seq), 10)
	b = append(b, `,"epochs":`...)
	b = strconv.AppendInt(b, int64(est.Epochs), 10)
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, est.Total, 10)
	var err error
	if len(est.Poisoned) > 0 {
		if b, err = appendFloats(append(b, `,"poisoned":`...), "poisoned", est.Poisoned); err != nil {
			return nil, err
		}
	}
	if len(est.Recovered) > 0 {
		if b, err = appendFloats(append(b, `,"recovered":`...), "recovered", est.Recovered); err != nil {
			return nil, err
		}
	}
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

// appendFloats appends vs as a JSON array of numbers.
func appendFloats(b []byte, field string, vs []float64) ([]byte, error) {
	b = append(b, '[')
	for i, f := range vs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("%s[%d] is %v, which JSON cannot represent", field, i, f)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONFloat(b, f)
	}
	return append(b, ']'), nil
}

// appendJSONFloat appends a finite float64 the way encoding/json does:
// the shortest round-tripping decimal, in exponent form below 1e-6 and
// from 1e21 in magnitude, with a single-digit negative exponent's
// leading zero trimmed (1e-07 → 1e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
