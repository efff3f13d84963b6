package main

import (
	"encoding/json"
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
type estimateResponse struct {
	Seq              int       `json:"seq"`
	Epochs           int       `json:"epochs"`
	Total            int64     `json:"total"`
	Poisoned         []float64 `json:"poisoned,omitempty"`
	Recovered        []float64 `json:"recovered,omitempty"`
	Targets          []int     `json:"targets,omitempty"`
	PartialKnowledge bool      `json:"partial_knowledge"`
}

// writeEstimate answers 200 with est's JSON body. The serving estimate
// is encoded once: the seal's response (or the first read after a seal
// that had none) stores the body, and every later request for the same
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

// encodeEstimate returns est's JSON body with a trailing newline, the
// bytes json.Encoder writes. It names the first NaN or ±Inf, which JSON
// cannot represent, instead of encoding/json's bare "unsupported value".
func encodeEstimate(est *ldprecover.WindowEstimate) ([]byte, error) {
	for _, vec := range []struct {
		field string
		vs    []float64
	}{{"poisoned", est.Poisoned}, {"recovered", est.Recovered}} {
		for i, f := range vec.vs {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("%s[%d] is %v, which JSON cannot represent", vec.field, i, f)
			}
		}
	}
	body, err := json.Marshal(estimateResponse(*est))
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}
