package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ldprecover"
)

// referenceJSON is encoding/json's body for est.
func referenceJSON(t testing.TB, est *ldprecover.WindowEstimate) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(estimateResponse(*est)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeEstimateRejectsNonFinite serves a hand-built estimate holding
// NaN through the seal endpoint: the answer must be a 500 naming the
// value, never a 200 with a truncated or empty body.
func TestServeEstimateRejectsNonFinite(t *testing.T) {
	proto, err := ldprecover.NewOUE(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, hs := testServer(t, streamServerConfig{
		Stream:   ldprecover.StreamConfig{Params: proto.Params()},
		QueueLen: 4, Ingesters: 1, MaxBody: 1 << 20,
	})
	for _, bad := range []*ldprecover.WindowEstimate{
		{Seq: 1, Epochs: 1, Total: 10, Poisoned: []float64{0.1, math.NaN(), 0.2, 0.3}, Recovered: make([]float64, 4)},
		{Seq: 1, Epochs: 1, Total: 10, Poisoned: make([]float64, 4), Recovered: []float64{0, 0, math.Inf(-1), 1}},
	} {
		srv.sealFn = func() (*ldprecover.WindowEstimate, error) { return bad, nil }
		resp, err := http.Post(hs.URL+"/v1/seal", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("non-finite estimate served with status %d: %q", resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "encoding estimate") || !strings.Contains(string(body), "JSON cannot represent") {
			t.Fatalf("500 body does not say what failed: %q", body)
		}
		if srv.encoded.Load() != nil {
			t.Fatal("a failed encode was cached")
		}
	}
}

// estimateTestServer is a window-4 server over an OUE domain whose MGA
// stream engages LDPRecover* within a few seals, so bodies carry targets.
func estimateTestServer(t *testing.T, d int) (*streamServer, *httptest.Server, func(attacked bool)) {
	t.Helper()
	proto, err := ldprecover.NewOUE(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, hs := testServer(t, streamServerConfig{
		Stream: ldprecover.StreamConfig{
			Params: proto.Params(), Window: 4, History: 8,
			TargetK: 2, StableAfter: 2, MinHistory: 2,
		},
		QueueLen: 4, Ingesters: 1, MaxBody: 1 << 20,
	})
	mga, err := ldprecover.NewMGA([]int{1, d - 2})
	if err != nil {
		t.Fatal(err)
	}
	r := ldprecover.NewRand(5)
	trueCounts := make([]int64, d)
	var n int64
	for v := range trueCounts {
		trueCounts[v] = 300
		n += 300
	}
	feed := func(attacked bool) {
		counts, err := proto.SimulateGenuineCounts(r, trueCounts)
		if err != nil {
			t.Error(err)
			return
		}
		if err := srv.mgr.AddCounts(counts, n); err != nil {
			t.Error(err)
		}
		if attacked {
			mal, err := mga.CraftCounts(r, proto, n/8)
			if err != nil {
				t.Error(err)
				return
			}
			if err := srv.mgr.AddCounts(mal, n/8); err != nil {
				t.Error(err)
			}
		}
	}
	return srv, hs, feed
}

// fetch issues one request and returns the body, failing on any status
// but 200 or on a Content-Length that does not match the body.
func fetch(method, url string) ([]byte, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, body)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		return nil, fmt.Errorf("%s %s: Content-Length %q for a %d-byte body", method, url, cl, len(body))
	}
	return body, nil
}

// TestServeEstimateBodiesMatchEncodingJSON checks every estimate route
// after each seal: the seal's own body, GET /v1/estimate and the serving
// window ?window=4 (all three the seal's cached bytes) and ?window=1
// (encoded on demand) are byte-identical to encoding/json of the
// in-process estimate and carry a matching Content-Length.
func TestServeEstimateBodiesMatchEncodingJSON(t *testing.T) {
	srv, hs, feed := estimateTestServer(t, 64)
	engaged := false
	for e := range 10 {
		feed(e >= 3)
		sealed, err := fetch(http.MethodPost, hs.URL+"/v1/seal")
		if err != nil {
			t.Fatal(err)
		}
		latest := srv.mgr.Latest()
		engaged = engaged || latest.PartialKnowledge
		want := referenceJSON(t, latest)
		if !bytes.Equal(sealed, want) {
			t.Fatalf("epoch %d: seal body differs from encoding/json:\n got %s\nwant %s", e, sealed, want)
		}
		if c := srv.encoded.Load(); c == nil || c.est != latest {
			t.Fatalf("epoch %d: the seal did not cache its encoded estimate", e)
		}
		for _, q := range []string{"", "?window=4"} {
			got, err := fetch(http.MethodGet, hs.URL+"/v1/estimate"+q)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("epoch %d: /v1/estimate%s differs from the seal's estimate:\n got %s\nwant %s", e, q, got, want)
			}
		}
		adhoc, err := srv.mgr.EstimateWindow(1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fetch(http.MethodGet, hs.URL+"/v1/estimate?window=1")
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceJSON(t, adhoc); !bytes.Equal(got, want) {
			t.Fatalf("epoch %d: ?window=1 differs from encoding/json:\n got %s\nwant %s", e, got, want)
		}
		if c := srv.encoded.Load(); c == nil || c.est != latest {
			t.Fatalf("epoch %d: an ad-hoc window displaced the serving estimate's cache entry", e)
		}
	}
	if !engaged {
		t.Fatal("LDPRecover* never engaged; bodies never carried targets")
	}
}

// TestServeEstimateCacheConcurrentReaders races readers of every
// estimate route against advancing seals (run it under -race). Every
// body read for one seq must equal the seal's body for that seq, and no
// published cache entry's bytes may change afterwards.
func TestServeEstimateCacheConcurrentReaders(t *testing.T) {
	srv, hs, feed := estimateTestServer(t, 64)
	feed(false)
	if _, err := fetch(http.MethodPost, hs.URL+"/v1/seal"); err != nil {
		t.Fatal(err)
	}

	type read struct {
		route string
		seq   int
	}
	var (
		mu      sync.Mutex
		bodies  = map[read][]byte{} // first body read per route and seal
		entries = map[*encodedEstimate][]byte{}
	)
	record := func(route string, body []byte) error {
		var head struct{ Seq int }
		if err := json.Unmarshal(body, &head); err != nil {
			return err
		}
		key := read{route, head.Seq}
		mu.Lock()
		defer mu.Unlock()
		if first, ok := bodies[key]; !ok {
			bodies[key] = body
		} else if !bytes.Equal(first, body) {
			return fmt.Errorf("%s at seq %d: two different bodies for one seal", route, head.Seq)
		}
		if c := srv.encoded.Load(); c != nil {
			if _, ok := entries[c]; !ok {
				entries[c] = bytes.Clone(c.body)
			}
		}
		return nil
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, route := range []string{"", "?window=4", "?window=1"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				body, err := fetch(http.MethodGet, hs.URL+"/v1/estimate"+route)
				if err == nil {
					err = record(route, body)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	sealBodies := map[int][]byte{}
	for e := 1; e < 12; e++ {
		feed(e >= 3)
		body, err := fetch(http.MethodPost, hs.URL+"/v1/seal")
		if err != nil {
			t.Error(err)
			break
		}
		sealBodies[srv.mgr.Latest().Seq] = body
		if err := record("", body); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()

	for key, body := range bodies {
		if want, ok := sealBodies[key.seq]; ok && key.route != "?window=1" && !bytes.Equal(body, want) {
			t.Errorf("/v1/estimate%s at seq %d differs from the seal's body", key.route, key.seq)
		}
	}
	for c, copied := range entries {
		if !bytes.Equal(c.body, copied) {
			t.Errorf("cache entry for seq %d changed after it was published", c.est.Seq)
		}
	}
}

// BenchmarkServeEstimate measures GET /v1/estimate against the handler
// at d=4096 with a full window of 4 sealed epochs: "serving" asks for
// the serving window (the seal's cached body), "adhoc" for the newest
// epoch alone (merged, recovered and encoded per request).
func BenchmarkServeEstimate(b *testing.B) {
	const d = 4096
	proto, err := ldprecover.NewOUE(d, 1)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := newStreamServer(streamServerConfig{
		Stream:   ldprecover.StreamConfig{Params: proto.Params(), Window: 4, History: 16},
		QueueLen: 4, Ingesters: 1, MaxBody: 1 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.handler()
	r := ldprecover.NewRand(3)
	trueCounts := make([]int64, d)
	for v := range trueCounts {
		trueCounts[v] = 250
	}
	for range 4 {
		counts, err := proto.SimulateGenuineCounts(r, trueCounts)
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.mgr.AddCounts(counts, 250*d); err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/seal", nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("seal: %d %s", rec.Code, rec.Body)
		}
	}
	for _, bc := range []struct{ name, query string }{
		{"serving", "?window=4"},
		{"adhoc", "?window=1"},
	} {
		b.Run(bc.name+"/d=4096", func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, "/v1/estimate"+bc.query, nil)
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("%d %s", rec.Code, rec.Body)
				}
			}
		})
	}
}
