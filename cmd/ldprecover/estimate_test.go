package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ldprecover/internal/attack"
	"ldprecover/internal/dataset"
	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
	"ldprecover/internal/stream"
)

// referenceJSON is encoding/json's body for est.
func referenceJSON(t testing.TB, est *stream.WindowEstimate) []byte {
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
	proto, err := ldp.NewOUE(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, hs := testServer(t, streamServerConfig{
		Stream:   stream.Config{Params: proto.Params()},
		QueueLen: 4, Ingesters: 1, MaxBody: 1 << 20,
	})
	for _, bad := range []*stream.WindowEstimate{
		{Seq: 1, Epochs: 1, Total: 10, Poisoned: []float64{0.1, math.NaN(), 0.2, 0.3}, Recovered: make([]float64, 4)},
		{Seq: 1, Epochs: 1, Total: 10, Poisoned: make([]float64, 4), Recovered: []float64{0, 0, math.Inf(-1), 1}},
	} {
		srv.sealFn = func() (*stream.WindowEstimate, error) { return bad, nil }
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
	proto, err := ldp.NewOUE(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, hs := testServer(t, streamServerConfig{
		Stream: stream.Config{
			Params: proto.Params(), Window: 4, History: 8,
			TargetK: 2, StableAfter: 2, MinHistory: 2,
		},
		QueueLen: 4, Ingesters: 1, MaxBody: 1 << 20,
	})
	mga, err := attack.NewMGA([]int{1, d - 2})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
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
	proto, err := ldp.NewOUE(d, 1)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := newStreamServer(streamServerConfig{
		Stream:   stream.Config{Params: proto.Params(), Window: 4, History: 16},
		QueueLen: 4, Ingesters: 1, MaxBody: 1 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.handler()
	r := rng.New(3)
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

// TestEncodeEstimateEdgeCases holds encodeEstimate to encoding/json on
// hand-built estimates the seal tests never produce: empty windows (nil
// vectors, and targets empty but not nil, both dropped by omitempty),
// values that take the 'e' form and its "e-7" cleanup, -0 and negative
// values. A NaN or ±Inf anywhere must still be refused by name.
func TestEncodeEstimateEdgeCases(t *testing.T) {
	for _, est := range []*stream.WindowEstimate{
		{},
		{Seq: 3, Epochs: 4, Targets: []int{}},
		{Seq: -1, Epochs: 1, Total: math.MaxInt64, Poisoned: []float64{}, Recovered: []float64{}, PartialKnowledge: true},
		{Seq: 7, Epochs: 2, Total: 1 << 40,
			Poisoned:  []float64{1e-7, -1e-7, 5e-324, 9.999999999999999e-7, 1e21, -1e21, 1.5e300, 1e-300, math.MaxFloat64},
			Recovered: []float64{0, math.Copysign(0, -1), -0.25, -1, -123456.789, 1e-6, -1e-6, math.Nextafter(1e21, 0)},
			Targets:   []int{0, 5, 4095, -2}, PartialKnowledge: true},
		{Seq: 1, Epochs: 1, Total: 1, Poisoned: []float64{math.Copysign(0, -1)}, Targets: []int{7}},
	} {
		got, err := encodeEstimate(est)
		if err != nil {
			t.Fatalf("%+v: %v", est, err)
		}
		want, err := json.Marshal(estimateResponse(*est))
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("body differs from encoding/json:\n got %s\nwant %s", got, want)
		}
	}
	for _, c := range []struct {
		est  stream.WindowEstimate
		name string
	}{
		{stream.WindowEstimate{Poisoned: []float64{math.NaN()}}, "poisoned[0] is NaN"},
		{stream.WindowEstimate{Poisoned: []float64{0, 1}, Recovered: []float64{0, math.Inf(1)}}, "recovered[1] is +Inf"},
		{stream.WindowEstimate{Recovered: []float64{1e-9, 2, math.Inf(-1)}}, "recovered[2] is -Inf"},
	} {
		if _, err := encodeEstimate(&c.est); err == nil || !strings.Contains(err.Error(), c.name) {
			t.Fatalf("non-finite value encoded or not named %q: %v", c.name, err)
		}
	}
}

// checkFloatArray fails unless appendFloatArray, through memo and after
// the bytes already in b, writes key and encoding/json's array for vs,
// or nothing for an empty vs (omitempty).
func checkFloatArray(t testing.TB, b []byte, vs []float64, memo *floatMemo) {
	t.Helper()
	arr, err := json.Marshal(vs)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(string(b)), `,"v":`...), arr...)
	if len(vs) == 0 {
		want = want[:len(b)]
	}
	if got := appendFloatArray(b, `,"v":`, vs, memo); !bytes.Equal(got, want) {
		t.Fatalf("%d values: appendFloatArray differs from encoding/json:\n got %s\nwant %s", len(vs), got, want)
	}
}

// textLengthPool returns one float64 for each JSON text length from 1 to
// 24 bytes: integers, negatives, 17-digit mantissas and 'e' forms.
func textLengthPool(t testing.TB) []float64 {
	t.Helper()
	var byLen [25]float64
	for _, base := range []float64{1, 0.1, 1.0 / 3, 2.0 / 3, 1e-7 / 3, 1e-300 / 3, 1e21, 1e300 / 3} {
		for e := -8; e <= 30; e++ {
			for _, f := range []float64{base * math.Pow(10, float64(e)), -base * math.Pow(10, float64(e))} {
				text, err := json.Marshal(f)
				if err != nil {
					continue
				}
				if n := len(text); n <= 24 && byLen[n] == 0 {
					byLen[n] = f
				}
			}
		}
	}
	for n := 1; n <= 24; n++ {
		if byLen[n] == 0 {
			t.Fatalf("no pool value has a %d-byte text", n)
		}
	}
	return byLen[1:]
}

// TestEncodeEstimateRepeatedValues holds the memoized float arrays to
// encoding/json where the memo matters: repeats at every text length,
// each beside its neighbouring float, with -0 and zeros between them; a
// repeat as the last value with the buffer's capacity ending at every
// byte of it; one table carried from a d=4096 vector to a d=8 one and to
// a different d=4096 one, so no stale entry can answer.
func TestEncodeEstimateRepeatedValues(t *testing.T) {
	pool := textLengthPool(t)
	negZero := math.Copysign(0, -1)
	var vs []float64
	for round := range 3 {
		for i := range pool {
			p := pool[(i*7+round*5)%len(pool)]
			vs = append(vs, p, 0, math.Nextafter(p, math.Inf(1))) // keys one bit apart
		}
		vs = append(vs, negZero, negZero)
	}
	memo := new(floatMemo)
	checkFloatArray(t, nil, vs, memo)
	est := &stream.WindowEstimate{Seq: 1, Epochs: 1, Total: 9, Poisoned: vs, Recovered: reversed(vs)}
	if got, want := mustEncode(t, est), referenceJSON(t, est); !bytes.Equal(got, want) {
		t.Fatalf("body differs from encoding/json:\n got %s\nwant %s", got, want)
	}

	// The last value is a repeat of the longest text; the buffer's
	// capacity ends at each byte from before its comma to the ']'.
	last := []float64{pool[23], 0.5, pool[23], pool[23]}
	arr, _ := json.Marshal(last)
	full := len(`,"v":`) + len(arr)
	for room := full - 27; room <= full; room++ {
		checkFloatArray(t, make([]byte, 3, 3+room), last, memo)
	}

	r := rand.New(rand.NewPCG(30, 4096))
	vec := func(d, distinct int) []float64 {
		vals := make([]float64, distinct)
		for i := range vals {
			vals[i] = float64(r.IntN(1<<20)-1<<19) / 3e6
		}
		out := make([]float64, d)
		for v := range out {
			out[v] = vals[r.IntN(distinct)]
		}
		return out
	}
	a := vec(4096, 1200)
	c := slices.Clone(a)
	r.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
	c = append(c[:2048], vec(2048, 300)...)
	checkFloatArray(t, nil, a, memo)
	if len(memo.texts) > 1200 {
		t.Fatalf("%d texts memoized for 1200 distinct values", len(memo.texts))
	}
	for _, vs := range [][]float64{a, vec(8, 3), c, a[:8], c} {
		checkFloatArray(t, nil, vs, memo)
		est := &stream.WindowEstimate{Seq: 2, Epochs: 4, Total: 1, Poisoned: vs, Recovered: reversed(vs)}
		if got, want := mustEncode(t, est), referenceJSON(t, est); !bytes.Equal(got, want) {
			t.Fatalf("d=%d through the pooled table: body differs from encoding/json", len(vs))
		}
	}
}

// reversed returns a reversed copy of vs.
func reversed(vs []float64) []float64 {
	out := slices.Clone(vs)
	slices.Reverse(out)
	return out
}

// mustEncode is encodeEstimate, failing t on an error.
func mustEncode(t testing.TB, est *stream.WindowEstimate) []byte {
	t.Helper()
	body, err := encodeEstimate(est)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// FuzzEncodeFloatArray holds appendFloatArray to encoding/json on
// vectors built byte by byte so that values repeat: a byte below 32
// picks from a pool of one value per text length plus ±0 and 'e' forms,
// one below 128 repeats an earlier distinct value, any other makes a new
// distinct value. The vector and its reverse share one table.
func FuzzEncodeFloatArray(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 2, 30, 31, 30})
	f.Add([]byte{200, 201, 33, 34, 32, 200, 0, 31})
	pool := append(textLengthPool(f), 0, math.Copysign(0, -1), 1e-7, 5e-324, -1e21, 1e-6, math.MaxFloat64, 0.1)
	f.Fuzz(func(t *testing.T, raw []byte) {
		var vs, made []float64
		for _, b := range raw {
			switch {
			case b < 32:
				vs = append(vs, pool[int(b)%len(pool)])
			case b < 128 && len(made) > 0:
				vs = append(vs, made[len(made)-1-int(b-32)%len(made)])
			default:
				made = append(made, 1/4096.0+float64(len(made))*1.2345678901e-9)
				vs = append(vs, made[len(made)-1])
			}
		}
		memo := new(floatMemo)
		checkFloatArray(t, nil, vs, memo)
		checkFloatArray(t, []byte("{"), reversed(vs), memo)
	})
}

// sealBenchServer is a server at the partial-seal benchmark workload's
// shape: OUE d=4096, ε=0.5, window 4, history 16 and serve's defaults
// otherwise; each epoch folds 20 partials of 4096 Zipf(1.0) users, 205
// of them MGA from epoch 10. It is sealed until LDPRecover* engages, and
// addEpoch folds one more attacked epoch.
func sealBenchServer(b testing.TB) (srv *streamServer, h http.Handler, addEpoch func(i int)) {
	b.Helper()
	const (
		d        = 4096
		partials = 20
		users    = 4096
		mal      = 205
	)
	proto, err := ldp.NewOUE(d, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	srv, err = newStreamServer(streamServerConfig{
		Stream:   stream.Config{Params: proto.Params(), Window: 4, History: 16},
		QueueLen: 4, Ingesters: 1, MaxBody: 1 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(26)
	targets, err := attack.RandomTargets(r, d, 10)
	if err != nil {
		b.Fatal(err)
	}
	mga, err := attack.NewMGA(targets)
	if err != nil {
		b.Fatal(err)
	}
	genuine, err := dataset.Zipf("bench", d, partials*(users-mal), 1.0)
	if err != nil {
		b.Fatal(err)
	}
	clean, err := dataset.Zipf("bench", d, partials*users, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	// epochs[attacked][i] is a pre-drawn epoch's support counts.
	var epochs [2][8][]int64
	for i := range 8 {
		if epochs[0][i], err = proto.SimulateGenuineCounts(r, clean.Counts); err != nil {
			b.Fatal(err)
		}
		if epochs[1][i], err = proto.SimulateGenuineCounts(r, genuine.Counts); err != nil {
			b.Fatal(err)
		}
		mc, err := mga.CraftCounts(r, proto, partials*mal)
		if err != nil {
			b.Fatal(err)
		}
		for v, c := range mc {
			epochs[1][i][v] += c
		}
	}
	add := func(attacked, i int) {
		if err := srv.mgr.AddCounts(epochs[attacked][i%8], partials*users); err != nil {
			b.Fatal(err)
		}
	}
	h = srv.handler()
	for e := range 24 {
		add(min(e/10, 1), e)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/seal", nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("seal: %d %s", rec.Code, rec.Body)
		}
	}
	if !srv.mgr.Latest().PartialKnowledge {
		b.Fatal("LDPRecover* never engaged")
	}
	return srv, h, func(i int) { add(1, i) }
}

// TestEncodeEstimateCapacity: at the partial-seal workload's shape
// (sealBenchServer), where about half the estimate's floats are zeros,
// the cached serving body holds at most a quarter more capacity than
// its length. A flat 24 bytes a float reserves about 1.9 times it.
func TestEncodeEstimateCapacity(t *testing.T) {
	srv, _, _ := sealBenchServer(t)
	body, err := encodeEstimate(srv.mgr.Latest())
	if err != nil {
		t.Fatal(err)
	}
	if cap(body) > len(body)+len(body)/4 {
		t.Fatalf("%d-byte body holds %d bytes of capacity", len(body), cap(body))
	}
}

// BenchmarkServeSeal times POST /v1/seal through the handler at the
// partial-seal workload's shape (sealBenchServer): the seal, the
// LDPRecover* recovery and the estimate's encode. Folding the epoch's
// counts is not timed.
func BenchmarkServeSeal(b *testing.B) {
	b.Run("d=4096", func(b *testing.B) {
		_, h, addEpoch := sealBenchServer(b)
		req := httptest.NewRequest(http.MethodPost, "/v1/seal", nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			addEpoch(i)
			rec := httptest.NewRecorder()
			b.StartTimer()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("%d %s", rec.Code, rec.Body)
			}
		}
	})
}

// BenchmarkEncodeEstimate times encodeEstimate on a sealed estimate at
// the partial-seal workload's shape, LDPRecover* engaged ("d=4096"),
// and on one whose 2×4096 values are all distinct ("distinct/d=4096":
// 1/d plus uniform noise, texts as long as a real estimate's), the
// formatter's worst case, where no value repeats.
func BenchmarkEncodeEstimate(b *testing.B) {
	run := func(b *testing.B, est *stream.WindowEstimate) {
		body, err := encodeEstimate(est)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(body)))
		b.ResetTimer()
		for range b.N {
			if _, err := encodeEstimate(est); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("d=4096", func(b *testing.B) {
		srv, _, _ := sealBenchServer(b)
		run(b, srv.mgr.Latest())
	})
	b.Run("distinct/d=4096", func(b *testing.B) {
		const d = 4096
		r := rand.New(rand.NewPCG(4096, 30))
		est := &stream.WindowEstimate{Seq: 30, Epochs: 4, Total: 327680,
			Poisoned: make([]float64, d), Recovered: make([]float64, d)}
		for v := range d {
			est.Poisoned[v] = 1/float64(d) + 0.01*(r.Float64()-0.5)
			est.Recovered[v] = 1/float64(d) + 1e-4*r.Float64()
		}
		run(b, est)
	})
}
