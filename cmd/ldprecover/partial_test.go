package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
	"ldprecover/internal/stream"
)

// postPartial pre-aggregates reps through a Collector and posts the
// flushed partial-tally frame.
func postPartial(t *testing.T, url string, d, hint int, reps []ldp.Report) *http.Response {
	t.Helper()
	col, err := ldp.NewCollector("edge-test", d)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.AddBatch(reps); err != nil {
		t.Fatal(err)
	}
	frame, err := col.Flush(hint)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/partial", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServePartialEndpoint: the partial-tally lane end to end against an
// in-memory server — a pre-aggregated epoch serves the same estimate as
// the same reports through /v1/reports, a stale hint answers 409
// (mirroring the sealed-boundary taxonomy of /v1/tally), and the stats
// counters see both.
func TestServePartialEndpoint(t *testing.T) {
	const d, eps = 24, 0.8
	proto, err := ldp.NewOUE(d, eps)
	if err != nil {
		t.Fatal(err)
	}
	cfg := streamServerConfig{
		Stream:    stream.Config{Params: proto.Params(), TargetK: -1},
		QueueLen:  16,
		Ingesters: 1,
		MaxBody:   1 << 20,
	}
	refSrv, refHS := testServer(t, cfg)
	partSrv, partHS := testServer(t, cfg)

	r := rng.New(31)
	trueCounts := make([]int64, d)
	for v := range trueCounts {
		trueCounts[v] = int64(40 + 3*v)
	}
	reps, err := ldp.PerturbAll(proto, r, trueCounts)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: report-level ingest.
	resp := postBatch(t, refHS.URL, reps)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("report ingest status %d", resp.StatusCode)
	}
	resp.Body.Close()
	waitForIngest(t, refSrv, int64(len(reps)))
	want := sealOverHTTP(t, refHS.URL)

	// Partial lane: the same users, one frame.
	resp = postPartial(t, partHS.URL, d, 0, reps)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("partial ingest status %d", resp.StatusCode)
	}
	pr := decodeJSON[partialResponse](t, resp)
	if pr.Users != int64(len(reps)) || pr.EpochHint != 0 {
		t.Fatalf("partial ack %+v", pr)
	}
	got := sealOverHTTP(t, partHS.URL)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("partial-lane estimate diverged from report-level:\n got %+v\nwant %+v", got, want)
	}

	// Stale: the watermark is now 1, a hint-0 partial must bounce with
	// 409 and fold nothing.
	resp = postPartial(t, partHS.URL, d, 0, reps[:64])
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale partial status %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
	if live := partSrv.mgr.Stats().LiveTotal; live != 0 {
		t.Fatalf("stale partial folded %d live users", live)
	}
	// A current (even future) hint clamps into the open epoch.
	resp = postPartial(t, partHS.URL, d, 7, reps[:64])
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ahead-hint partial status %d", resp.StatusCode)
	}
	resp.Body.Close()

	st := getJSON[statsResponse](t, partHS.URL+"/v1/stats")
	if st.PartialsAccepted != 2 || st.PartialsStale != 1 {
		t.Fatalf("partial counters %+v", st)
	}
	if st.LiveTotal != 64 {
		t.Fatalf("live total %d want 64", st.LiveTotal)
	}
}

// TestServePartialBadRequests: the partial lane's error taxonomy.
func TestServePartialBadRequests(t *testing.T) {
	proto, err := ldp.NewGRR(16, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	_, hs := testServer(t, streamServerConfig{
		Stream:    stream.Config{Params: proto.Params()},
		QueueLen:  4,
		Ingesters: 1,
		MaxBody:   1 << 20,
	})

	// Garbage frame.
	resp, err := http.Post(hs.URL+"/v1/partial", "application/octet-stream", bytes.NewReader([]byte("not a frame")))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage partial: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// A valid frame over the wrong domain.
	col, err := ldp.NewCollector("edge", 8)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := col.Flush(0)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(hs.URL+"/v1/partial", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("domain-mismatched partial: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Wrong method.
	resp, err = http.Get(hs.URL + "/v1/partial")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET partial: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestServePartialPoolsBodies: a server that only sees /v1/partial
// traffic reads every body into the pooled buffer and returns it, so
// later requests reuse buffers earlier ones released. Several clients
// post distinct frames at once, and the sealed estimate must equal a
// server fed the same frames one at a time.
func TestServePartialPoolsBodies(t *testing.T) {
	const d, clients, perClient = 64, 4, 8
	proto, err := ldp.NewOUE(d, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := streamServerConfig{
		Stream:    stream.Config{Params: proto.Params(), TargetK: -1},
		QueueLen:  4,
		Ingesters: 1,
		MaxBody:   1 << 20,
	}
	_, hs := testServer(t, cfg)
	_, refHS := testServer(t, cfg)

	r := rng.New(5)
	trueCounts := make([]int64, d)
	frames := make([][]byte, clients)
	for c := range frames {
		for v := range trueCounts {
			trueCounts[v] = int64(1 + (v+c)%3)
		}
		reps, err := ldp.PerturbAll(proto, r, trueCounts)
		if err != nil {
			t.Fatal(err)
		}
		col, err := ldp.NewCollector("edge-test", d)
		if err != nil {
			t.Fatal(err)
		}
		if err := col.AddBatch(reps); err != nil {
			t.Fatal(err)
		}
		if frames[c], err = col.Flush(0); err != nil {
			t.Fatal(err)
		}
	}
	post := func(url string, frame []byte) error {
		resp, err := http.Post(url+"/v1/partial", "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}

	var wg sync.WaitGroup
	for c := range frames {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perClient {
				if err := post(hs.URL, frames[c]); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for c := range frames {
		for range perClient {
			if err := post(refHS.URL, frames[c]); err != nil {
				t.Fatal(err)
			}
		}
	}

	st := getJSON[statsResponse](t, hs.URL+"/v1/stats")
	if st.PartialsAccepted != clients*perClient || st.BatchesAccepted != 0 {
		t.Fatalf("counters %+v", st)
	}
	if st.BufPoolHits+st.BufPoolMisses != clients*perClient {
		t.Fatalf("%d pool checkouts for %d partial bodies", st.BufPoolHits+st.BufPoolMisses, clients*perClient)
	}
	if st.BufPoolHits == 0 {
		t.Fatalf("partial-only traffic never hit the body buffer pool: %d misses", st.BufPoolMisses)
	}
	if got, want := sealOverHTTP(t, hs.URL), sealOverHTTP(t, refHS.URL); !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent partials diverged from sequential:\n got %+v\nwant %+v", got, want)
	}
}

// TestServeMixedLaneCrashRestartE2E is the tally-first acceptance test:
// a durable server ingesting over both lanes — report batches on
// /v1/reports (the zero-copy path) and edge-aggregated partials on
// /v1/partial — is crashed mid-epoch with both record kinds in the WAL
// tail, restarted, and must serve window estimates bit-identical to an
// uninterrupted in-memory server fed every report through /v1/reports.
func TestServeMixedLaneCrashRestartE2E(t *testing.T) {
	const d, eps = 32, 1.0
	const quiet, attacked = 6, 6
	targets := []int{5, 21}
	proto, err := ldp.NewOUE(d, eps)
	if err != nil {
		t.Fatal(err)
	}
	epochs := durableEpochs(t, proto, d, quiet, attacked, targets)
	epochTotal := func(e int) int64 {
		var n int64
		for _, b := range epochs[e] {
			n += int64(len(b))
		}
		return n
	}

	newServer := func(dataDir string) (*streamServer, *httptest.Server) {
		t.Helper()
		srv, err := newStreamServer(streamServerConfig{
			Stream:    durableStreamConfig(proto),
			QueueLen:  64,
			Ingesters: 2,
			MaxBody:   8 << 20,
			DataDir:   dataDir,
		})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.handler())
		return srv, hs
	}

	// Pure report-level reference, in memory.
	ref, refHS := newServer("")
	defer refHS.Close()
	var want []estimateResponse
	var total int64
	for e := range epochs {
		total += epochTotal(e)
		ingestBatches(t, ref, refHS.URL, epochs[e], total)
		want = append(want, sealOverHTTP(t, refHS.URL))
	}

	// Mixed-lane durable run: every third batch of each epoch is
	// pre-aggregated at the edge and posted as a partial tally with the
	// current epoch as its hint; the rest go through /v1/reports.
	ingestMixed := func(srv *streamServer, url string, e, from int, soFar int64) int64 {
		t.Helper()
		for i := from; i < len(epochs[e]); i++ {
			b := epochs[e][i]
			var resp *http.Response
			if i%3 == 2 {
				resp = postPartial(t, url, d, e, b)
			} else {
				resp = postBatch(t, url, b)
			}
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("epoch %d batch %d: status %d", e, i, resp.StatusCode)
			}
			resp.Body.Close()
			soFar += int64(len(b))
		}
		waitForIngest(t, srv, soFar)
		return soFar
	}

	crashAt := quiet
	dataDir := t.TempDir()
	srv1, hs1 := newServer(dataDir)
	var got []estimateResponse
	total = 0
	for e := 0; e <= crashAt; e++ {
		total = ingestMixed(srv1, hs1.URL, e, 0, total)
		got = append(got, sealOverHTTP(t, hs1.URL))
	}
	// Leave both record kinds in the crashed epoch's WAL tail: one
	// partial, one report batch.
	next := epochs[crashAt+1]
	resp := postPartial(t, hs1.URL, d, crashAt+1, next[0])
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tail partial status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postBatch(t, hs1.URL, next[1])
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tail batch status %d", resp.StatusCode)
	}
	resp.Body.Close()
	total += int64(len(next[0]) + len(next[1]))
	waitForIngest(t, srv1, total)

	// Crash: no drain, no close, and a torn final WAL record.
	hs1.Close()
	tearWALTail(t, filepath.Join(dataDir, "wal"))

	srv2, hs2 := newServer(dataDir)
	defer hs2.Close()
	defer srv2.close()
	ri := srv2.store.Restored()
	if ri.SnapshotSeq != crashAt+1 {
		t.Fatalf("restored %d sealed epochs, want %d", ri.SnapshotSeq, crashAt+1)
	}
	if ri.ReplayedPartials != 1 || ri.ReplayedPartialUsers != int64(len(next[0])) {
		t.Fatalf("replayed %d partials / %d users, want 1 / %d",
			ri.ReplayedPartials, ri.ReplayedPartialUsers, len(next[0]))
	}
	if ri.ReplayedBatches != 1 {
		t.Fatalf("replayed %d report batches, want 1", ri.ReplayedBatches)
	}
	if est := getJSON[estimateResponse](t, hs2.URL+"/v1/estimate"); !reflect.DeepEqual(est, got[crashAt]) {
		t.Fatalf("restored estimate %+v, want %+v", est, got[crashAt])
	}
	waitForIngest(t, srv2, total)

	total = ingestMixed(srv2, hs2.URL, crashAt+1, 2, total)
	got = append(got, sealOverHTTP(t, hs2.URL))
	for e := crashAt + 2; e < len(epochs); e++ {
		total = ingestMixed(srv2, hs2.URL, e, 0, total)
		got = append(got, sealOverHTTP(t, hs2.URL))
	}

	for e := range want {
		if !reflect.DeepEqual(got[e], want[e]) {
			t.Fatalf("epoch %d estimate diverged from pure report-level:\n got %+v\nwant %+v", e, got[e], want[e])
		}
	}
	st := getJSON[statsResponse](t, hs2.URL+"/v1/stats")
	if st.PartialsAccepted == 0 || st.PartialsStale != 0 {
		t.Fatalf("partial counters %+v", st)
	}
	// The pooled body buffers were recycled: far fewer allocations
	// than checkouts once the handlers and workers keep returning them.
	if st.BufPoolHits == 0 {
		t.Fatalf("body buffer pool never hit: %d gets, %d misses",
			st.BufPoolHits+st.BufPoolMisses, st.BufPoolMisses)
	}
}
