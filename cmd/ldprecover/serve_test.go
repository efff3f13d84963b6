package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ldprecover"
)

func testServer(t *testing.T, cfg streamServerConfig) (*streamServer, *httptest.Server) {
	t.Helper()
	srv, err := newStreamServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

func postBatch(t *testing.T, url string, reps []ldprecover.Report) *http.Response {
	t.Helper()
	frame, err := ldprecover.MarshalReportBatch(reps)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/reports", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJSON[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestServeEndToEnd is the acceptance round trip: reports travel through
// the wire codec into the HTTP ingest queue, an epoch is sealed over
// them, and the served window estimate (poisoned and recovered) must
// equal the batch pipeline's output on the same reports, float for
// float.
func TestServeEndToEnd(t *testing.T) {
	const d, eps = 48, 0.6
	proto, err := ldprecover.NewOUE(d, eps)
	if err != nil {
		t.Fatal(err)
	}
	srv, hs := testServer(t, streamServerConfig{
		Stream: ldprecover.StreamConfig{
			Params:  proto.Params(),
			Window:  8,
			TargetK: -1, // deterministic non-knowledge recovery
		},
		QueueLen:  64,
		Ingesters: 2,
		MaxBody:   8 << 20,
	})

	// A poisoned population: genuine users plus an MGA attacker.
	r := ldprecover.NewRand(13)
	trueCounts := make([]int64, d)
	for v := range trueCounts {
		trueCounts[v] = int64(60 + 5*v)
	}
	genuine, err := ldprecover.PerturbAll(proto, r, trueCounts)
	if err != nil {
		t.Fatal(err)
	}
	mga, err := ldprecover.NewMGA([]int{7, 31})
	if err != nil {
		t.Fatal(err)
	}
	malicious, err := mga.CraftReports(r, proto, 150)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]ldprecover.Report(nil), genuine...), malicious...)

	// Ingest concurrently in small batches — two epochs' worth split by
	// a mid-stream seal, both inside the serving window.
	ingest := func(reps []ldprecover.Report) {
		t.Helper()
		var wg sync.WaitGroup
		const batch = 256
		for lo := 0; lo < len(reps); lo += batch {
			hi := lo + batch
			if hi > len(reps) {
				hi = len(reps)
			}
			wg.Add(1)
			go func(part []ldprecover.Report) {
				defer wg.Done()
				resp := postBatch(t, hs.URL, part)
				if resp.StatusCode != http.StatusAccepted {
					body, _ := io.ReadAll(resp.Body)
					t.Errorf("ingest status %d: %s", resp.StatusCode, body)
				}
				resp.Body.Close()
			}(reps[lo:hi])
		}
		wg.Wait()
	}
	half := len(all) / 2
	ingest(all[:half])
	waitForIngest(t, srv, int64(half))
	resp, err := http.Post(hs.URL+"/v1/seal", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	sealed := decodeJSON[estimateResponse](t, resp)
	if sealed.Seq != 0 || sealed.Total != int64(half) {
		t.Fatalf("first seal: %+v", sealed)
	}
	ingest(all[half:])
	waitForIngest(t, srv, int64(len(all)))
	resp, err = http.Post(hs.URL+"/v1/seal", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeJSON[estimateResponse](t, resp); got.Epochs != 2 {
		t.Fatalf("second seal spans %d epochs", got.Epochs)
	}

	// The served estimate over both epochs vs. the batch pipeline.
	resp, err = http.Get(hs.URL + "/v1/estimate")
	if err != nil {
		t.Fatal(err)
	}
	est := decodeJSON[estimateResponse](t, resp)
	wantPoisoned, err := ldprecover.EstimateFrequencies(all, proto.Params())
	if err != nil {
		t.Fatal(err)
	}
	wantRec, err := ldprecover.Recover(wantPoisoned, proto.Params(), ldprecover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if est.Total != int64(len(all)) || est.Epochs != 2 {
		t.Fatalf("estimate window: %+v", est)
	}
	if !reflect.DeepEqual(est.Poisoned, wantPoisoned) {
		t.Fatal("served poisoned estimate differs from batch pipeline")
	}
	if !reflect.DeepEqual(est.Recovered, wantRec.Frequencies) {
		t.Fatal("served recovered estimate differs from batch pipeline")
	}

	// An on-demand single-epoch window estimates only the second half.
	resp, err = http.Get(hs.URL + "/v1/estimate?window=1")
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeJSON[estimateResponse](t, resp); got.Epochs != 1 || got.Total != int64(len(all)-half) {
		t.Fatalf("window=1 estimate: %+v", got)
	}

	// Stats reflect the ingest.
	resp, err = http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decodeJSON[statsResponse](t, resp)
	if st.IngestedTotal != int64(len(all)) || st.Epochs != 2 || st.LiveTotal != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.BatchesRejected != 0 {
		t.Fatalf("%d batches rejected", st.BatchesRejected)
	}

	// Drain seals the remainder (empty here) and refuses further ingest.
	if _, err := srv.drain(); err != nil {
		t.Fatal(err)
	}
	resp = postBatch(t, hs.URL, all[:1])
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest while draining: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// waitForIngest blocks until the manager has folded total reports — the
// queue is asynchronous, so sealing immediately after a POST could race
// the drain workers.
func waitForIngest(t *testing.T, srv *streamServer, total int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.mgr.Stats()
		if st.IngestedTotal >= total {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingest stalled at %d/%d reports", st.IngestedTotal, total)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeBadRequests exercises the HTTP error paths.
func TestServeBadRequests(t *testing.T) {
	proto, err := ldprecover.NewGRR(16, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	_, hs := testServer(t, streamServerConfig{
		Stream:    ldprecover.StreamConfig{Params: proto.Params()},
		QueueLen:  4,
		Ingesters: 1,
		MaxBody:   1 << 20,
	})

	// Garbage batch frame.
	resp, err := http.Post(hs.URL+"/v1/reports", "application/octet-stream", bytes.NewReader([]byte("not a frame")))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage frame: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Estimate before any seal.
	resp, err = http.Get(hs.URL + "/v1/estimate")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("estimate before seal: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Bad window parameter.
	resp, err = http.Get(hs.URL + "/v1/estimate?window=zero")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad window: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Wrong methods.
	for path, method := range map[string]string{
		"/v1/reports":  http.MethodGet,
		"/v1/seal":     http.MethodGet,
		"/v1/estimate": http.MethodPost,
		"/v1/stats":    http.MethodPost,
	} {
		req, err := http.NewRequest(method, hs.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d", method, path, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// An empty batch is acknowledged without touching the queue.
	resp, err = http.Post(hs.URL+"/v1/reports", "application/octet-stream",
		bytes.NewReader(mustFrame(t, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("empty batch: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func mustFrame(t *testing.T, reps []ldprecover.Report) []byte {
	t.Helper()
	frame, err := ldprecover.MarshalReportBatch(reps)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestServeFlagValidation: flag combinations that used to pass through
// silently (negative -epoch behaved like 0) or surface as an internal
// "stream:" config error must fail up front, naming the flags.
func TestServeFlagValidation(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		want []string // substrings the error must mention
	}{
		"negative-epoch":       {[]string{"-epoch", "-1s"}, []string{"-epoch"}},
		"zero-window":          {[]string{"-window", "0"}, []string{"-window"}},
		"history-below-window": {[]string{"-history", "2", "-window", "4"}, []string{"-history", "-window"}},
		"bad-wal-segment":      {[]string{"-wal-segment", "-1"}, []string{"-wal-segment"}},
	} {
		t.Run(name, func(t *testing.T) {
			err := runServe(tc.args)
			if err == nil {
				t.Fatalf("runServe(%v) succeeded", tc.args)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name %s", err, want)
				}
			}
		})
	}
}

// TestServeLoopSealFailureShutsDown is the regression test for the
// leaked HTTP server: when a ticker-driven seal fails, serveLoop must
// still stop the listener, terminate the Serve goroutine, and fold every
// queued batch into the manager before returning — an early return here
// used to strand all three.
func TestServeLoopSealFailureShutsDown(t *testing.T) {
	proto, err := ldprecover.NewGRR(8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newStreamServer(streamServerConfig{
		Stream:    ldprecover.StreamConfig{Params: proto.Params()},
		QueueLen:  8,
		Ingesters: 1,
		MaxBody:   1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Park the single worker so a real batch is still queued when the
	// seal fails; the drain on the error path must fold it anyway.
	block := make(chan struct{})
	parkFold(srv, block)
	rep, err := proto.Perturb(ldprecover.NewRand(1), 3)
	if err != nil {
		t.Fatal(err)
	}
	srv.queue <- mustFrame(t, []ldprecover.Report{rep})
	srv.queue <- mustFrame(t, []ldprecover.Report{rep})

	sealErr := errors.New("synthetic seal failure")
	srv.sealFn = func() (*ldprecover.WindowEstimate, error) { return nil, sealErr }

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	tick := make(chan time.Time, 1)
	loopErr := make(chan error, 1)
	go func() { loopErr <- serveLoop(hs, srv, tick, nil, errc) }()
	tick <- time.Time{}
	close(block) // let the parked worker finish so the drain can complete

	select {
	case err := <-loopErr:
		if !errors.Is(err, sealErr) {
			t.Fatalf("serveLoop returned %v, want the seal failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serveLoop did not return after the failed seal")
	}

	// The listener is down...
	if conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		conn.Close()
		t.Fatal("listener still accepting after failed seal")
	}
	// ...the ingest workers have exited...
	workersDone := make(chan struct{})
	go func() { srv.wg.Wait(); close(workersDone) }()
	select {
	case <-workersDone:
	case <-time.After(10 * time.Second):
		t.Fatal("ingest workers leaked after failed seal")
	}
	// ...and both queued batches (the one the parked worker held and the
	// one still queued) were folded into the manager, not dropped.
	if got := srv.mgr.Stats().IngestedTotal; got != 2 {
		t.Fatalf("drained %d reports, want 2", got)
	}
}

// TestServeSealEndpointFailureShutsDown: a failed POST /v1/seal is as
// fatal as a failed ticker seal — the handler answers 500, and the serve
// loop shuts the server down instead of letting it accept reports
// forever with broken durability.
func TestServeSealEndpointFailureShutsDown(t *testing.T) {
	proto, err := ldprecover.NewGRR(8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newStreamServer(streamServerConfig{
		Stream:    ldprecover.StreamConfig{Params: proto.Params()},
		QueueLen:  8,
		Ingesters: 1,
		MaxBody:   1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	sealErr := errors.New("synthetic seal failure")
	srv.sealFn = func() (*ldprecover.WindowEstimate, error) { return nil, sealErr }

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	loopErr := make(chan error, 1)
	go func() { loopErr <- serveLoop(hs, srv, nil, nil, errc) }()

	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/seal", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("seal status %d, want 500", resp.StatusCode)
	}
	resp.Body.Close()

	select {
	case err := <-loopErr:
		if !errors.Is(err, sealErr) {
			t.Fatalf("serveLoop returned %v, want the seal failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serveLoop kept running after a failed POST /v1/seal")
	}
	if conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		conn.Close()
		t.Fatal("listener still accepting after failed seal")
	}
}

// parkFold makes srv's ingest workers park before each fold until
// release closes, so the bounded queue in front of the manager fills
// deterministically. Call it before the first frame is queued.
func parkFold(srv *streamServer, release <-chan struct{}) {
	fold := srv.foldFn
	srv.foldFn = func(frame []byte) error {
		<-release
		return fold(frame)
	}
}

// TestServeBackpressure parks the single ingest worker, fills the
// bounded queue over HTTP, and checks the 429 overload path.
func TestServeBackpressure(t *testing.T) {
	proto, err := ldprecover.NewGRR(8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newStreamServer(streamServerConfig{
		Stream:    ldprecover.StreamConfig{Params: proto.Params()},
		QueueLen:  2,
		Ingesters: 1,
		MaxBody:   1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	defer close(block)
	rep, err := proto.Perturb(ldprecover.NewRand(1), 3)
	if err != nil {
		t.Fatal(err)
	}
	batch := []ldprecover.Report{rep}
	// Enqueue directly; the worker dequeues the frame and parks before
	// folding it.
	parkFold(srv, block)
	srv.queue <- mustFrame(t, batch)
	hs := httptest.NewServer(srv.handler())
	defer hs.Close()

	// At most three posts can be absorbed (one dequeued by the parked
	// worker, two queued); the fourth must bounce.
	seen429 := false
	for i := 0; i < 10 && !seen429; i++ {
		resp := postBatch(t, hs.URL, batch)
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			seen429 = true
		default:
			t.Fatalf("status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if !seen429 {
		t.Fatal("queue never backpressured")
	}
}
