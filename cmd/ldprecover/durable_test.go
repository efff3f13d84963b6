package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ldprecover/internal/attack"
	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
	"ldprecover/internal/stream"
)

// durableStreamConfig is the serving configuration shared by both runs
// of the crash-restart test: window > 1 so restored window sums matter,
// hysteresis short enough that LDPRecover* engages within the stream.
func durableStreamConfig(proto ldp.Protocol) stream.Config {
	return stream.Config{
		Params:      proto.Params(),
		Window:      2,
		History:     12,
		StableAfter: 2,
		TargetK:     4,
	}
}

// durableEpochs pre-generates the whole test stream once — quiet epochs
// to build history, then MGA-attacked epochs — split into wire batches,
// so every server ingests byte-identical traffic.
func durableEpochs(t *testing.T, proto ldp.Protocol, d, quiet, attacked int, targets []int) [][][]ldp.Report {
	t.Helper()
	r := rng.New(21)
	trueCounts := make([]int64, d)
	for v := range trueCounts {
		trueCounts[v] = 200
	}
	mga, err := attack.NewMGA(targets)
	if err != nil {
		t.Fatal(err)
	}
	var epochs [][][]ldp.Report
	for e := 0; e < quiet+attacked; e++ {
		reps, err := ldp.PerturbAll(proto, r, trueCounts)
		if err != nil {
			t.Fatal(err)
		}
		if e >= quiet {
			mal, err := mga.CraftReports(r, proto, int64(len(reps)/10))
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, mal...)
		}
		var batches [][]ldp.Report
		const per = 1024
		for lo := 0; lo < len(reps); lo += per {
			hi := min(lo+per, len(reps))
			batches = append(batches, reps[lo:hi])
		}
		epochs = append(epochs, batches)
	}
	return epochs
}

// ingestBatches posts batches over HTTP and waits until the manager has
// folded them all.
func ingestBatches(t *testing.T, srv *streamServer, url string, batches [][]ldp.Report, expectTotal int64) {
	t.Helper()
	for _, b := range batches {
		resp := postBatch(t, url, b)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	waitForIngest(t, srv, expectTotal)
}

func sealOverHTTP(t *testing.T, url string) estimateResponse {
	t.Helper()
	resp, err := http.Post(url+"/v1/seal", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seal status %d", resp.StatusCode)
	}
	return decodeJSON[estimateResponse](t, resp)
}

func getJSON[T any](t *testing.T, url string) T {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return decodeJSON[T](t, resp)
}

// TestServeCrashRestartE2E is the durability acceptance test: a durable
// server is killed mid-stream — mid-epoch, mid-hysteresis, with a torn
// final WAL record for good measure — restarted from snapshot + WAL
// tail, and must serve, for every remaining epoch, window estimates
// bit-identical to an uninterrupted (in-memory) server fed the same
// report stream: the same floats, the same LDPRecover* engagement epoch,
// the same stable target set.
func TestServeCrashRestartE2E(t *testing.T) {
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

	// Uninterrupted reference run, entirely in memory.
	ref, refHS := newServer("")
	defer refHS.Close()
	var want []estimateResponse
	var total int64
	for e := range epochs {
		total += epochTotal(e)
		ingestBatches(t, ref, refHS.URL, epochs[e], total)
		want = append(want, sealOverHTTP(t, refHS.URL))
	}
	wantStats := getJSON[statsResponse](t, refHS.URL+"/v1/stats")
	wantAdHoc := getJSON[estimateResponse](t, refHS.URL+"/v1/estimate?window=3")

	// Sanity on the scenario itself: the upgrade engages mid-attack.
	engaged := -1
	for e, est := range want {
		if est.PartialKnowledge {
			engaged = e
			break
		}
	}
	if engaged < quiet || engaged >= quiet+attacked {
		t.Fatalf("LDPRecover* engaged at epoch %d, outside the attacked range", engaged)
	}

	// Durable run: crash after sealing the first attacked epoch (the
	// tracker streak is mid-flight) with half of the next epoch's
	// batches ingested but unsealed.
	crashAt := quiet // last epoch sealed before the crash
	if engaged <= crashAt {
		t.Fatalf("engagement epoch %d not after the crash point %d", engaged, crashAt)
	}
	dataDir := t.TempDir()
	srv1, hs1 := newServer(dataDir)
	var got []estimateResponse
	total = 0
	for e := 0; e <= crashAt; e++ {
		total += epochTotal(e)
		ingestBatches(t, srv1, hs1.URL, epochs[e], total)
		got = append(got, sealOverHTTP(t, hs1.URL))
	}
	half := len(epochs[crashAt+1]) / 2
	for _, b := range epochs[crashAt+1][:half] {
		total += int64(len(b))
	}
	ingestBatches(t, srv1, hs1.URL, epochs[crashAt+1][:half], total)

	// Crash: stop routing requests and abandon the server — no drain, no
	// store close, no final seal. Then tear the WAL's final record the
	// way a crash mid-append would.
	hs1.Close()
	tearWALTail(t, filepath.Join(dataDir, "wal"))

	srv2, hs2 := newServer(dataDir)
	defer hs2.Close()
	defer srv2.close()
	ri := srv2.store.Restored()
	if ri.SnapshotSeq != crashAt+1 {
		t.Fatalf("restored %d sealed epochs, want %d", ri.SnapshotSeq, crashAt+1)
	}
	if ri.ReplayedBatches != half {
		t.Fatalf("replayed %d batches, want %d", ri.ReplayedBatches, half)
	}
	// The pre-crash serving estimate is back verbatim.
	if est := getJSON[estimateResponse](t, hs2.URL+"/v1/estimate"); !reflect.DeepEqual(est, got[crashAt]) {
		t.Fatalf("restored estimate %+v, want %+v", est, got[crashAt])
	}
	waitForIngest(t, srv2, total)

	// Finish the interrupted epoch and the rest of the stream.
	for e := crashAt + 1; e < len(epochs); e++ {
		rest := epochs[e]
		if e == crashAt+1 {
			rest = rest[half:]
		}
		for _, b := range rest {
			total += int64(len(b))
		}
		ingestBatches(t, srv2, hs2.URL, rest, total)
		got = append(got, sealOverHTTP(t, hs2.URL))
	}

	// Bit-for-bit: every per-epoch window estimate, the ad-hoc window
	// query, and the stats (modulo queue counters, which count HTTP
	// batches per process, not reports).
	for e := range want {
		if !reflect.DeepEqual(got[e], want[e]) {
			t.Fatalf("epoch %d estimate diverged after crash-restart:\n got %+v\nwant %+v", e, got[e], want[e])
		}
	}
	gotAdHoc := getJSON[estimateResponse](t, hs2.URL+"/v1/estimate?window=3")
	if !reflect.DeepEqual(gotAdHoc, wantAdHoc) {
		t.Fatal("ad-hoc window estimate diverged after crash-restart")
	}
	gotStats := getJSON[statsResponse](t, hs2.URL+"/v1/stats")
	if gotStats.Epochs != wantStats.Epochs || gotStats.IngestedTotal != wantStats.IngestedTotal ||
		gotStats.WindowTotal != wantStats.WindowTotal || !reflect.DeepEqual(gotStats.Targets, wantStats.Targets) {
		t.Fatalf("stats diverged after crash-restart:\n got %+v\nwant %+v", gotStats, wantStats)
	}
	sort.Ints(targets)
	if !reflect.DeepEqual(gotStats.Targets, targets) {
		t.Fatalf("restarted server identifies targets %v, want %v", gotStats.Targets, targets)
	}
}

// tearWALTail appends a truncated record to the newest WAL segment —
// exactly what a crash between a write and its completion leaves behind.
func tearWALTail(t *testing.T, walDir string) {
	t.Helper()
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	var newest string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg") {
			newest = filepath.Join(walDir, e.Name()) // sorted: last wins
		}
	}
	if newest == "" {
		t.Fatal("no WAL segment to tear")
	}
	f, err := os.OpenFile(newest, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A header that declares more payload than follows.
	if _, err := f.Write([]byte{0xe8, 0x03, 0, 0, 7, 7, 7}); err != nil {
		t.Fatal(err)
	}
	f.Close()
}
