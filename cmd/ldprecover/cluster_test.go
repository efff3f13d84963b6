package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ldprecover/internal/attack"
	"ldprecover/internal/ldp"
	"ldprecover/internal/persist"
	"ldprecover/internal/rng"
	"ldprecover/internal/stream"
)

// clusterStreamConfig is the serving configuration both sides of the
// equivalence test run: small windows and thresholds so the MGA ramp
// engages LDPRecover* within a short stream.
func clusterStreamConfig(params ldp.Params) stream.Config {
	return stream.Config{
		Params:      params,
		Window:      2,
		History:     8,
		TargetK:     2,
		MinZ:        2.5,
		StableAfter: 2,
		MinHistory:  2,
	}
}

// postAll ships reports to a frontend in small wire batches.
func postAll(t *testing.T, url string, reps []ldp.Report) {
	t.Helper()
	const batch = 200
	for lo := 0; lo < len(reps); lo += batch {
		hi := min(lo+batch, len(reps))
		resp := postBatch(t, url, reps[lo:hi])
		if resp.StatusCode != http.StatusAccepted {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
		}
		resp.Body.Close()
	}
}

// canonicalEstimate round-trips an estimate response through JSON so
// nil-vs-empty slice differences cannot masquerade as divergence.
func canonicalEstimate(t *testing.T, est estimateResponse) estimateResponse {
	t.Helper()
	raw, err := json.Marshal(est)
	if err != nil {
		t.Fatal(err)
	}
	var out estimateResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// getEstimate fetches a server's latest window estimate.
func getEstimate(t *testing.T, url string) estimateResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/estimate")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("estimate status %d: %s", resp.StatusCode, body)
	}
	return decodeJSON[estimateResponse](t, resp)
}

// getStats fetches a server's stats.
func getStats(t *testing.T, url string) statsResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	return decodeJSON[statsResponse](t, resp)
}

// sealFrontend ticks one frontend's epoch clock.
func sealFrontend(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/seal", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("frontend seal status %d: %s", resp.StatusCode, body)
	}
	resp.Body.Close()
}

// waitForRootEpochs blocks until the root has sealed n merged epochs.
func waitForRootEpochs(t *testing.T, root *streamServer, n int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if root.mgr.Stats().Epochs >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("root stalled at %d/%d merged epochs", root.mgr.Stats().Epochs, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClusterEquivalenceE2E is the headline cluster guarantee: three
// frontend nodes over a partitioned user population, pushing sealed
// tallies to a root merger, must produce per-epoch window estimates,
// an LDPRecover* engagement epoch, and a stable target set
// bit-identical to the single-node pipeline fed the union of the same
// reports — including after one frontend is killed and restarted
// mid-epoch (durable WAL replay + ring re-send) and after a duplicate
// tally is explicitly re-sent (root dedupe).
func TestClusterEquivalenceE2E(t *testing.T) {
	const (
		d, eps   = 32, 0.6
		nFront   = 3
		epochs   = 8
		attackAt = 4 // first attacked epoch
	)
	proto, err := ldp.NewOUE(d, eps)
	if err != nil {
		t.Fatal(err)
	}
	streamCfg := clusterStreamConfig(proto.Params())

	// The single-node reference pipeline over the union of reports.
	ref, err := stream.NewEpochManager(streamCfg)
	if err != nil {
		t.Fatal(err)
	}

	// The root merger (no straggler timeout: the barrier is exact).
	nodeIDs := make([]string, nFront)
	for i := range nodeIDs {
		nodeIDs[i] = fmt.Sprintf("fe-%d", i)
	}
	rootSrv, rootHS := testServer(t, streamServerConfig{
		Stream:    streamCfg,
		QueueLen:  4,
		Ingesters: 1,
		MaxBody:   8 << 20,
		Role:      roleRoot,
		Nodes:     nodeIDs,
	})

	// Three durable frontends (the WAL is what survives the crash).
	dirs := make([]string, nFront)
	feSrv := make([]*streamServer, nFront)
	feHS := make([]*httptest.Server, nFront)
	newFrontend := func(i int) {
		dirs[i] = filepath.Join(t.TempDir(), "fe")
		feSrv[i], feHS[i] = testServer(t, streamServerConfig{
			Stream:       streamCfg,
			QueueLen:     64,
			Ingesters:    2,
			MaxBody:      8 << 20,
			DataDir:      dirs[i],
			Role:         roleFrontend,
			NodeID:       nodeIDs[i],
			RootAddr:     rootHS.URL,
			PushInterval: 20 * time.Millisecond,
		})
	}
	restartFrontend := func(i int) {
		var err error
		feSrv[i], err = newStreamServer(streamServerConfig{
			Stream:       streamCfg,
			QueueLen:     64,
			Ingesters:    2,
			MaxBody:      8 << 20,
			DataDir:      dirs[i],
			Role:         roleFrontend,
			NodeID:       nodeIDs[i],
			RootAddr:     rootHS.URL,
			PushInterval: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		feHS[i] = httptest.NewServer(feSrv[i].handler())
		t.Cleanup(feHS[i].Close)
	}
	for i := range feSrv {
		newFrontend(i)
	}

	// Deterministic population: genuine users each epoch, an MGA ramp
	// on fixed targets from attackAt on. Reports are partitioned across
	// frontends round-robin — disjoint by construction.
	r := rng.New(29)
	mga, err := attack.NewMGA([]int{3, 11})
	if err != nil {
		t.Fatal(err)
	}
	trueCounts := make([]int64, d)
	for v := range trueCounts {
		trueCounts[v] = int64(30 + 2*v)
	}

	engagedRef, engagedRoot := -1, -1
	ingested := make([]int64, nFront) // cumulative per-frontend report totals
	for e := 0; e < epochs; e++ {
		genuine, err := ldp.PerturbAll(proto, r, trueCounts)
		if err != nil {
			t.Fatal(err)
		}
		union := genuine
		if e >= attackAt {
			malicious, err := mga.CraftReports(r, proto, 250)
			if err != nil {
				t.Fatal(err)
			}
			union = append(append([]ldp.Report(nil), genuine...), malicious...)
		}
		parts := make([][]ldp.Report, nFront)
		for i, rep := range union {
			parts[i%nFront] = append(parts[i%nFront], rep)
		}

		if e == attackAt {
			// Kill frontend 1 mid-epoch: half its share ingested (and
			// durably logged), then the process "dies" — listener gone,
			// WAL released — and a fresh process resumes from the same
			// data dir, ingests the rest, and seals on the shared clock.
			half := parts[1][:len(parts[1])/2]
			rest := parts[1][len(parts[1])/2:]
			postAll(t, feHS[1].URL, half)
			waitForIngest(t, feSrv[1], ingested[1]+int64(len(half)))
			feHS[1].Close()
			if err := feSrv[1].pusher.close(); err != nil {
				t.Fatalf("pusher close before crash: %v", err)
			}
			if err := feSrv[1].store.Close(); err != nil {
				t.Fatal(err)
			}
			restartFrontend(1)
			if got := feSrv[1].mgr.Stats().IngestedTotal; got != ingested[1]+int64(len(half)) {
				t.Fatalf("restart replayed %d reports, want %d", got, ingested[1]+int64(len(half)))
			}
			parts[1] = rest
			ingested[1] += int64(len(half))
		}

		for i := range parts {
			postAll(t, feHS[i].URL, parts[i])
			ingested[i] += int64(len(parts[i]))
			waitForIngest(t, feSrv[i], ingested[i])
		}
		// The shared epoch clock ticks: every frontend seals epoch e and
		// pushes its tally; the root's barrier completes and seals.
		for i := range feHS {
			sealFrontend(t, feHS[i].URL)
		}
		waitForRootEpochs(t, rootSrv, e+1)

		// Reference pipeline over the union.
		if err := ref.AddBatch(union); err != nil {
			t.Fatal(err)
		}
		want, err := ref.Seal()
		if err != nil {
			t.Fatal(err)
		}
		got := getEstimate(t, rootHS.URL)
		wantResp := canonicalEstimate(t, estimateResponse(*want))
		if !reflect.DeepEqual(got, wantResp) {
			t.Fatalf("epoch %d: cluster estimate diverged from single node\ngot  %+v\nwant %+v", e, got, wantResp)
		}
		if want.PartialKnowledge && engagedRef < 0 {
			engagedRef = e
		}
		if got.PartialKnowledge && engagedRoot < 0 {
			engagedRoot = e
		}

		if e == attackAt+1 {
			// Re-send an old tally verbatim: the root must dedupe it and
			// nothing — estimate, epoch count, window totals — may move.
			before := getEstimate(t, rootHS.URL)
			epochsBefore := rootSrv.mgr.Stats().Epochs
			feEpochs := feSrv[0].mgr.Epochs()
			dup := &ldp.Tally{
				NodeID: nodeIDs[0], Epoch: feEpochs[0].Seq,
				Counts: feEpochs[0].Counts, Total: feEpochs[0].Total,
			}
			frame, err := ldp.MarshalTally(dup)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(rootHS.URL+"/v1/tally", "application/octet-stream", bytes.NewReader(frame))
			if err != nil {
				t.Fatal(err)
			}
			tr := decodeJSON[tallyResponse](t, resp)
			if !tr.Duplicate {
				t.Fatalf("re-sent tally not deduped: %+v", tr)
			}
			if after := getEstimate(t, rootHS.URL); !reflect.DeepEqual(after, before) {
				t.Fatal("duplicate tally changed the served estimate")
			}
			if rootSrv.mgr.Stats().Epochs != epochsBefore {
				t.Fatal("duplicate tally sealed an epoch")
			}
		}
	}

	// The attack must actually have engaged LDPRecover* — otherwise the
	// hysteresis/target-set equivalence above was never exercised — and
	// it must have engaged at the same epoch with the same targets.
	if engagedRef < 0 {
		t.Fatal("single-node pipeline never engaged LDPRecover*; the scenario is vacuous")
	}
	if engagedRoot != engagedRef {
		t.Fatalf("engagement epochs diverged: cluster %d, single node %d", engagedRoot, engagedRef)
	}
	final := getEstimate(t, rootHS.URL)
	if !final.PartialKnowledge || len(final.Targets) == 0 {
		t.Fatalf("cluster final estimate lost the stable target set: %+v", final)
	}

	// Partial-epoch accounting for the full run: every merged epoch saw
	// all three nodes, and the dedupes (restart ring re-send + explicit
	// duplicate) were counted.
	st := getStats(t, rootHS.URL)
	if st.Cluster == nil || st.Cluster.Role != "root" {
		t.Fatalf("root stats missing cluster section: %+v", st)
	}
	if st.Cluster.SealedThrough != epochs {
		t.Fatalf("root sealed through %d, want %d", st.Cluster.SealedThrough, epochs)
	}
	for _, m := range st.Cluster.Merged {
		if len(m.Missing) != 0 || len(m.Nodes) != nFront {
			t.Fatalf("merged epoch %d incomplete: %+v", m.Epoch, m)
		}
	}
	if st.Cluster.Duplicates == 0 {
		t.Fatal("root observed no duplicates despite the restart re-send")
	}
}

// TestRootStragglerTimeoutHTTP: with a straggler timeout configured,
// the root force-seals a partial epoch, the stats name exactly which
// nodes merged and which were missing, and the straggler's late tally
// dedupes to a no-op (idempotence at the HTTP layer).
func TestRootStragglerTimeoutHTTP(t *testing.T) {
	proto, err := ldp.NewGRR(16, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rootSrv, rootHS := testServer(t, streamServerConfig{
		Stream:       stream.Config{Params: proto.Params(), TargetK: -1},
		QueueLen:     4,
		Ingesters:    1,
		MaxBody:      1 << 20,
		Role:         roleRoot,
		Nodes:        []string{"fe-0", "fe-1"},
		TallyTimeout: 50 * time.Millisecond,
	})
	tally := &ldp.Tally{NodeID: "fe-0", Epoch: 0, Counts: make([]int64, 16), Total: 40}
	tally.Counts[2] = 40
	push := func(tl *ldp.Tally) tallyResponse {
		t.Helper()
		frame, err := ldp.MarshalTally(tl)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(rootHS.URL+"/v1/tally", "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("tally status %d: %s", resp.StatusCode, body)
		}
		return decodeJSON[tallyResponse](t, resp)
	}
	if tr := push(tally); tr.Duplicate || tr.SealedThrough != 0 {
		t.Fatalf("first tally: %+v", tr)
	}
	// fe-1 never arrives; the straggler timer must force the seal.
	waitForRootEpochs(t, rootSrv, 1)
	st := getStats(t, rootHS.URL)
	if st.Cluster == nil || len(st.Cluster.Merged) != 1 {
		t.Fatalf("stats after partial seal: %+v", st)
	}
	m := st.Cluster.Merged[0]
	if !reflect.DeepEqual(m.Nodes, []string{"fe-0"}) || !reflect.DeepEqual(m.Missing, []string{"fe-1"}) {
		t.Fatalf("partial epoch accounting: %+v", m)
	}
	if m.Total != 40 {
		t.Fatalf("partial epoch total %d", m.Total)
	}
	// The straggler's late tally and a re-send of the merged one are
	// both deduped without moving anything.
	before := rootSrv.mgr.Stats()
	late := &ldp.Tally{NodeID: "fe-1", Epoch: 0, Counts: make([]int64, 16), Total: 7}
	if tr := push(late); !tr.Duplicate || tr.SealedThrough != 1 {
		t.Fatalf("late tally: %+v", tr)
	}
	if tr := push(tally); !tr.Duplicate {
		t.Fatalf("re-sent tally: %+v", tr)
	}
	if after := rootSrv.mgr.Stats(); !reflect.DeepEqual(after, before) {
		t.Fatalf("duplicates changed the merged state: %+v -> %+v", before, after)
	}
	st = getStats(t, rootHS.URL)
	if st.Cluster.Merged[0].Duplicates != 2 {
		t.Fatalf("duplicate accounting: %+v", st.Cluster.Merged[0])
	}
}

// TestClusterEndpointRouting: report batches bounce off a root, tallies
// bounce off anything that is not a root, and garbage tally frames are
// rejected.
func TestClusterEndpointRouting(t *testing.T) {
	proto, err := ldp.NewGRR(8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	_, rootHS := testServer(t, streamServerConfig{
		Stream:    stream.Config{Params: proto.Params(), TargetK: -1},
		QueueLen:  4,
		Ingesters: 1,
		MaxBody:   1 << 20,
		Role:      roleRoot,
		Nodes:     []string{"fe-0"},
	})
	rep, err := proto.Perturb(rng.New(1), 3)
	if err != nil {
		t.Fatal(err)
	}
	resp := postBatch(t, rootHS.URL, []ldp.Report{rep})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("report batch on a root: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.Post(rootHS.URL+"/v1/tally", "application/octet-stream", bytes.NewReader([]byte("garbage")))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage tally: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// A tally from a node outside the barrier set is an error, not a seal.
	outsider := &ldp.Tally{NodeID: "rogue", Epoch: 0, Counts: make([]int64, 8), Total: 1}
	frame, err := ldp.MarshalTally(outsider)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(rootHS.URL+"/v1/tally", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("rogue tally: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// A single node is not a tally sink.
	_, plainHS := testServer(t, streamServerConfig{
		Stream:    stream.Config{Params: proto.Params()},
		QueueLen:  4,
		Ingesters: 1,
		MaxBody:   1 << 20,
	})
	resp, err = http.Post(plainHS.URL+"/v1/tally", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("tally on a single node: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestServeClusterFlagValidation: every inconsistent cluster flag
// combination fails up front with the offending flag named, in the
// PR 4 validation style.
func TestServeClusterFlagValidation(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		want []string // substrings the error must mention
	}{
		"unknown-role":          {[]string{"-role", "sideways"}, []string{"-role"}},
		"frontend-no-root":      {[]string{"-role", "frontend"}, []string{"-root-addr"}},
		"frontend-no-node-id":   {[]string{"-role", "frontend", "-root-addr", "http://r:1"}, []string{"-node-id"}},
		"frontend-bad-root-url": {[]string{"-role", "frontend", "-root-addr", "r:1:2:3", "-node-id", "a"}, []string{"-root-addr"}},
		"frontend-with-nodes": {
			[]string{"-role", "frontend", "-root-addr", "http://r:1", "-node-id", "a", "-nodes", "a,b"},
			[]string{"-nodes", "-role=root"}},
		"frontend-with-timeout": {
			[]string{"-role", "frontend", "-root-addr", "http://r:1", "-node-id", "a", "-tally-timeout", "5s"},
			[]string{"-tally-timeout", "-role=root"}},
		"root-no-nodes":       {[]string{"-role", "root"}, []string{"-nodes"}},
		"root-empty-node":     {[]string{"-role", "root", "-nodes", "a,,b"}, []string{"-nodes"}},
		"root-duplicate-node": {[]string{"-role", "root", "-nodes", "a,a"}, []string{"-nodes"}},
		"root-negative-timeout": {
			[]string{"-role", "root", "-nodes", "a", "-tally-timeout", "-5s"},
			[]string{"-tally-timeout"}},
		"root-with-node-id":   {[]string{"-role", "root", "-nodes", "a", "-node-id", "x"}, []string{"-node-id"}},
		"root-with-root-addr": {[]string{"-role", "root", "-nodes", "a", "-root-addr", "http://r:1"}, []string{"-root-addr"}},
		"frontend-with-targets": {
			[]string{"-role", "frontend", "-root-addr", "http://r:1", "-node-id", "a", "-targets", "5"},
			[]string{"-targets", "root"}},
		"root-with-epoch": {
			[]string{"-role", "root", "-nodes", "a", "-epoch", "30s"},
			[]string{"-epoch", "-tally-timeout"}},
		"rootless-root-addr": {[]string{"-root-addr", "http://r:1"}, []string{"-root-addr", "-role"}},
		"rootless-nodes":     {[]string{"-nodes", "a"}, []string{"-nodes", "-role"}},
		"standby-no-data-dir": {
			[]string{"-role", "standby", "-root-addr", "http://r:1"},
			[]string{"-data-dir"}},
		"standby-no-root-addr": {
			[]string{"-role", "standby", "-data-dir", "/tmp/x"},
			[]string{"-root-addr"}},
		"standby-bad-promote-after": {
			[]string{"-role", "standby", "-data-dir", "/tmp/x", "-root-addr", "http://r:1", "-promote-after", "0s"},
			[]string{"-promote-after"}},
		"standby-with-epoch": {
			[]string{"-role", "standby", "-data-dir", "/tmp/x", "-root-addr", "http://r:1", "-epoch", "30s"},
			[]string{"-epoch"}},
		"root-with-join": {
			[]string{"-role", "root", "-nodes", "a", "-join"},
			[]string{"-join", "-role=frontend"}},
		"root-with-promote-after": {
			[]string{"-role", "root", "-nodes", "a", "-promote-after", "5s"},
			[]string{"-promote-after", "-role=standby"}},
		"rootless-standby-addr": {
			[]string{"-standby-addr", "http://s:1"},
			[]string{"-standby-addr", "-role=frontend"}},
		"frontend-bad-standby-url": {
			[]string{"-role", "frontend", "-root-addr", "http://r:1", "-node-id", "a", "-standby-addr", "s:1:2:3"},
			[]string{"-standby-addr"}},
		"root-with-leave": {
			[]string{"-role", "root", "-nodes", "a", "-leave-on-shutdown"},
			[]string{"-leave-on-shutdown", "-role=frontend"}},
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

// TestServeRootRejectsReportWAL: pointing -role=root at a data
// directory holding a report-level WAL must be refused — a root merges
// sealed tallies and cannot replay report batch frames.
func TestServeRootRejectsReportWAL(t *testing.T) {
	dir := t.TempDir()
	proto, err := ldp.NewGRR(8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := stream.NewEpochManager(stream.Config{Params: proto.Params()})
	if err != nil {
		t.Fatal(err)
	}
	store, err := persist.Open(dir, mgr, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := proto.Perturb(rng.New(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.AppendBatchFrame(mustView(t, []ldp.Report{rep})); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	err = runServe([]string{"-role", "root", "-nodes", "fe-0", "-data-dir", dir})
	if err == nil {
		t.Fatal("root opened over a report-level WAL")
	}
	for _, want := range []string{"-role=root", "-data-dir", "report-level WAL"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %s", err, want)
		}
	}
	// The WAL itself must be untouched by the refused open.
	segs, err := os.ReadDir(filepath.Join(dir, "wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("report WAL disturbed by the refused root open: %v (%d segments)", err, len(segs))
	}
}

// TestRootForceSealStaleGuard pins the force-seal guard: a forced seal
// (straggler timer, POST /v1/seal) only closes the barrier epoch it was
// armed for, and only while tallies actually wait there. A stale force
// — the epoch sealed while the timer callback waited on the lock —
// must not invent an empty next epoch, which would advance the barrier
// past tallies still en route and discard them as stale duplicates.
func TestRootForceSealStaleGuard(t *testing.T) {
	proto, err := ldp.NewGRR(8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := stream.NewEpochManager(stream.Config{Params: proto.Params(), TargetK: -1})
	if err != nil {
		t.Fatal(err)
	}
	merger, err := stream.NewSealedMerger(mgr, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	rm := newRootMerge(merger, nil, nil, 0, func(err error) { t.Errorf("fatal: %v", err) })

	// Nothing pending, nothing sealed: a forced seal is a visible no-op.
	if _, err := rm.forceSeal(); !errors.Is(err, errNothingToSeal) {
		t.Fatalf("force seal on an empty root: %v", err)
	}
	if mgr.Stats().Epochs != 0 {
		t.Fatal("empty force seal sealed an epoch")
	}

	tally := func(node string, epoch int) ldp.CountFrame {
		tl := &ldp.Tally{NodeID: node, Epoch: epoch, Counts: make([]int64, 8), Total: 5}
		tl.Counts[1] = 5
		frame, err := ldp.MarshalTally(tl)
		if err != nil {
			t.Fatal(err)
		}
		view, err := ldp.ValidateTallyFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		return view
	}
	// Partial barrier at epoch 0: a force armed for epoch 0 seals it...
	if _, err := rm.onTally(tally("a", 0)); err != nil {
		t.Fatal(err)
	}
	if err := rm.seal(0); err != nil {
		t.Fatal(err)
	}
	if got := mgr.Stats().Epochs; got != 1 {
		t.Fatalf("forced partial seal left %d epochs", got)
	}
	// ...and replaying the same stale force (armed for 0, now sealed)
	// must not seal epoch 1 — even with tallies already waiting there.
	if _, err := rm.onTally(tally("a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := rm.seal(0); err != nil {
		t.Fatal(err)
	}
	if got := mgr.Stats().Epochs; got != 1 {
		t.Fatalf("stale force sealed ahead: %d epochs", got)
	}
	// A complete barrier seals through onTally; a stale force armed for
	// that epoch then finds nothing pending and seals nothing.
	if _, err := rm.onTally(tally("b", 1)); err != nil {
		t.Fatal(err)
	}
	if got := mgr.Stats().Epochs; got != 2 {
		t.Fatalf("complete barrier sealed %d epochs", got)
	}
	if err := rm.seal(1); err != nil {
		t.Fatal(err)
	}
	if got := mgr.Stats().Epochs; got != 2 {
		t.Fatalf("stale timer force after a complete seal: %d epochs", got)
	}
	// After something sealed, an idle forced seal serves the estimate.
	est, err := rm.forceSeal()
	if err != nil || est == nil || est.Seq != 1 {
		t.Fatalf("idle force seal: est=%+v err=%v", est, err)
	}
}

// TestRootSealEndpointEmptyBarrier: POST /v1/seal on a root with an
// empty barrier answers 409 — an ordinary condition, not the fail-stop
// kind of seal failure — and the server keeps merging afterwards.
func TestRootSealEndpointEmptyBarrier(t *testing.T) {
	proto, err := ldp.NewGRR(8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rootSrv, rootHS := testServer(t, streamServerConfig{
		Stream:    stream.Config{Params: proto.Params(), TargetK: -1},
		QueueLen:  4,
		Ingesters: 1,
		MaxBody:   1 << 20,
		Role:      roleRoot,
		Nodes:     []string{"fe-0"},
	})
	resp, err := http.Post(rootHS.URL+"/v1/seal", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("empty-barrier seal status %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
	select {
	case err := <-rootSrv.fatalc:
		t.Fatalf("empty-barrier seal was treated as fatal: %v", err)
	default:
	}
	// The root still merges and seals normally.
	tl := &ldp.Tally{NodeID: "fe-0", Epoch: 0, Counts: make([]int64, 8), Total: 3}
	frame, err := ldp.MarshalTally(tl)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(rootHS.URL+"/v1/tally", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if tr := decodeJSON[tallyResponse](t, resp); tr.SealedThrough != 1 {
		t.Fatalf("tally after refused seal: %+v", tr)
	}
}

// TestTallyPusherQueueBound: during a root outage the pending queue
// evicts its oldest tallies past the retention bound instead of
// growing without limit, and counts what it dropped.
func TestTallyPusherQueueBound(t *testing.T) {
	p := newTallyPusher("fe-0", []string{"http://127.0.0.1:1"}, time.Hour, 3) // unreachable root
	p.flushTimeout = 50 * time.Millisecond
	defer func() {
		// close() reports the undelivered tail; that is the point here.
		if err := p.close(); err == nil {
			t.Error("close with undelivered tallies reported no error")
		}
	}()
	for e := 0; e < 5; e++ {
		p.enqueue(stream.Epoch{Seq: e, Counts: make([]int64, 4), Total: 1})
	}
	if got := p.pendingCount(); got != 3 {
		t.Fatalf("pending %d tallies, bound is 3", got)
	}
	if got := p.droppedCount(); got != 2 {
		t.Fatalf("dropped %d tallies, want 2", got)
	}
	p.mu.Lock()
	oldest := p.pending[0].Seq
	p.mu.Unlock()
	if oldest != 2 {
		t.Fatalf("eviction kept epoch %d as oldest, want 2 (newest retained)", oldest)
	}
}

// TestFrontendRejoinsSharedClock: a frontend that fell behind the
// root's barrier (its epochs force-sealed partial while it was down)
// fast-forwards to the root's watermark at its next seal, so its
// tallies merge again instead of being deduped as stale forever.
func TestFrontendRejoinsSharedClock(t *testing.T) {
	proto, err := ldp.NewGRR(8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	streamCfg := stream.Config{Params: proto.Params(), TargetK: -1, History: 8}
	rootSrv, rootHS := testServer(t, streamServerConfig{
		Stream:    streamCfg,
		QueueLen:  4,
		Ingesters: 1,
		MaxBody:   1 << 20,
		Role:      roleRoot,
		Nodes:     []string{"fe-0", "ghost"},
	})
	feSrv, _ := testServer(t, streamServerConfig{
		Stream:       streamCfg,
		QueueLen:     4,
		Ingesters:    1,
		MaxBody:      1 << 20,
		Role:         roleFrontend,
		NodeID:       "fe-0",
		RootAddr:     rootHS.URL,
		PushInterval: 10 * time.Millisecond,
	})
	pushGhost := func(epoch int) {
		t.Helper()
		frame, err := ldp.MarshalTally(&ldp.Tally{
			NodeID: "ghost", Epoch: epoch, Counts: make([]int64, 8), Total: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(rootHS.URL+"/v1/tally", "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// Epoch 0 completes normally: both nodes deliver.
	if _, err := feSrv.seal(); err != nil {
		t.Fatal(err)
	}
	pushGhost(0)
	waitForRootEpochs(t, rootSrv, 1)

	// fe-0 "goes dark" while the root force-seals epochs 1..3 partial
	// (driven here through the forced-seal path the straggler timer
	// uses, after ghost's tallies arrive).
	for e := 1; e <= 3; e++ {
		pushGhost(e)
		if err := rootSrv.root.seal(rootSrv.root.merger.SealedThrough()); err != nil {
			t.Fatal(err)
		}
	}
	waitForRootEpochs(t, rootSrv, 4)

	// fe-0's counter is at 1 — three epochs behind. Its next seal is
	// sacrificed as stale (epoch 1), but the dedupe answer teaches the
	// pusher the watermark, and the seal after that rejoins at 4+.
	if _, err := feSrv.seal(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for feSrv.pusher.rootWatermark() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("pusher never learned the watermark (at %d)", feSrv.pusher.rootWatermark())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := feSrv.seal(); err != nil {
		t.Fatal(err)
	}
	pushGhost(4)
	waitForRootEpochs(t, rootSrv, 5)
	st := getStats(t, rootHS.URL)
	last := st.Cluster.Merged[len(st.Cluster.Merged)-1]
	if last.Epoch != 4 || !reflect.DeepEqual(last.Nodes, []string{"fe-0", "ghost"}) {
		t.Fatalf("rejoined epoch accounting: %+v", last)
	}
}
