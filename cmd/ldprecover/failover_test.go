package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"ldprecover/internal/attack"
	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
	"ldprecover/internal/stream"
)

// TestTallyPusherShutdownBounded: the shutdown flush is bounded and
// interruptible. Against a root that accepts connections but never
// answers, close() must abort the in-flight push and return within the
// flush budget — not sit out the client timeout or sleep through the
// stop signal (the old shutdown path slept unconditionally between
// flush attempts).
func TestTallyPusherShutdownBounded(t *testing.T) {
	release := make(chan struct{})
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Hold every request until the test lets go — the pusher's
		// clients must abandon these on their own.
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer hang.Close()
	defer close(release) // deferred LIFO: unblock handlers, then Close
	p := newTallyPusher("fe-0", []string{hang.URL}, 10*time.Millisecond, 0)
	p.flushTimeout = 150 * time.Millisecond
	p.enqueue(stream.Epoch{Seq: 0, Counts: make([]int64, 4), Total: 1})
	time.Sleep(50 * time.Millisecond) // let the loop start a push that will hang
	start := time.Now()
	err := p.close()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("close took %s against a hanging root; the flush bound is %s", elapsed, p.flushTimeout)
	}
	if err == nil {
		t.Fatal("close delivered nothing yet reported no undelivered tallies")
	}
}

// TestRequestBodyCaps: every ingest endpoint bounds its request body
// with the -max-body cap and answers 413, so an oversized (or endless)
// body cannot balloon server memory.
func TestRequestBodyCaps(t *testing.T) {
	proto, err := ldp.NewGRR(8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{0xee}, 200) // over the 64-byte cap below
	post := func(url string) int {
		t.Helper()
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	_, plainHS := testServer(t, streamServerConfig{
		Stream:    stream.Config{Params: proto.Params()},
		QueueLen:  4,
		Ingesters: 1,
		MaxBody:   64,
	})
	if code := post(plainHS.URL + "/v1/reports"); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized report batch: status %d, want 413", code)
	}

	_, rootHS := testServer(t, streamServerConfig{
		Stream:    stream.Config{Params: proto.Params(), TargetK: -1},
		QueueLen:  4,
		Ingesters: 1,
		MaxBody:   64,
		Role:      roleRoot,
		Nodes:     []string{"fe-0"},
	})
	if code := post(rootHS.URL + "/v1/tally"); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized tally: status %d, want 413", code)
	}
	if code := post(rootHS.URL + "/v1/membership"); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized announce: status %d, want 413", code)
	}
}

// announceHTTP posts one membership announcement and returns the raw
// response.
func announceHTTP(t *testing.T, url string, a *ldp.Announce) *http.Response {
	t.Helper()
	frame, err := ldp.MarshalAnnounce(a)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/membership", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestMembershipEndpointHTTP: the join/leave endpoint's status-code
// contract — 200 with the effective boundary, 400 for garbage frames,
// 409 for membership conflicts, 404 off-role, 503 on an unpromoted
// standby.
func TestMembershipEndpointHTTP(t *testing.T) {
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
	resp, err := http.Post(rootHS.URL+"/v1/membership", "application/octet-stream", bytes.NewReader([]byte("junk")))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage announce: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// A stranger cannot leave; the last member cannot leave either.
	resp = announceHTTP(t, rootHS.URL, &ldp.Announce{NodeID: "ghost", Kind: ldp.AnnounceLeave})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stranger leave: status %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
	resp = announceHTTP(t, rootHS.URL, &ldp.Announce{NodeID: "fe-0", Kind: ldp.AnnounceLeave})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("last-member leave: status %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	// A join answers the assigned boundary; the barrier expects the node.
	resp = announceHTTP(t, rootHS.URL, &ldp.Announce{NodeID: "fe-1", Kind: ldp.AnnounceJoin})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("join: status %d: %s", resp.StatusCode, body)
	}
	ar := decodeJSON[announceResponse](t, resp)
	if ar.Effective != 0 {
		t.Fatalf("join on a virgin root effective at %d, want 0", ar.Effective)
	}
	if got := rootSrv.root.merger.Nodes(); !reflect.DeepEqual(got, []string{"fe-0", "fe-1"}) {
		t.Fatalf("membership after join: %v", got)
	}

	// A single node has no membership to change.
	_, plainHS := testServer(t, streamServerConfig{
		Stream:    stream.Config{Params: proto.Params()},
		QueueLen:  4,
		Ingesters: 1,
		MaxBody:   1 << 20,
	})
	resp = announceHTTP(t, plainHS.URL, &ldp.Announce{NodeID: "x", Kind: ldp.AnnounceJoin})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("announce on a single node: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	// An unpromoted standby redirects writes back to the root with 503.
	sbSrv, sbHS := testServer(t, streamServerConfig{
		Stream:       stream.Config{Params: proto.Params(), TargetK: -1},
		QueueLen:     4,
		Ingesters:    1,
		MaxBody:      1 << 20,
		Role:         roleStandby,
		DataDir:      t.TempDir(),
		RootAddr:     "http://127.0.0.1:1",
		PromoteAfter: time.Hour, // never promotes during this test
	})
	defer sbSrv.close()
	resp = announceHTTP(t, sbHS.URL, &ldp.Announce{NodeID: "x", Kind: ldp.AnnounceJoin})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("announce on an unpromoted standby: status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	sealResp, err := http.Post(sbHS.URL+"/v1/seal", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if sealResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("seal on an unpromoted standby: status %d, want 503", sealResp.StatusCode)
	}
	sealResp.Body.Close()
}

// waitForEpochs blocks until watermark() reports n sealed epochs. It
// reads the barrier's durable watermark, not its manager's epoch count:
// the manager seals before the snapshot lands, and a root killed in
// between comes back at the snapshot's watermark.
func waitForEpochs(t *testing.T, what string, watermark func() int, n int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if watermark() >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s stalled at %d/%d persisted merged epochs", what, watermark(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClusterElasticFailoverE2E is the headline elasticity guarantee: a
// cluster that lives through a frontend join, a frontend leave, and a
// root kill with standby promotion must produce per-epoch window
// estimates, an LDPRecover* engagement epoch, and a final target set
// bit-identical to an uninterrupted single-node pipeline fed the union
// of the same reports.
func TestClusterElasticFailoverE2E(t *testing.T) {
	const (
		d, eps   = 32, 0.6
		epochs   = 8
		attackAt = 4 // first attacked epoch
		joinAt   = 3 // fe-2's first contributed epoch
		leaveAt  = 5 // fe-1's first absent epoch
		killAt   = 7 // first epoch merged by the promoted standby
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

	// The root and standby share a data directory (in production: shared
	// or replicated storage). promote-after is both the failover
	// threshold and the lease staleness bound.
	rootDir := t.TempDir()
	const promoteAfter = 300 * time.Millisecond
	rootSrv, rootHS := testServer(t, streamServerConfig{
		Stream:       streamCfg,
		QueueLen:     4,
		Ingesters:    1,
		MaxBody:      8 << 20,
		Role:         roleRoot,
		Nodes:        []string{"fe-0", "fe-1"},
		DataDir:      rootDir,
		PromoteAfter: promoteAfter,
	})
	sbSrv, sbHS := testServer(t, streamServerConfig{
		Stream:       streamCfg,
		QueueLen:     4,
		Ingesters:    1,
		MaxBody:      8 << 20,
		Role:         roleStandby,
		DataDir:      rootDir,
		RootAddr:     rootHS.URL,
		PromoteAfter: promoteAfter,
		StandbyPoll:  15 * time.Millisecond,
	})
	defer sbSrv.close()

	// Frontends know both delivery targets; fe-2 is started mid-run via
	// the join announcement.
	feSrv := make(map[string]*streamServer)
	feHS := make(map[string]*httptest.Server)
	startFrontend := func(node string, join bool) {
		t.Helper()
		srv, hs := testServer(t, streamServerConfig{
			Stream:       streamCfg,
			QueueLen:     64,
			Ingesters:    2,
			MaxBody:      8 << 20,
			Role:         roleFrontend,
			NodeID:       node,
			RootAddr:     rootHS.URL,
			StandbyAddr:  sbHS.URL,
			PushInterval: 20 * time.Millisecond,
			Join:         join,
			JoinTimeout:  5 * time.Second,
		})
		feSrv[node], feHS[node] = srv, hs
	}
	startFrontend("fe-0", false)
	startFrontend("fe-1", false)

	// Deterministic population, partitioned round-robin across whichever
	// frontends are members of each epoch.
	r := rng.New(29)
	mga, err := attack.NewMGA([]int{3, 11})
	if err != nil {
		t.Fatal(err)
	}
	trueCounts := make([]int64, d)
	for v := range trueCounts {
		trueCounts[v] = int64(30 + 2*v)
	}

	members := []string{"fe-0", "fe-1"}
	activeURL := func() string { return rootHS.URL }
	rootWatermark := rootSrv.root.watermark
	engagedRef, engagedCluster := -1, -1
	for e := 0; e < epochs; e++ {
		switch e {
		case joinAt:
			// fe-2 joins a running cluster: the boot-time announcement
			// assigns its first epoch and aligns its clock in one round
			// trip; no node stops, no epoch is skipped.
			startFrontend("fe-2", true)
			if got := feSrv["fe-2"].mgr.Stats().Epochs; got != joinAt {
				t.Fatalf("joiner's clock aligned to %d, want the assigned boundary %d", got, joinAt)
			}
			if got := len(feSrv["fe-2"].mgr.Epochs()); got != 0 {
				t.Fatalf("joiner retained %d sealed epochs before contributing", got)
			}
			members = []string{"fe-0", "fe-1", "fe-2"}
			if got := rootSrv.root.merger.Nodes(); !reflect.DeepEqual(got, members) {
				t.Fatalf("membership after join: %v, want %v", got, members)
			}
		case leaveAt:
			// fe-1 leaves cleanly at the epoch boundary: final flush,
			// then the leave announcement retires it from the barrier —
			// no straggler timeout needed.
			feHS["fe-1"].Close()
			feSrv["fe-1"].leaveOnShutdown = true
			if err := feSrv["fe-1"].close(); err != nil {
				t.Fatalf("fe-1 leave shutdown: %v", err)
			}
			members = []string{"fe-0", "fe-2"}
			if got := rootSrv.root.merger.Nodes(); !reflect.DeepEqual(got, members) {
				t.Fatalf("membership after leave: %v, want %v", got, members)
			}
		case killAt:
			// The root dies without releasing its lease (a crash, not a
			// shutdown): listener gone, heartbeat stopped. The standby
			// must see it unreachable past promote-after, wait out the
			// lease staleness, and take over at the persisted watermark.
			rootHS.Close()
			close(rootSrv.root.leaseStop)
			rootSrv.root.leaseWG.Wait()
			rootSrv.root.leaseStop = nil
			deadline := time.Now().Add(15 * time.Second)
			for sbSrv.standby.root.Load() == nil {
				if time.Now().After(deadline) {
					t.Fatal("standby never promoted")
				}
				time.Sleep(5 * time.Millisecond)
			}
			promoted := sbSrv.standby.root.Load()
			if got := promoted.merger.SealedThrough(); got != killAt {
				t.Fatalf("promoted standby resumed at watermark %d, want %d", got, killAt)
			}
			if got := promoted.merger.Nodes(); !reflect.DeepEqual(got, members) {
				t.Fatalf("promoted membership: %v, want %v", got, members)
			}
			// The warm state serves immediately: the last merged estimate
			// survives the failover bit-identical.
			if got, want := getEstimate(t, sbHS.URL), canonicalEstimate(t, estimateResponse(*ref.Latest())); !reflect.DeepEqual(got, want) {
				t.Fatalf("promoted standby's warm estimate diverged\ngot  %+v\nwant %+v", got, want)
			}
			// Dedupe is idempotent across the promotion: re-sending every
			// retained sealed epoch from a frontend's ring changes nothing.
			for _, ep := range feSrv["fe-0"].mgr.Epochs() {
				frame, err := ldp.MarshalTally(&ldp.Tally{
					NodeID: "fe-0", Epoch: ep.Seq, Counts: ep.Counts, Total: ep.Total,
				})
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.Post(sbHS.URL+"/v1/tally", "application/octet-stream", bytes.NewReader(frame))
				if err != nil {
					t.Fatal(err)
				}
				if tr := decodeJSON[tallyResponse](t, resp); !tr.Duplicate {
					t.Fatalf("epoch %d re-send after promotion not deduped: %+v", ep.Seq, tr)
				}
			}
			if got, want := getEstimate(t, sbHS.URL), canonicalEstimate(t, estimateResponse(*ref.Latest())); !reflect.DeepEqual(got, want) {
				t.Fatalf("post-promotion re-sends changed the estimate\ngot  %+v\nwant %+v", got, want)
			}
			activeURL = func() string { return sbHS.URL }
			rootWatermark = promoted.watermark
		}

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
		// Partition the union round-robin across this epoch's members and
		// wait until every member folded its share before the clock ticks
		// (ingest is async behind the queue; waitForIngest tracks the
		// cumulative per-node total).
		parts := make(map[string][]ldp.Report)
		for i, rep := range union {
			node := members[i%len(members)]
			parts[node] = append(parts[node], rep)
		}
		for _, node := range members {
			before := feSrv[node].mgr.Stats().IngestedTotal
			postAll(t, feHS[node].URL, parts[node])
			waitForIngest(t, feSrv[node], before+int64(len(parts[node])))
		}
		// The shared epoch clock ticks; the barrier completes and seals.
		for _, node := range members {
			sealFrontend(t, feHS[node].URL)
		}
		waitForEpochs(t, "cluster", rootWatermark, e+1)

		// Reference pipeline over the union.
		if err := ref.AddBatch(union); err != nil {
			t.Fatal(err)
		}
		want, err := ref.Seal()
		if err != nil {
			t.Fatal(err)
		}
		got := getEstimate(t, activeURL())
		wantResp := canonicalEstimate(t, estimateResponse(*want))
		if !reflect.DeepEqual(got, wantResp) {
			t.Fatalf("epoch %d: cluster estimate diverged from single node\ngot  %+v\nwant %+v", e, got, wantResp)
		}
		if want.PartialKnowledge && engagedRef < 0 {
			engagedRef = e
		}
		if got.PartialKnowledge && engagedCluster < 0 {
			engagedCluster = e
		}
	}

	if engagedRef < 0 {
		t.Fatal("single-node pipeline never engaged LDPRecover*; the scenario is vacuous")
	}
	if engagedCluster != engagedRef {
		t.Fatalf("engagement epochs diverged: cluster %d, single node %d", engagedCluster, engagedRef)
	}
	final := getEstimate(t, activeURL())
	if !final.PartialKnowledge || len(final.Targets) == 0 {
		t.Fatalf("final estimate lost the stable target set: %+v", final)
	}
	st := getStats(t, sbHS.URL)
	if st.Cluster == nil || st.Cluster.Role != "standby" || !st.Cluster.Promoted {
		t.Fatalf("promoted standby stats: %+v", st.Cluster)
	}
	if st.Cluster.SealedThrough != epochs {
		t.Fatalf("promoted standby sealed through %d, want %d", st.Cluster.SealedThrough, epochs)
	}
	if fo := feSrv["fe-0"].pusher.failoverCount(); fo == 0 {
		t.Fatal("fe-0's pusher never failed over despite the root kill")
	}
}

// TestServeRootJoinSurvivesRestart: a durable root acks a join on POST
// /v1/membership between seals and dies before its next seal. Restarted
// over its directory with its boot-time -nodes it still expects the
// joiner at the acked boundary, and so does a standby promoting over the
// same directory: the ack waited for the snapshot rewrite.
func TestServeRootJoinSurvivesRestart(t *testing.T) {
	const d = 8
	proto, err := ldp.NewGRR(d, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rootCfg := streamServerConfig{
		Stream:       stream.Config{Params: proto.Params(), TargetK: -1},
		QueueLen:     4,
		Ingesters:    1,
		MaxBody:      1 << 20,
		Role:         roleRoot,
		Nodes:        []string{"fe-0", "fe-1"},
		DataDir:      t.TempDir(),
		PromoteAfter: 200 * time.Millisecond,
	}
	postTally := func(url, node string, epoch int) tallyResponse {
		t.Helper()
		tl := &ldp.Tally{NodeID: node, Epoch: epoch, Counts: make([]int64, d), Total: 3}
		tl.Counts[epoch%d] = 3
		frame, err := ldp.MarshalTally(tl)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url+"/v1/tally", "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("tally %s/%d: status %d: %s", node, epoch, resp.StatusCode, body)
		}
		return decodeJSON[tallyResponse](t, resp)
	}

	rootSrv, rootHS := testServer(t, rootCfg)
	postTally(rootHS.URL, "fe-0", 0)
	if tr := postTally(rootHS.URL, "fe-1", 0); tr.SealedThrough != 1 {
		t.Fatalf("epoch 0 did not seal: %+v", tr)
	}
	// fe-0's epoch-1 tally waits at the barrier, so fe-2's join lands at
	// the boundary after it and stays a scheduled change.
	postTally(rootHS.URL, "fe-0", 1)
	resp := announceHTTP(t, rootHS.URL, &ldp.Announce{NodeID: "fe-2", Kind: ldp.AnnounceJoin})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("join: status %d: %s", resp.StatusCode, body)
	}
	if ar := decodeJSON[announceResponse](t, resp); ar.Effective != 2 {
		t.Fatalf("join effective at %d, want 2", ar.Effective)
	}
	// The root dies before its next seal: listener gone, heartbeat
	// stopped, lease not released, nothing flushed.
	rootHS.Close()
	close(rootSrv.root.leaseStop)
	rootSrv.root.leaseWG.Wait()
	rootSrv.root.leaseStop = nil

	wantSched := []stream.MemberChange{{Epoch: 2, Node: "fe-2", Join: true}}
	checkBarrier := func(who string, rm *rootMerge) {
		t.Helper()
		st := rm.merger.SnapshotState()
		if rm.merger.SealedThrough() != 1 || !reflect.DeepEqual(st.Members, []string{"fe-0", "fe-1"}) || !reflect.DeepEqual(st.Sched, wantSched) {
			t.Fatalf("%s: watermark %d, members %v, schedule %+v; want 1, [fe-0 fe-1], %+v",
				who, rm.merger.SealedThrough(), st.Members, st.Sched, wantSched)
		}
	}
	restarted, _ := testServer(t, rootCfg)
	checkBarrier("restarted root", restarted.root)
	if err := restarted.close(); err != nil {
		t.Fatal(err)
	}

	// A standby over the same directory, whose fallback must lose to the
	// snapshot's membership.
	sbCfg := rootCfg
	sbCfg.Role, sbCfg.Nodes = roleStandby, []string{"fe-0"}
	sbCfg.RootAddr, sbCfg.StandbyPoll = "http://127.0.0.1:1", 15*time.Millisecond
	sbSrv, sbHS := testServer(t, sbCfg)
	defer sbSrv.close()
	deadline := time.Now().Add(15 * time.Second)
	for sbSrv.standby.root.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatal("standby never promoted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	promoted := sbSrv.standby.root.Load()
	checkBarrier("promoted standby", promoted)
	// The frontends re-send epoch 1; sealing it brings fe-2 in.
	postTally(sbHS.URL, "fe-0", 1)
	if tr := postTally(sbHS.URL, "fe-1", 1); tr.SealedThrough != 2 {
		t.Fatalf("epoch 1 did not seal on the promoted standby: %+v", tr)
	}
	if got := promoted.merger.Nodes(); !reflect.DeepEqual(got, []string{"fe-0", "fe-1", "fe-2"}) {
		t.Fatalf("members after the join boundary: %v", got)
	}
}
