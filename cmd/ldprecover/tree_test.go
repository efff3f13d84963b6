package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ldprecover/internal/attack"
	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
	"ldprecover/internal/stream"
)

// restartableServer wraps a streamServer behind a stable URL so a test
// can "crash" and restart it without the URL its peers hold changing —
// the process-restart situation, where the address survives the
// process. While down (no current server) every request answers 503,
// exactly like a listener that stopped accepting.
type restartableServer struct {
	cur atomic.Pointer[streamServer]
	hs  *httptest.Server
}

func newRestartableServer(t *testing.T, srv *streamServer) *restartableServer {
	t.Helper()
	rs := &restartableServer{}
	rs.cur.Store(srv)
	rs.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := rs.cur.Load()
		if s == nil {
			httpError(w, http.StatusServiceUnavailable, "node is down")
			return
		}
		s.handler().ServeHTTP(w, r)
	}))
	t.Cleanup(rs.hs.Close)
	return rs
}

// waitForMergerPending blocks until the merger's current barrier has
// accepted tallies from exactly the given nodes.
func waitForMergerPending(t *testing.T, srv *streamServer, nodes []string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		pending := srv.root.merger.PendingNodes()
		got := 0
		for _, n := range nodes {
			if pending[n] {
				got++
			}
		}
		if got == len(nodes) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("merger barrier never saw %v (pending: %v)", nodes, pending)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTreeEquivalenceE2E is the headline tree guarantee: a two-level
// aggregation tree — a root over two mergers, each merging three
// frontends — must produce per-epoch window estimates, an LDPRecover*
// engagement epoch, and a stable target set bit-identical to the
// single-node pipeline fed the union of the same reports. Mid-run the
// durable merger is killed after two of its children delivered (losing
// its in-memory barrier) and restarted from its data directory: the
// children's at-least-once re-push rebuilds the barrier, the restored
// ring re-sends upward, and the root dedupes — nothing diverges. An
// explicitly re-sent merged tally must likewise dedupe to a no-op.
func TestTreeEquivalenceE2E(t *testing.T) {
	const (
		d, eps    = 32, 0.6
		nMergers  = 2
		nPerM     = 3
		epochs    = 8
		attackAt  = 4 // first attacked epoch; also when the merger dies
		nFrontend = nMergers * nPerM
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

	// Level 0: the root, merging the two mergers.
	mergerIDs := []string{"m-0", "m-1"}
	rootSrv, rootHS := testServer(t, streamServerConfig{
		Stream:    streamCfg,
		QueueLen:  4,
		Ingesters: 1,
		MaxBody:   8 << 20,
		Role:      roleRoot,
		Nodes:     mergerIDs,
	})

	// Level 1: the mergers. m-0 is durable — it is the one that dies and
	// restarts; m-1 stays in memory.
	childIDs := make([][]string, nMergers)
	for m := range childIDs {
		childIDs[m] = make([]string, nPerM)
		for i := range childIDs[m] {
			childIDs[m][i] = fmt.Sprintf("fe-%d%d", m, i)
		}
	}
	m0Dir := filepath.Join(t.TempDir(), "m0")
	mergerCfg := func(m int) streamServerConfig {
		cfg := streamServerConfig{
			Stream:       streamCfg,
			QueueLen:     4,
			Ingesters:    1,
			MaxBody:      8 << 20,
			Role:         roleMerger,
			NodeID:       mergerIDs[m],
			RootAddr:     rootHS.URL,
			Nodes:        childIDs[m],
			PushInterval: 20 * time.Millisecond,
		}
		if m == 0 {
			cfg.DataDir = m0Dir
		}
		return cfg
	}
	mSrv := make([]*streamServer, nMergers)
	mRS := make([]*restartableServer, nMergers)
	for m := range mSrv {
		srv, err := newStreamServer(mergerCfg(m))
		if err != nil {
			t.Fatal(err)
		}
		mSrv[m] = srv
		mRS[m] = newRestartableServer(t, srv)
	}
	t.Cleanup(func() {
		for _, srv := range mSrv {
			if srv != nil {
				srv.drain()
				srv.close()
			}
		}
	})

	// Level 2: in-memory frontends, three per merger.
	feSrv := make([]*streamServer, nFrontend)
	feHS := make([]*httptest.Server, nFrontend)
	for m := 0; m < nMergers; m++ {
		for i := 0; i < nPerM; i++ {
			feSrv[m*nPerM+i], feHS[m*nPerM+i] = testServer(t, streamServerConfig{
				Stream:       streamCfg,
				QueueLen:     64,
				Ingesters:    2,
				MaxBody:      8 << 20,
				Role:         roleFrontend,
				NodeID:       childIDs[m][i],
				RootAddr:     mRS[m].hs.URL,
				PushInterval: 20 * time.Millisecond,
			})
		}
	}

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
	ingested := make([]int64, nFrontend)
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
		parts := make([][]ldp.Report, nFrontend)
		for i, rep := range union {
			parts[i%nFrontend] = append(parts[i%nFrontend], rep)
		}
		for i := range parts {
			postAll(t, feHS[i].URL, parts[i])
			ingested[i] += int64(len(parts[i]))
			waitForIngest(t, feSrv[i], ingested[i])
		}

		if e == attackAt {
			// Two of m-0's children seal and deliver; then m-0 "dies" —
			// its in-memory barrier (two accepted, unsealed tallies) is
			// gone — and a fresh process resumes from the same data dir
			// behind the same URL. The children's pushers still hold those
			// tallies (the watermark never covered them), so their re-push
			// rebuilds the barrier; the restored ring re-sends upward and
			// the root dedupes it.
			sealFrontend(t, feHS[0].URL)
			sealFrontend(t, feHS[1].URL)
			waitForMergerPending(t, mSrv[0], childIDs[0][:2])
			mRS[0].cur.Store(nil)
			if err := mSrv[0].close(); err != nil {
				t.Fatalf("merger close before crash: %v", err)
			}
			srv, err := newStreamServer(mergerCfg(0))
			if err != nil {
				t.Fatal(err)
			}
			mSrv[0] = srv
			if got := srv.root.merger.SealedThrough(); got != e {
				t.Fatalf("restarted merger resumed at watermark %d, want %d", got, e)
			}
			mRS[0].cur.Store(srv)
			sealFrontend(t, feHS[2].URL)
			for i := nPerM; i < nFrontend; i++ {
				sealFrontend(t, feHS[i].URL)
			}
		} else {
			// The shared epoch clock ticks: every frontend seals epoch e;
			// each merger's barrier completes and seals; each merged tally
			// propagates; the root's barrier completes and seals.
			for i := range feHS {
				sealFrontend(t, feHS[i].URL)
			}
		}
		waitForRootEpochs(t, rootSrv, e+1)

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
			t.Fatalf("epoch %d: tree estimate diverged from single node\ngot  %+v\nwant %+v", e, got, wantResp)
		}
		if want.PartialKnowledge && engagedRef < 0 {
			engagedRef = e
		}
		if got.PartialKnowledge && engagedRoot < 0 {
			engagedRoot = e
		}

		if e == attackAt+1 {
			// Re-send m-1's oldest merged tally verbatim: the root must
			// dedupe it and nothing may move.
			before := getEstimate(t, rootHS.URL)
			epochsBefore := rootSrv.mgr.Stats().Epochs
			mEpochs := mSrv[1].mgr.Epochs()
			dup := &ldp.Tally{
				NodeID: mergerIDs[1], Epoch: mEpochs[0].Seq,
				Counts: mEpochs[0].Counts, Total: mEpochs[0].Total,
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
				t.Fatalf("re-sent merged tally not deduped: %+v", tr)
			}
			if after := getEstimate(t, rootHS.URL); !reflect.DeepEqual(after, before) {
				t.Fatal("duplicate merged tally changed the served estimate")
			}
			if rootSrv.mgr.Stats().Epochs != epochsBefore {
				t.Fatal("duplicate merged tally sealed an epoch")
			}
		}
	}

	if engagedRef < 0 {
		t.Fatal("single-node pipeline never engaged LDPRecover*; the scenario is vacuous")
	}
	if engagedRoot != engagedRef {
		t.Fatalf("engagement epochs diverged: tree %d, single node %d", engagedRoot, engagedRef)
	}
	final := getEstimate(t, rootHS.URL)
	if !final.PartialKnowledge || len(final.Targets) == 0 {
		t.Fatalf("tree final estimate lost the stable target set: %+v", final)
	}

	// Accounting: the root merged both mergers every epoch, observed the
	// ring re-send's duplicates, and each level reports its own role.
	st := getStats(t, rootHS.URL)
	if st.Cluster == nil || st.Cluster.Role != "root" {
		t.Fatalf("root stats missing cluster section: %+v", st)
	}
	if st.Cluster.SealedThrough != epochs {
		t.Fatalf("root sealed through %d, want %d", st.Cluster.SealedThrough, epochs)
	}
	for _, m := range st.Cluster.Merged {
		if len(m.Missing) != 0 || !reflect.DeepEqual(m.Nodes, mergerIDs) {
			t.Fatalf("merged epoch %d incomplete: %+v", m.Epoch, m)
		}
		var sum int64
		for _, tot := range m.NodeTotals {
			sum += tot
		}
		if sum != m.Total {
			t.Fatalf("merged epoch %d node totals sum to %d, epoch total %d", m.Epoch, sum, m.Total)
		}
	}
	if st.Cluster.Duplicates == 0 {
		t.Fatal("root observed no duplicates despite the restart ring re-send")
	}
	mst := getStats(t, mRS[0].hs.URL)
	if mst.Cluster == nil || mst.Cluster.Role != "merger" {
		t.Fatalf("merger stats missing merger section: %+v", mst)
	}
	if mst.Cluster.NodeID != "m-0" || mst.Cluster.SealedThrough != epochs {
		t.Fatalf("merger section: %+v", mst.Cluster)
	}
	if !reflect.DeepEqual(mst.Cluster.Nodes, childIDs[0]) {
		t.Fatalf("merger barrier set: %+v", mst.Cluster.Nodes)
	}
}

// TestMergerStragglerAndMembership exercises the straggler and
// join/leave paths at an intermediate tree level: a merger whose child
// goes dark force-seals a partial epoch, and that partial's accounting
// propagates upward as an ordinary merged tally — the root's barrier
// completes with it, so a slow leaf slows nothing above one straggler
// timeout. Membership changes at the merger level (a child joining, a
// child leaving) likewise stay local to that merger's barrier.
func TestMergerStragglerAndMembership(t *testing.T) {
	proto, err := ldp.NewGRR(16, 0.5)
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
		Nodes:     []string{"m-0"},
	})
	mSrv, mHS := testServer(t, streamServerConfig{
		Stream:       streamCfg,
		QueueLen:     4,
		Ingesters:    1,
		MaxBody:      1 << 20,
		Role:         roleMerger,
		NodeID:       "m-0",
		RootAddr:     rootHS.URL,
		Nodes:        []string{"a", "b"},
		TallyTimeout: 50 * time.Millisecond,
		PushInterval: 10 * time.Millisecond,
	})
	push := func(url, node string, epoch int, val int64) tallyResponse {
		t.Helper()
		tl := &ldp.Tally{NodeID: node, Epoch: epoch, Counts: make([]int64, 16), Total: val}
		tl.Counts[2] = val
		frame, err := ldp.MarshalTally(tl)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url+"/v1/tally", "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tally status %d", resp.StatusCode)
		}
		return decodeJSON[tallyResponse](t, resp)
	}
	announce := func(kind ldp.AnnounceKind, node string, epoch int) announceResponse {
		t.Helper()
		frame, err := ldp.MarshalAnnounce(&ldp.Announce{NodeID: node, Kind: kind, Epoch: epoch})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(mHS.URL+"/v1/membership", "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("announce status %d", resp.StatusCode)
		}
		return decodeJSON[announceResponse](t, resp)
	}

	// Epoch 0: "b" goes dark. The merger's straggler timer force-seals
	// the partial epoch, which must reach the root as a merged tally.
	push(mHS.URL, "a", 0, 40)
	waitForRootEpochs(t, rootSrv, 1)
	mst := getStats(t, mHS.URL)
	if len(mst.Cluster.Merged) != 1 {
		t.Fatalf("merger merged epochs: %+v", mst.Cluster)
	}
	if m := mst.Cluster.Merged[0]; !reflect.DeepEqual(m.Missing, []string{"b"}) || m.Total != 40 {
		t.Fatalf("merger partial accounting: %+v", m)
	}
	rst := getStats(t, rootHS.URL)
	if len(rst.Cluster.Merged) != 1 {
		t.Fatalf("root merged epochs: %+v", rst.Cluster)
	}
	// The root's barrier is complete — the partial-ness lives in the
	// merger's accounting, the root just sees m-0's (reduced) total.
	if m := rst.Cluster.Merged[0]; len(m.Missing) != 0 || m.Total != 40 || m.NodeTotals["m-0"] != 40 {
		t.Fatalf("root accounting of the propagated partial: %+v", m)
	}

	// A child joins at the merger level, effective next epoch: the
	// barrier now needs a, b, and c.
	if ar := announce(ldp.AnnounceJoin, "c", 0); ar.Effective != 1 {
		t.Fatalf("join effective %d, want 1", ar.Effective)
	}
	push(mHS.URL, "a", 1, 10)
	push(mHS.URL, "b", 1, 20)
	if rootSrv.mgr.Stats().Epochs != 1 {
		t.Fatal("merger sealed epoch 1 without its joined child")
	}
	push(mHS.URL, "c", 1, 30)
	waitForRootEpochs(t, rootSrv, 2)
	rst = getStats(t, rootHS.URL)
	if m := rst.Cluster.Merged[1]; m.Total != 60 {
		t.Fatalf("root epoch 1 after merger-level join: %+v", m)
	}

	// A child leaves from epoch 2: the barrier completes without it.
	if ar := announce(ldp.AnnounceLeave, "b", 2); ar.Effective != 2 {
		t.Fatalf("leave effective %d, want 2", ar.Effective)
	}
	push(mHS.URL, "a", 2, 5)
	push(mHS.URL, "c", 2, 6)
	waitForRootEpochs(t, rootSrv, 3)
	mst = getStats(t, mHS.URL)
	if m := mst.Cluster.Merged[2]; len(m.Missing) != 0 || !reflect.DeepEqual(m.Nodes, []string{"a", "c"}) {
		t.Fatalf("merger epoch 2 after leave: %+v", m)
	}
	rst = getStats(t, rootHS.URL)
	if m := rst.Cluster.Merged[2]; m.Total != 11 {
		t.Fatalf("root epoch 2 after merger-level leave: %+v", m)
	}
	_ = mSrv
}

// TestPusherBackoffJitterDiverges pins the retry schedule's shape: a
// failed pass backs off to somewhere in [interval, 3*prev) capped at
// maxPushBackoff, the draw is deterministic per node id, and two nodes'
// schedules diverge — a root restart must not get every child back in
// lockstep.
func TestPusherBackoffJitterDiverges(t *testing.T) {
	const interval = 100 * time.Millisecond
	mk := func(node string) *tallyPusher {
		p := newTallyPusher(node, []string{"http://127.0.0.1:1"}, interval, 0)
		t.Cleanup(func() { p.close() })
		return p
	}
	schedule := func(p *tallyPusher, n int) []time.Duration {
		out := make([]time.Duration, n)
		prev := p.interval
		for i := range out {
			prev = p.nextBackoff(prev)
			out[i] = prev
		}
		return out
	}
	a, b := mk("fe-0"), mk("fe-1")
	seqA, seqB := schedule(a, 12), schedule(b, 12)
	prev := interval
	for i, d := range seqA {
		lo, hi := interval, 3*prev
		if hi > maxPushBackoff {
			hi = maxPushBackoff + 1
		}
		if d < lo || d >= hi {
			t.Fatalf("step %d: backoff %s outside [%s, %s)", i, d, lo, hi)
		}
		prev = d
	}
	if reflect.DeepEqual(seqA, seqB) {
		t.Fatalf("two nodes drew identical backoff schedules: %v", seqA)
	}
	if again := schedule(mk("fe-0"), 12); !reflect.DeepEqual(seqA, again) {
		t.Fatalf("same node id drew different schedules: %v vs %v", seqA, again)
	}
}

// TestServeMergerFlagValidation: the merger role's flag surface fails
// up front with the offending flag named, like the other roles'.
func TestServeMergerFlagValidation(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		want []string
	}{
		"merger-no-root-addr": {[]string{"-role", "merger"}, []string{"-root-addr"}},
		"merger-no-node-id": {
			[]string{"-role", "merger", "-root-addr", "http://r:1"},
			[]string{"-node-id"}},
		"merger-no-nodes": {
			[]string{"-role", "merger", "-root-addr", "http://r:1", "-node-id", "m-0"},
			[]string{"-nodes"}},
		"merger-bad-root-url": {
			[]string{"-role", "merger", "-root-addr", "r:1:2:3", "-node-id", "m-0", "-nodes", "a,b"},
			[]string{"-root-addr"}},
		"merger-with-targets": {
			[]string{"-role", "merger", "-root-addr", "http://r:1", "-node-id", "m-0", "-nodes", "a", "-targets", "5"},
			[]string{"-targets", "root"}},
		"merger-with-epoch": {
			[]string{"-role", "merger", "-root-addr", "http://r:1", "-node-id", "m-0", "-nodes", "a", "-epoch", "30s"},
			[]string{"-epoch", "-tally-timeout"}},
		"merger-with-join": {
			[]string{"-role", "merger", "-root-addr", "http://r:1", "-node-id", "m-0", "-nodes", "a", "-join"},
			[]string{"-join", "-role=frontend"}},
		"merger-with-promote-after": {
			[]string{"-role", "merger", "-root-addr", "http://r:1", "-node-id", "m-0", "-nodes", "a", "-promote-after", "5s"},
			[]string{"-promote-after", "-role=standby"}},
		"merger-negative-timeout": {
			[]string{"-role", "merger", "-root-addr", "http://r:1", "-node-id", "m-0", "-nodes", "a", "-tally-timeout", "-5s"},
			[]string{"-tally-timeout"}},
		"merger-duplicate-node": {
			[]string{"-role", "merger", "-root-addr", "http://r:1", "-node-id", "m-0", "-nodes", "a,a"},
			[]string{"-nodes"}},
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
