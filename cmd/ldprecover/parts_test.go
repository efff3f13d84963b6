package main

import (
	"bytes"
	"net/http"
	"reflect"
	"testing"
	"time"

	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
	"ldprecover/internal/stream"
)

// TestRolePresetsDerivedPolicies: each -role preset gets exactly its
// parts, and every policy that used to be keyed on the role name follows
// from the parts: detection is off iff the node has an uplink; the epoch
// clock and the drain seal run iff it has neither a barrier nor a
// standby; report batches and partials bounce with 409 iff it has one;
// and /v1/stats names the preset.
func TestRolePresetsDerivedPolicies(t *testing.T) {
	proto, err := ldp.NewGRR(8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := proto.Perturb(rng.New(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	const deadRoot = "http://127.0.0.1:1" // nothing is ever delivered here
	for _, tc := range []struct {
		role  string
		cfg   streamServerConfig
		parts serverParts
	}{
		{"", streamServerConfig{}, serverParts{}},
		{roleFrontend, streamServerConfig{NodeID: "fe-0", RootAddr: deadRoot}, serverParts{uplink: true}},
		{roleRoot, streamServerConfig{Nodes: []string{"fe-0"}}, serverParts{barrier: true}},
		{roleMerger, streamServerConfig{NodeID: "m-0", RootAddr: deadRoot, Nodes: []string{"fe-0"}},
			serverParts{barrier: true, uplink: true}},
		{roleStandby, streamServerConfig{DataDir: t.TempDir(), RootAddr: deadRoot, PromoteAfter: time.Hour},
			serverParts{standby: true}},
	} {
		t.Run("role="+tc.role, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Stream = stream.Config{Params: proto.Params(), TargetK: 2}
			cfg.QueueLen, cfg.Ingesters, cfg.MaxBody = 4, 1, 1<<20
			cfg.Role = tc.role
			srv, hs := testServer(t, cfg)
			if srv.parts != tc.parts {
				t.Fatalf("parts %+v, want %+v", srv.parts, tc.parts)
			}
			if got := (srv.root != nil); got != tc.parts.barrier {
				t.Errorf("barrier part present=%v, want %v", got, tc.parts.barrier)
			}
			if got := (srv.pusher != nil); got != tc.parts.uplink {
				t.Errorf("uplink part present=%v, want %v", got, tc.parts.uplink)
			}
			if got := (srv.standby != nil); got != tc.parts.standby {
				t.Errorf("standby part present=%v, want %v", got, tc.parts.standby)
			}
			if srv.pusher != nil {
				srv.pusher.flushTimeout = 50 * time.Millisecond
			}

			if off := srv.mgr.Config().TargetK < 0; off != tc.parts.uplink {
				t.Errorf("detection off=%v, want %v (iff uplink)", off, tc.parts.uplink)
			}
			mergesOnly := tc.parts.barrier || tc.parts.standby
			if got := srv.parts.closesOnChildren(); got != mergesOnly {
				t.Errorf("closesOnChildren=%v (no ticker, no drain seal, no report WAL), want %v", got, mergesOnly)
			}
			wantIngest := http.StatusAccepted
			if mergesOnly {
				wantIngest = http.StatusConflict
			}
			resp := postBatch(t, hs.URL, []ldp.Report{rep})
			resp.Body.Close()
			if resp.StatusCode != wantIngest {
				t.Errorf("POST /v1/reports: status %d, want %d", resp.StatusCode, wantIngest)
			}
			resp = postPartial(t, hs.URL, 8, 0, []ldp.Report{rep})
			resp.Body.Close()
			if resp.StatusCode != wantIngest {
				t.Errorf("POST /v1/partial: status %d, want %d", resp.StatusCode, wantIngest)
			}

			st := getStats(t, hs.URL)
			switch {
			case tc.role == "" && st.Cluster != nil:
				t.Errorf("single node has a cluster stats section: %+v", st.Cluster)
			case tc.role != "" && (st.Cluster == nil || st.Cluster.Role != tc.role):
				t.Errorf("stats cluster section %+v, want role %q", st.Cluster, tc.role)
			}

			hs.Close()
			final, err := srv.drain()
			if err != nil {
				t.Fatal(err)
			}
			if sealed := final != nil; sealed == mergesOnly {
				t.Errorf("drain sealed=%v, want %v", sealed, !mergesOnly)
			}
			if err := srv.close(); err != nil && !tc.parts.uplink {
				// An uplink's final tally stays undelivered to the dead
				// root; that error is expected.
				t.Fatal(err)
			}
		})
	}
}

// TestClusterStatsFrontendAndStandby pins the /v1/stats cluster section
// of the two node kinds without a barrier of their own: a frontend's
// delivery state, and an unpromoted standby's tail of the root's
// snapshots.
func TestClusterStatsFrontendAndStandby(t *testing.T) {
	proto, err := ldp.NewGRR(8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	streamCfg := stream.Config{Params: proto.Params(), TargetK: -1}
	rootDir := t.TempDir()
	rootSrv, rootHS := testServer(t, streamServerConfig{
		Stream:    streamCfg,
		QueueLen:  4,
		Ingesters: 1,
		MaxBody:   1 << 20,
		Role:      roleRoot,
		Nodes:     []string{"fe-0"},
		DataDir:   rootDir,
	})
	defer rootSrv.close()
	feSrv, feHS := testServer(t, streamServerConfig{
		Stream:       streamCfg,
		QueueLen:     4,
		Ingesters:    1,
		MaxBody:      1 << 20,
		Role:         roleFrontend,
		NodeID:       "fe-0",
		RootAddr:     rootHS.URL,
		PushInterval: 10 * time.Millisecond,
	})
	defer feSrv.close()
	sbSrv, sbHS := testServer(t, streamServerConfig{
		Stream:       streamCfg,
		QueueLen:     4,
		Ingesters:    1,
		MaxBody:      1 << 20,
		Role:         roleStandby,
		DataDir:      rootDir,
		RootAddr:     rootHS.URL,
		PromoteAfter: time.Hour, // never promotes during this test
		StandbyPoll:  10 * time.Millisecond,
	})
	defer sbSrv.close()

	// Two epochs through the frontend; the root seals each on arrival.
	for e := 0; e < 2; e++ {
		sealFrontend(t, feHS.URL)
	}
	deadline := time.Now().Add(10 * time.Second)
	for feSrv.pusher.pendingCount() > 0 || rootSrv.root.watermark() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("frontend never delivered: %d pending, root watermark %d",
				feSrv.pusher.pendingCount(), rootSrv.root.watermark())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got, want := getStats(t, feHS.URL).Cluster, (&clusterStatsResponse{
		Role: "frontend", NodeID: "fe-0", RootAddr: rootHS.URL,
	}); !reflect.DeepEqual(got, want) {
		t.Fatalf("frontend stats section\ngot  %+v\nwant %+v", got, want)
	}

	for {
		got := getStats(t, sbHS.URL).Cluster
		if want := (&clusterStatsResponse{Role: "standby", SnapshotSeq: 2}); reflect.DeepEqual(got, want) {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("unpromoted standby stats section\ngot  %+v\nwant %+v", got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Unpromoted, it still refuses the write path.
	resp, err := http.Post(sbHS.URL+"/v1/tally", "application/octet-stream", bytes.NewReader([]byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("tally on an unpromoted standby: status %d, want 503", resp.StatusCode)
	}
}
