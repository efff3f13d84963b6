package stream

import (
	"reflect"
	"testing"

	"ldprecover/internal/attack"
	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
)

// checkWindowReuse asks for every window size 1..History+2 and compares
// each answer with a from-scratch merge of the same epochs. The serving
// window must come back as the very pointer Latest() holds.
func checkWindowReuse(t *testing.T, m *EpochManager, when string) (reused bool) {
	t.Helper()
	for k := 1; k <= m.cfg.History+2; k++ {
		got, err := m.EstimateWindow(k)
		if err != nil {
			t.Fatalf("%s: EstimateWindow(%d): %v", when, k, err)
		}
		m.mu.Lock()
		clamped := min(k, len(m.ring))
		serving := clamped == m.winEpochs
		want, err := m.computeWindowLocked(clamped)
		m.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: EstimateWindow(%d) differs from a from-scratch compute:\n got %+v\nwant %+v",
				when, k, got, want)
		}
		if serving {
			if got != m.Latest() {
				t.Fatalf("%s: EstimateWindow(%d) covers the serving window but is not Latest()", when, k)
			}
			reused = true
		}
	}
	return reused
}

// TestEstimateWindowReusesServingEstimate pins the serving-window reuse:
// an EstimateWindow that covers exactly the serving window returns the
// last seal's estimate, and every window size — reused or not — is
// bit-identical to merging the ring from scratch. The MGA stream covers
// window ramp-up, ring eviction, LDPRecover* engaging, a mid-stream
// snapshot/restore, an advanced epoch clock and empty epochs.
func TestEstimateWindowReusesServingEstimate(t *testing.T) {
	const d = 32
	proto, err := ldp.NewOUE(d, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Params: proto.Params(), Window: 4, History: 16,
		TargetK: 4, StableAfter: 2, MinHistory: 3,
	}
	m, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mga, err := attack.NewMGA([]int{5, 21})
	if err != nil {
		t.Fatal(err)
	}
	trueCounts := make([]int64, d)
	var n int64
	for v := range trueCounts {
		trueCounts[v] = 400
		n += trueCounts[v]
	}
	r := rng.New(17)

	const quiet, epochs, restoreAt, advanceAt = 6, 30, 11, 15
	empty := func(e int) bool { return e == 9 || (e >= 20 && e < 24) }
	engaged, emptyWindow := false, false
	for e := 0; e < epochs; e++ {
		if !empty(e) {
			counts, err := proto.SimulateGenuineCounts(r, trueCounts)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.AddCounts(counts, n); err != nil {
				t.Fatal(err)
			}
			if e >= quiet {
				mal, err := mga.CraftCounts(r, proto, n/10)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.AddCounts(mal, n/10); err != nil {
					t.Fatal(err)
				}
			}
		}
		if e == advanceAt {
			m.AdvanceEpochTo(m.SealedWatermark() + 3)
		}
		est, err := m.Seal()
		if err != nil {
			t.Fatal(err)
		}
		if est != m.Latest() {
			t.Fatalf("epoch %d: Seal's estimate is not Latest()", e)
		}
		engaged = engaged || est.PartialKnowledge
		emptyWindow = emptyWindow || est.Total == 0
		if !checkWindowReuse(t, m, "after seal") {
			t.Fatalf("epoch %d: no window size hit the serving window", e)
		}

		if e == restoreAt || e == advanceAt+2 {
			// The second restore follows an advanced clock with no seal
			// in between, so the restored Latest must still end at the
			// ring's newest epoch, not at the clock.
			if e == advanceAt+2 {
				m.AdvanceEpochTo(m.SealedWatermark() + 2)
			}
			before := m.Latest()
			fresh, err := NewEpochManager(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.RestoreState(m.SnapshotState()); err != nil {
				t.Fatal(err)
			}
			m = fresh
			if !reflect.DeepEqual(m.Latest(), before) {
				t.Fatalf("epoch %d: restored Latest differs:\n got %+v\nwant %+v", e, m.Latest(), before)
			}
			if !checkWindowReuse(t, m, "after restore") {
				t.Fatalf("epoch %d: no window size hit the restored serving window", e)
			}
		}
	}
	if !engaged || !emptyWindow {
		t.Fatalf("stream did not cover LDPRecover* (%v) and an empty serving window (%v)", engaged, emptyWindow)
	}
	if len(m.Epochs()) != cfg.History {
		t.Fatalf("ring holds %d epochs, want %d (eviction not exercised)", len(m.Epochs()), cfg.History)
	}
}
