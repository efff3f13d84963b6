package stream

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"ldprecover/internal/detect"
	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
)

// spikeConfig is a small stream whose target identification can be
// driven deterministically with AddCounts.
func spikeConfig(t *testing.T, d int) (Config, ldp.Protocol) {
	t.Helper()
	proto, err := ldp.NewOUE(d, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Params: proto.Params(), Window: 2, History: 10,
		StableAfter: 2, MinHistory: 3, TargetK: 3,
	}, proto
}

// sealEpoch simulates one epoch's counts (optionally spiking item
// `spike` hard enough for the z-score) and seals.
func sealEpoch(t *testing.T, m *EpochManager, proto ldp.Protocol, r *rng.Rand, spike int) *WindowEstimate {
	t.Helper()
	d := m.Domain()
	trueCounts := make([]int64, d)
	for v := range trueCounts {
		trueCounts[v] = 500
	}
	if spike >= 0 {
		trueCounts[spike] += 2500
	}
	counts, err := proto.SimulateGenuineCounts(r, trueCounts)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, c := range trueCounts {
		n += c
	}
	if err := m.AddCounts(counts, n); err != nil {
		t.Fatal(err)
	}
	est, err := m.Seal()
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// TestSnapshotRestoreRoundTrip drives a manager to the middle of a
// promotion streak, snapshots it, restores into a fresh manager, and
// runs both in lockstep: every subsequent estimate — including the epoch
// at which LDPRecover* engages — must be bit-identical, which is exactly
// the property the persistence layer's boot path depends on.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	const d = 12
	cfg, proto := spikeConfig(t, d)
	a, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Identical epoch inputs need identical generator streams, so drive
	// each manager from its own deterministic rng.
	ra, rb := rng.New(42), rng.New(42)

	// Quiet history, then one attacked epoch: streak == 1, not promoted.
	for e := 0; e < 4; e++ {
		sealEpoch(t, a, proto, ra, -1)
	}
	est := sealEpoch(t, a, proto, ra, 5)
	if est.PartialKnowledge {
		t.Fatal("promoted after a single observation")
	}

	st := a.SnapshotState()
	// The exported state is a deep copy: mutating it must not reach the
	// manager.
	st.WinCounts[0] += 999
	st2 := a.SnapshotState()
	if st2.WinCounts[0] == st.WinCounts[0] {
		t.Fatal("SnapshotState shares winCounts with the manager")
	}
	st.WinCounts[0] -= 999

	b, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	// Replay b's rng to a's position: both managers drew 5 epochs.
	for e := 0; e < 5; e++ {
		spike := -1
		if e == 4 {
			spike = 5
		}
		trueCounts := make([]int64, d)
		for v := range trueCounts {
			trueCounts[v] = 500
		}
		if spike >= 0 {
			trueCounts[spike] += 2500
		}
		if _, err := proto.SimulateGenuineCounts(rb, trueCounts); err != nil {
			t.Fatal(err)
		}
	}

	if !reflect.DeepEqual(b.Latest(), a.Latest()) {
		t.Fatal("restored Latest() differs")
	}
	if !reflect.DeepEqual(b.Epochs(), a.Epochs()) {
		t.Fatal("restored ring differs")
	}
	if !reflect.DeepEqual(b.Stats(), a.Stats()) {
		t.Fatalf("restored stats differ: %+v vs %+v", b.Stats(), a.Stats())
	}

	// Lockstep from here: the second attacked epoch promotes, later ones
	// stay promoted, and everything matches float for float.
	engaged := -1
	for e := 5; e < 9; e++ {
		ea := sealEpoch(t, a, proto, ra, 5)
		eb := sealEpoch(t, b, proto, rb, 5)
		if !reflect.DeepEqual(ea, eb) {
			t.Fatalf("epoch %d diverged after restore:\n a %+v\n b %+v", e, ea, eb)
		}
		if ea.PartialKnowledge && engaged < 0 {
			engaged = e
		}
	}
	if engaged != 5 {
		t.Fatalf("LDPRecover* engaged at epoch %d, want 5 (streak resumed mid-hysteresis)", engaged)
	}
}

// TestHistorySumsMatchRebuild checks the recovered history's running
// fixed-point sums after every seal against a history rebuilt from its
// retained rows: through eviction (more quiet epochs than History),
// the attacked epoch that is flagged before the target set is stable
// and so is left out of the history, the promoted epochs that extend
// it again, and a SnapshotState → RestoreState round trip.
func TestHistorySumsMatchRebuild(t *testing.T) {
	const d = 12
	cfg, proto := spikeConfig(t, d)
	m, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(43)
	check := func(e int, m *EpochManager) {
		t.Helper()
		rebuilt, err := detect.NewHistory(d, cfg.History)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range m.history.Rows() {
			rebuilt.Push(append([]float64(nil), row...))
		}
		if !reflect.DeepEqual(m.history, rebuilt) {
			t.Fatalf("epoch %d: running history sums differ from a rebuild of its %d rows", e, m.history.Len())
		}
	}
	// extended reports whether est's recovered estimate became the
	// history's newest row.
	extended := func(m *EpochManager, est *WindowEstimate) bool {
		rows := m.history.Rows()
		return len(rows) > 0 && &rows[len(rows)-1][0] == &est.Recovered[0]
	}
	for e := 0; e < cfg.History+4; e++ {
		est := sealEpoch(t, m, proto, r, -1)
		if !extended(m, est) {
			t.Fatalf("quiet epoch %d did not extend the history", e)
		}
		check(e, m)
	}
	if m.history.Len() != cfg.History {
		t.Fatalf("history holds %d rows after eviction, want %d", m.history.Len(), cfg.History)
	}
	skipped, promoted := 0, 0
	for e := cfg.History + 4; e < cfg.History+10; e++ {
		est := sealEpoch(t, m, proto, r, 5)
		switch {
		case !est.PartialKnowledge && !extended(m, est):
			skipped++
		case est.PartialKnowledge && extended(m, est):
			promoted++
		}
		if e == cfg.History+6 {
			b, err := NewEpochManager(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.RestoreState(m.SnapshotState()); err != nil {
				t.Fatal(err)
			}
			m = b
		}
		check(e, m)
	}
	if skipped == 0 || promoted == 0 {
		t.Fatalf("%d flagged epochs left out of the history, %d LDPRecover* epochs extended it: want both",
			skipped, promoted)
	}
}

// TestRestoreValidation rejects states that cannot belong to the
// manager's configuration, and restores only into a fresh manager.
func TestRestoreValidation(t *testing.T) {
	cfg, proto := spikeConfig(t, 8)
	m, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	sealEpoch(t, m, proto, r, -1)
	good := m.SnapshotState()

	used, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sealEpoch(t, used, proto, rng.New(2), -1)
	if err := used.RestoreState(good); err == nil {
		t.Fatal("restored into a manager with sealed epochs")
	}
	live, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.AddCounts(make([]int64, 8), 1); err != nil {
		t.Fatal(err)
	}
	if err := live.RestoreState(good); err == nil {
		t.Fatal("restored into a manager with live reports")
	}

	fresh := func() *EpochManager {
		t.Helper()
		fm, err := NewEpochManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fm
	}
	for name, mangle := range map[string]func(st *ManagerState){
		"wrong-domain-window": func(st *ManagerState) { st.WinCounts = st.WinCounts[:4] },
		"wrong-domain-epoch":  func(st *ManagerState) { st.Ring[0].Counts = st.Ring[0].Counts[:4] },
		"wrong-domain-history": func(st *ManagerState) {
			st.History = [][]float64{make([]float64, 4)}
		},
		"seq-below-ring":    func(st *ManagerState) { st.Seq = 0 },
		"ring-beyond-hist":  func(st *ManagerState) { st.Ring = make([]Epoch, cfg.History+1) },
		"window-beyond-cfg": func(st *ManagerState) { st.WinEpochs = 5 },
		"window-above-ring": func(st *ManagerState) { st.WinEpochs = 2 },
		"negative-total":    func(st *ManagerState) { st.WinTotal = -1 },
		"negative-epoch":    func(st *ManagerState) { st.Ring[0].Total = -1 },
		"negative-streak":   func(st *ManagerState) { st.Tracker.Streak = -1 },
		"ring-out-of-order": func(st *ManagerState) {
			st.Ring = append(st.Ring, st.Ring[0])
			st.Seq = 3
		},
	} {
		fm := fresh()
		st := m.SnapshotState()
		mangle(&st)
		if err := fm.RestoreState(st); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	// And the untouched state restores fine, twice over (deep copy in).
	fm := fresh()
	if err := fm.RestoreState(good); err != nil {
		t.Fatal(err)
	}
	good.WinCounts[0] += 7
	if fm.SnapshotState().WinCounts[0] == good.WinCounts[0] {
		t.Fatal("RestoreState shares slices with its argument")
	}
}

// TestRestoreEmptyAndColdStates covers the degenerate snapshots: a
// brand-new manager's state, and one whose newest window was empty.
func TestRestoreEmptyAndColdStates(t *testing.T) {
	cfg, _ := spikeConfig(t, 8)
	m, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold := m.SnapshotState()
	m2, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.RestoreState(cold); err != nil {
		t.Fatal(err)
	}
	if m2.Latest() != nil {
		t.Fatal("cold restore invented a Latest()")
	}

	// Seal two report-free epochs (the whole window is empty), then
	// restore that state: Latest() must come back as the empty-window
	// estimate — Total 0, no frequencies — not nil.
	if _, err := m.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Seal(); err != nil {
		t.Fatal(err)
	}
	m3, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m3.RestoreState(m.SnapshotState()); err != nil {
		t.Fatal(err)
	}
	if m3.Latest() == nil || m3.Latest().Total != 0 {
		t.Fatalf("empty-window restore Latest: %+v", m3.Latest())
	}
	if !reflect.DeepEqual(m3.Latest(), m.Latest()) {
		t.Fatalf("empty-window restore: %+v vs %+v", m3.Latest(), m.Latest())
	}
}

// TestTargetSlicesAreCopies pins the aliasing fix: the target slices a
// WindowEstimate or Stats hands out are the caller's to keep (or even
// mutate) — they must not be wired into the tracker's internal state.
func TestTargetSlicesAreCopies(t *testing.T) {
	cfg, proto := spikeConfig(t, 12)
	cfg.StableAfter = 1 // promote on first observation
	m, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(8)
	for e := 0; e < 3; e++ {
		sealEpoch(t, m, proto, r, -1)
	}
	est := sealEpoch(t, m, proto, r, 4)
	if !est.PartialKnowledge || len(est.Targets) == 0 {
		t.Fatalf("spike not promoted: %+v", est)
	}
	st := m.Stats()
	if &st.Targets[0] == &est.Targets[0] {
		t.Fatal("Stats and WindowEstimate share a targets array")
	}
	// Vandalize both published slices; the tracker must not notice.
	est.Targets[0] = -99
	st.Targets[0] = -77
	if got := m.Stats().Targets; !reflect.DeepEqual(got, []int{4}) {
		t.Fatalf("mutating published targets corrupted the tracker: %v", got)
	}
}

// TestTargetPublishRace hammers promotion/demotion cycles while readers
// JSON-encode the published estimates and stats — the exact consumer
// pattern the serve layer runs concurrently with seals. Run under -race
// by make race; before the stream layer copied target slices this was a
// write-after-publish race on the tracker's internal array.
func TestTargetPublishRace(t *testing.T) {
	cfg, proto := spikeConfig(t, 12)
	cfg.StableAfter = 1
	m, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	for e := 0; e < 3; e++ {
		sealEpoch(t, m, proto, r, -1)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	// One consumer mutates what it was handed (each published estimate
	// has a single hostile owner — mutating it must not reach into the
	// tracker the sealer is reading); the other only JSON-encodes its
	// own Stats copies, the serve layer's actual pattern.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if est := m.Latest(); est != nil {
				for i := range est.Targets {
					est.Targets[i] = -est.Targets[i]
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := json.Marshal(m.Stats().Targets); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Alternate spiked and quiet epochs: with StableAfter == 1 every
	// other seal promotes or demotes, rewriting the tracker's stable set
	// while the readers encode.
	for e := 0; e < 40; e++ {
		spike := -1
		if e%2 == 0 {
			spike = 4 + e%3
		}
		sealEpoch(t, m, proto, r, spike)
	}
	close(done)
	wg.Wait()
}

// TestEstimateWindowEdgeCases locks in the behaviors the persistence
// restore path depends on: clamping beyond retention, all-empty windows,
// and — critically — ad-hoc queries leaving detection state untouched.
func TestEstimateWindowEdgeCases(t *testing.T) {
	cfg, proto := spikeConfig(t, 12)
	m, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(10)
	for e := 0; e < 4; e++ {
		sealEpoch(t, m, proto, r, -1)
	}
	sealEpoch(t, m, proto, r, 5) // flagged once: streak mid-hysteresis

	// k beyond the retained epochs clamps to the ring.
	est, err := m.EstimateWindow(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if est.Epochs != 5 {
		t.Fatalf("clamped window spans %d epochs, want 5", est.Epochs)
	}

	// Ad-hoc queries are side-effect free: the full cross-epoch state —
	// tracker streak, history, window sums — is byte-identical after any
	// number of them, so a snapshot taken before and after matches.
	before := m.SnapshotState()
	for k := 1; k <= 6; k++ {
		if _, err := m.EstimateWindow(k); err != nil {
			t.Fatal(err)
		}
	}
	if after := m.SnapshotState(); !reflect.DeepEqual(before, after) {
		t.Fatal("EstimateWindow perturbed detection state")
	}
	// And they do not advance Latest either.
	if got := m.Latest(); got.Seq != 4 {
		t.Fatalf("Latest moved to seq %d", got.Seq)
	}

	// A window whose epochs are all empty: seal two report-free epochs,
	// then ask for exactly those two.
	if _, err := m.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Seal(); err != nil {
		t.Fatal(err)
	}
	empty, err := m.EstimateWindow(2)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Total != 0 || empty.Poisoned != nil || empty.Recovered != nil {
		t.Fatalf("empty window produced estimates: %+v", empty)
	}
	if empty.Epochs != 2 || empty.Seq != 6 {
		t.Fatalf("empty window shape: %+v", empty)
	}
}
