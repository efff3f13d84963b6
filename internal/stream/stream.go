// Package stream turns the one-shot batch pipeline (aggregate → estimate
// → recover) into an epoch-based streaming service. An EpochManager owns
// a live ShardedAccumulator that any number of goroutines feed; Seal()
// closes the current epoch without stopping ingest (ldp.SealEpoch swaps
// the shard tallies out from under concurrent AddBatch calls), appends it
// to a bounded ring of sealed epochs, merges the sliding window
// incrementally, and runs LDPRecover over the window estimate.
//
// Target identification is continuous: each sealed window's poisoned
// estimate is scored against the rolling history of *recovered* estimates
// (detect.ZScoreOutliers — the paper §V-D oracle driven by real history),
// and once the flagged set has been stable for StableAfter consecutive
// epochs (detect.TargetTracker) recovery upgrades itself from LDPRecover
// to LDPRecover*, the paper's strictly more accurate partial-knowledge
// variant. Scoring against recovered rather than raw history keeps the
// baseline clean under a sustained attack: the attack never becomes the
// "normal" the next epoch is compared to.
package stream

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"ldprecover/internal/core"
	"ldprecover/internal/detect"
	"ldprecover/internal/ldp"
)

// Config parameterizes an EpochManager.
type Config struct {
	// Params are the protocol's aggregation parameters (p, q, d); every
	// ingested report must come from this protocol.
	Params ldp.Params
	// Window is the number of sealed epochs merged into each serving
	// estimate. Zero means 1 (estimate each epoch alone).
	Window int
	// History is how many sealed epochs the ring retains and how many
	// recovered estimates the outlier history may grow to. Zero means
	// max(Window, 8); it must be at least Window.
	History int
	// Eta is LDPRecover's assumed malicious-to-genuine ratio η; zero
	// means core.DefaultEta.
	Eta float64
	// TargetK caps how many outlier items one epoch may flag; zero means
	// 10 (the paper's default target count). Negative disables automatic
	// target identification entirely (recovery stays non-knowledge).
	TargetK int
	// MinZ is the z-score threshold for flagging an item; zero means 3.
	MinZ float64
	// StableAfter is how many consecutive epochs must flag the identical
	// set before LDPRecover* engages (and how many quiet epochs demote it
	// again); zero means 3.
	StableAfter int
	// MinHistory is how many baseline epochs must accumulate before
	// outlier scoring starts: the z-score's sample deviation is noise
	// below a handful of periods. Zero means min(5, History); it must be
	// at least 2 (ZScoreOutliers' own floor) and at most History.
	MinHistory int
}

// Defaults for the zero Config fields.
const (
	DefaultHistoryMin  = 8
	DefaultTargetK     = 10
	DefaultMinZ        = 3.0
	DefaultStableAfter = 3
	DefaultMinHistory  = 5
)

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = 1
	}
	if c.History == 0 {
		c.History = c.Window
		if c.History < DefaultHistoryMin {
			c.History = DefaultHistoryMin
		}
	}
	if c.Eta == 0 {
		c.Eta = core.DefaultEta
	}
	if c.TargetK == 0 {
		c.TargetK = DefaultTargetK
		if c.TargetK > c.Params.Domain {
			c.TargetK = c.Params.Domain
		}
	}
	if c.MinZ == 0 {
		c.MinZ = DefaultMinZ
	}
	if c.StableAfter == 0 {
		c.StableAfter = DefaultStableAfter
	}
	if c.MinHistory == 0 {
		c.MinHistory = DefaultMinHistory
		if c.MinHistory > c.History {
			c.MinHistory = c.History
		}
	}
	return c
}

// validate rejects malformed configurations (after defaulting).
func (c Config) validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.Window < 1 {
		return fmt.Errorf("stream: window %d < 1", c.Window)
	}
	if c.History < c.Window {
		return fmt.Errorf("stream: history %d < window %d", c.History, c.Window)
	}
	if c.Eta < 0 {
		return fmt.Errorf("stream: negative eta %v", c.Eta)
	}
	if c.MinZ < 0 {
		return fmt.Errorf("stream: negative z threshold %v", c.MinZ)
	}
	if c.TargetK > c.Params.Domain {
		return fmt.Errorf("stream: target cap %d exceeds domain %d", c.TargetK, c.Params.Domain)
	}
	if c.TargetK > 0 {
		if c.MinHistory < 2 {
			return fmt.Errorf("stream: minimum history %d < 2 (ZScoreOutliers needs 2 periods; "+
				"set TargetK < 0 to disable target identification)", c.MinHistory)
		}
		if c.MinHistory > c.History {
			return fmt.Errorf("stream: minimum history %d exceeds retained history %d", c.MinHistory, c.History)
		}
	}
	return nil
}

// Epoch is one sealed collection period: the raw support counts and the
// report total that landed between two Seal calls. Epochs are immutable.
type Epoch struct {
	// Seq numbers epochs from 0 in seal order.
	Seq int
	// Counts are the sealed raw support counts (length = domain).
	Counts []int64
	// Total is the number of reports sealed into the epoch.
	Total int64
}

// WindowEstimate is the serving output for one sealed window: the
// poisoned (as-aggregated) and recovered frequency estimates over the
// sliding window ending at epoch Seq.
type WindowEstimate struct {
	// Seq is the newest epoch in the window.
	Seq int
	// Epochs is how many sealed epochs the window merges (ramps up from
	// 1 until the configured window is full).
	Epochs int
	// Total is the number of reports in the window.
	Total int64
	// Poisoned is the unbiased estimate of the window aggregate, before
	// recovery (Eq. 11). Nil when the window holds no reports.
	Poisoned []float64
	// Recovered is LDPRecover's output on Poisoned (LDPRecover* once
	// targets have stabilized). Nil when the window holds no reports.
	Recovered []float64
	// Targets is the stable target set recovery used; nil means
	// non-knowledge recovery.
	Targets []int
	// PartialKnowledge records whether LDPRecover* ran.
	PartialKnowledge bool
}

// Stats is a point-in-time summary of a manager, cheap enough to serve
// from a health endpoint.
type Stats struct {
	// Domain is the configured domain size.
	Domain int
	// Epochs is how many epochs have been sealed.
	Epochs int
	// LiveTotal is the report count in the current (unsealed) epoch.
	LiveTotal int64
	// WindowTotal is the report count across the current window.
	WindowTotal int64
	// IngestedTotal is every report ever ingested (sealed + live).
	IngestedTotal int64
	// Targets is the current stable target set (nil before LDPRecover*
	// engages).
	Targets []int
}

// EpochManager is the streaming collector: a live accumulator for the
// open epoch, a ring of sealed epochs, an incrementally maintained
// sliding window, and the recovery/target state that upgrades the stream
// from LDPRecover to LDPRecover*. Ingest methods (Add, AddBatch,
// AddCounts) are safe for any number of concurrent goroutines and are
// never blocked by Seal; Seal and the read methods are safe to call
// concurrently with ingest and with each other.
type EpochManager struct {
	cfg Config

	live *ldp.ShardedAccumulator

	mu        sync.Mutex
	ring      []Epoch // sealed epochs, oldest first, len <= cfg.History
	seq       int     // next epoch's sequence number
	winCounts []int64 // incremental sum over the window's epochs
	winTotal  int64
	winEpochs int             // epochs currently merged into winCounts
	history   *detect.History // rolling recovered estimates, oldest first
	tracker   *detect.TargetTracker
	sealed    int64 // reports in sealed epochs (for IngestedTotal)
	latest    *WindowEstimate

	// liveGen is the live accumulator's mutation generation as of the
	// last seal — the O(1) dirty check behind SealCounts' hand-off. It
	// is tracked conservatively (see Seal): a mismatch may mean "maybe
	// dirty", but equality always means the live epoch is empty.
	liveGen uint64
}

// NewEpochManager builds a streaming manager from the configuration.
func NewEpochManager(cfg Config) (*EpochManager, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	live, err := ldp.NewShardedAccumulator(cfg.Params.Domain, 0)
	if err != nil {
		return nil, err
	}
	tracker, err := detect.NewTargetTracker(cfg.StableAfter)
	if err != nil {
		return nil, err
	}
	history, err := detect.NewHistory(cfg.Params.Domain, cfg.History)
	if err != nil {
		return nil, err
	}
	return &EpochManager{
		cfg:       cfg,
		live:      live,
		winCounts: make([]int64, cfg.Params.Domain),
		history:   history,
		tracker:   tracker,
	}, nil
}

// Config returns the defaulted configuration the manager runs with.
func (m *EpochManager) Config() Config { return m.cfg }

// Domain returns the domain size d.
func (m *EpochManager) Domain() int { return m.cfg.Params.Domain }

// Add folds one report into the open epoch.
func (m *EpochManager) Add(rep ldp.Report) error { return m.live.Add(rep) }

// AddBatch folds a batch of reports into the open epoch through the
// accumulator's type-specialized fast paths.
func (m *EpochManager) AddBatch(reps []ldp.Report) error { return m.live.AddBatch(reps) }

// AddCounts folds a pre-aggregated partial (e.g. a remote collector's
// sub-total) into the open epoch.
func (m *EpochManager) AddCounts(counts []int64, total int64) error {
	return m.live.AddCounts(counts, total)
}

// AddBatchFrame validates a wire-format report batch frame and folds it
// into the open epoch: ldp.ValidateReportBatchFrame, then
// AddReportFrame. Bit-identical to UnmarshalReportBatch + AddBatch.
func (m *EpochManager) AddBatchFrame(frame []byte) error {
	f, err := ldp.ValidateReportBatchFrame(frame)
	if err != nil {
		return err
	}
	m.AddReportFrame(f)
	return nil
}

// AddReportFrame folds a validated report batch frame into the open
// epoch straight from its wire bytes — the zero-copy ingest lane.
func (m *EpochManager) AddReportFrame(f ldp.ReportFrame) { m.live.AddReportFrame(f) }

// SealedWatermark returns the next epoch's sequence number — the
// sealed watermark partial-tally epoch hints are checked against.
func (m *EpochManager) SealedWatermark() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seq
}

// Seal closes the open epoch and returns the new window estimate. Ingest
// is never stopped: reports racing the seal land entirely in the sealed
// epoch or the next one. The sealed epoch joins the ring (evicting beyond
// History), the sliding window advances incrementally (add the newest
// epoch, subtract the one that left), recovery runs on the window
// estimate, and the recovered estimate extends the outlier history that
// drives target identification.
func (m *EpochManager) Seal() (*WindowEstimate, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	counts, total := m.sealLiveLocked()
	return m.sealLocked(counts, total)
}

// SealCounts closes the open epoch with a pre-merged aggregate, taking
// ownership of counts — the merge tree's O(1) hand-off: a root or
// merger node accumulates arriving tallies on its own (merge-on-
// arrival) and seals the finished vector directly, instead of paying
// AddCounts' O(d) re-fold into the live accumulator plus SealEpoch's
// O(shards·d) re-merge back out. The live accumulator is still honored:
// if anything has been ingested since the last seal (never, on a node
// that only merges tallies — an O(1) generation check), the live epoch
// is sealed and folded in, so SealCounts is bit-identical to
// AddCounts + Seal in every case.
func (m *EpochManager) SealCounts(counts []int64, total int64) (*WindowEstimate, error) {
	if len(counts) != m.cfg.Params.Domain {
		return nil, fmt.Errorf("stream: sealing %d counts over domain %d",
			len(counts), m.cfg.Params.Domain)
	}
	if total < 0 {
		return nil, fmt.Errorf("stream: sealing a negative report total %d", total)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.live.Mutations() != m.liveGen {
		liveCounts, liveTotal := m.sealLiveLocked()
		for v, c := range liveCounts {
			counts[v] += c
		}
		total += liveTotal
	}
	return m.sealLocked(counts, total)
}

// sealLiveLocked swaps the live epoch out of the accumulator and
// re-records its mutation generation. The capture is conservative: gen
// is read before the swap and the seal's own bump added, so ingest
// racing the seal can only make a later generation check read "maybe
// dirty" (a harmless empty fold), never "clean" while live data exists.
// Callers hold m.mu.
func (m *EpochManager) sealLiveLocked() ([]int64, int64) {
	preGen := m.live.Mutations()
	counts, total := m.live.SealEpoch()
	m.liveGen = preGen + 1
	return counts, total
}

// sealLocked appends the closed epoch to the ring, advances the window,
// and runs estimation — the shared tail of Seal and SealCounts. It
// takes ownership of counts. Callers hold m.mu.
func (m *EpochManager) sealLocked(counts []int64, total int64) (*WindowEstimate, error) {
	// Sealing under m.mu never blocks ingest (ingest takes only the
	// accumulator's shard locks) and keeps Stats consistent: the sealed
	// epoch moves from the live tally into m.sealed atomically with
	// respect to any m.mu reader.
	ep := Epoch{Seq: m.seq, Counts: counts, Total: total}
	m.seq++
	m.sealed += ep.Total
	m.ring = append(m.ring, ep)

	// Advance the sliding window: O(d) per boundary regardless of how
	// many epochs it spans. This runs before ring eviction so the epoch
	// leaving the window is still addressable even when History == Window.
	for v, c := range ep.Counts {
		m.winCounts[v] += c
	}
	m.winTotal += ep.Total
	m.winEpochs++
	if m.winEpochs > m.cfg.Window {
		out := m.ring[len(m.ring)-1-m.cfg.Window]
		for v, c := range out.Counts {
			m.winCounts[v] -= c
		}
		m.winTotal -= out.Total
		m.winEpochs--
	}

	if len(m.ring) > m.cfg.History {
		// Evict beyond the retention ring; the evicted epoch has left the
		// window above (History >= Window).
		m.ring = m.ring[1:]
	}

	est, err := m.estimateLocked(m.winCounts, m.winTotal, ep.Seq, m.winEpochs, true)
	if err != nil {
		return nil, err
	}
	m.latest = est
	return est, nil
}

// estimateLocked estimates and recovers one window aggregate. When
// advance is set the estimate also drives target identification and
// extends the recovered history (the Seal path); ad-hoc window queries
// leave the detection state untouched. Callers hold m.mu.
func (m *EpochManager) estimateLocked(counts []int64, total int64, seq, epochs int, advance bool) (*WindowEstimate, error) {
	est := &WindowEstimate{Seq: seq, Epochs: epochs, Total: total}
	if total == 0 {
		// An empty window estimates nothing; a quiet epoch still counts
		// toward demoting a stale target set. Either way the estimate
		// reports the stable set recovery would have used.
		if advance {
			m.tracker.Observe(nil)
		}
		est.Targets = slices.Clone(m.tracker.Stable())
		return est, nil
	}
	poisoned, err := ldp.Unbias(counts, total, m.cfg.Params)
	if err != nil {
		return nil, err
	}
	est.Poisoned = poisoned

	targets := m.tracker.Stable()
	var flagged []int
	if advance && m.cfg.TargetK > 0 {
		// Score the fresh poisoned estimate against the baseline history;
		// one observation per sealed epoch. Below MinHistory periods the
		// sample deviation is noise, so scoring waits. The deviation is
		// floored at the protocol's theoretical estimator noise at this
		// window's report count (Var ≈ q(1-q)/(n(p-q)²), Eq. 4/7's
		// f-independent term): the recovered history of a tail item the
		// simplex refinement clips to zero is degenerate, and without the
		// floor its ordinary LDP noise would out-score every real target.
		if m.history.Len() >= m.cfg.MinHistory {
			pq := m.cfg.Params.P - m.cfg.Params.Q
			minSD := math.Sqrt(m.cfg.Params.Q*(1-m.cfg.Params.Q)/float64(total)) / pq
			flagged, err = m.history.ZScoreOutliersMinSD(poisoned, m.cfg.TargetK, m.cfg.MinZ, minSD)
			if err != nil {
				return nil, err
			}
		}
		targets = m.tracker.Observe(flagged)
	}
	// The tracker's slices are shared internal state (see detect's
	// sharing contract); the estimate is published to JSON encoders that
	// run concurrently with the next promotion, so it gets its own copy.
	est.Targets = slices.Clone(targets)

	prCore := core.Params{P: m.cfg.Params.P, Q: m.cfg.Params.Q, Domain: m.cfg.Params.Domain}
	rec, err := core.Recover(poisoned, prCore, core.Options{Eta: m.cfg.Eta, Targets: targets})
	if err != nil {
		return nil, err
	}
	est.Recovered = rec.Frequencies
	est.PartialKnowledge = rec.PartialKnowledge

	// The baseline history must stay clean: an attacked epoch whose
	// spikes survive recovery would inflate the targets' history
	// deviation and blind the z-score to the ongoing attack. Epochs with
	// nothing flagged extend the baseline directly; flagged epochs extend
	// it only once LDPRecover* is deducting the targets (its recovered
	// estimate is the cleaned one). Flagged-but-not-yet-stable epochs —
	// the transition — are left out entirely.
	if advance && (len(flagged) == 0 || est.PartialKnowledge) {
		m.history.Push(rec.Frequencies)
	}
	return est, nil
}

// AdvanceEpochTo fast-forwards the epoch clock so the next sealed epoch
// carries index at least seq; it never moves backwards and touches no
// data. A cluster frontend calls it with the root's sealed watermark
// before sealing, so a node that missed epochs — an outage past the
// straggler timeout, an in-memory restart resetting the counter —
// rejoins the shared clock at the current period instead of re-issuing
// stale indices the root would dedupe forever. The skipped indices
// simply have no epoch from this node, which is the truth.
func (m *EpochManager) AdvanceEpochTo(seq int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if seq > m.seq {
		m.seq = seq
	}
}

// Latest returns the estimate of the most recently sealed window, nil
// before the first Seal.
func (m *EpochManager) Latest() *WindowEstimate {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.latest
}

// EstimateWindow merges the newest k sealed epochs from the ring on
// demand and runs recovery on the result with the current stable targets.
// It answers ad-hoc window queries (e.g. "the last 2 epochs" while the
// serving window is 6) without advancing detection state. k is clamped to
// the epochs actually retained; zero epochs sealed is an error.
//
// A k that covers exactly the serving window returns the estimate the
// last seal computed — the same pointer Latest() returns, since the
// on-demand compute would reproduce it float for float. The result may
// therefore be shared with Latest() and other callers and must not be
// mutated.
func (m *EpochManager) EstimateWindow(k int) (*WindowEstimate, error) {
	if k < 1 {
		return nil, fmt.Errorf("stream: window of %d epochs", k)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.ring) == 0 {
		return nil, errors.New("stream: no sealed epochs yet")
	}
	k = min(k, len(m.ring))
	if l := m.latest; l != nil && k == m.winEpochs && l.Seq == m.ring[len(m.ring)-1].Seq {
		return l, nil
	}
	return m.computeWindowLocked(k)
}

// computeWindowLocked merges the newest k (1 <= k <= len(ring)) sealed
// epochs and estimates them from scratch, leaving detection state
// untouched. Callers hold m.mu.
func (m *EpochManager) computeWindowLocked(k int) (*WindowEstimate, error) {
	counts := make([]int64, m.cfg.Params.Domain)
	var total int64
	for _, ep := range m.ring[len(m.ring)-k:] {
		for v, c := range ep.Counts {
			counts[v] += c
		}
		total += ep.Total
	}
	return m.estimateLocked(counts, total, m.ring[len(m.ring)-1].Seq, k, false)
}

// Epochs returns the sealed epochs currently retained, oldest first. The
// epochs are immutable; the slice is the caller's.
func (m *EpochManager) Epochs() []Epoch {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Epoch(nil), m.ring...)
}

// Stats summarizes the manager for monitoring endpoints.
func (m *EpochManager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Seal moves an epoch from the live tally into m.sealed entirely
	// under m.mu, so reading both here can neither double-count a report
	// nor drop a mid-seal epoch.
	live := m.live.Total()
	return Stats{
		Domain:        m.cfg.Params.Domain,
		Epochs:        m.seq,
		LiveTotal:     live,
		WindowTotal:   m.winTotal,
		IngestedTotal: m.sealed + live,
		Targets:       slices.Clone(m.tracker.Stable()),
	}
}
