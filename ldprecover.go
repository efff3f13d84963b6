// Package ldprecover is the public API of this repository: a Go
// implementation of LDPRecover (Sun et al., ICDE 2024), which recovers
// accurate aggregated frequencies from poisoning attacks against local
// differential privacy protocols, together with the full stack the paper
// builds on — the GRR/OUE/OLH frequency-estimation protocols, the
// Manip/MGA/adaptive/input-poisoning attacks, and the Detection and
// k-means countermeasure baselines.
//
// # Quick start
//
//	proto, _ := ldprecover.NewOUE(domainSize, epsilon)
//	// ... collect reports, aggregate ...
//	poisoned, _ := ldprecover.EstimateFrequencies(reports, proto.Params())
//	res, _ := ldprecover.Recover(poisoned, proto.Params(), ldprecover.Options{})
//	fmt.Println(res.Frequencies) // non-negative, sums to 1
//
// When the attacker's target items are known (e.g. from
// ldprecover.ZScoreOutliers over historical estimates), pass them via
// Options.Targets to run LDPRecover*, the paper's partial-knowledge
// variant, which is strictly more accurate against targeted attacks.
//
// For high-throughput serving, ShardedAccumulator ingests reports from
// many goroutines concurrently, and Protocol.SimulateGenuineCounts produces
// whole-population aggregate counts without materializing per-user
// reports. EpochManager
// (DESIGN.md §5) turns the same flow into a continuously-serving epoch
// stream — sealed epochs, sliding-window estimates, and an automatic
// upgrade to LDPRecover* once attacked items stabilize — which the
// `ldprecover serve` subcommand exposes over HTTP.
//
// See README.md for the quick start, package layout and how to run the
// paper's figure benchmarks; examples/ for runnable end-to-end scenarios;
// and DESIGN.md for the paper-to-package map.
package ldprecover

import (
	"time"

	"ldprecover/internal/attack"
	"ldprecover/internal/core"
	"ldprecover/internal/dataset"
	"ldprecover/internal/detect"
	"ldprecover/internal/harmony"
	"ldprecover/internal/hh"
	"ldprecover/internal/kv"
	"ldprecover/internal/ldp"
	"ldprecover/internal/metrics"
	"ldprecover/internal/persist"
	"ldprecover/internal/rng"
	"ldprecover/internal/stream"
)

// Re-exported protocol types (paper §III-B).
type (
	// Protocol is a pure LDP frequency-estimation protocol (Ψ, Φ).
	Protocol = ldp.Protocol
	// Report is one user's perturbed submission.
	Report = ldp.Report
	// Params carries a protocol's aggregation parameters (p, q, d).
	Params = ldp.Params
	// GRR is General Randomized Response.
	GRR = ldp.GRR
	// OUE is Optimized Unary Encoding.
	OUE = ldp.OUE
	// OLH is Optimized Local Hashing.
	OLH = ldp.OLH
	// SUE is Symmetric Unary Encoding (basic RAPPOR) — not part of the
	// paper's evaluation, included to demonstrate recovery generality.
	SUE = ldp.SUE
)

// Re-exported recovery types (paper §V).
type (
	// Options configures Recover; see core.Options for the fields.
	Options = core.Options
	// Result carries recovered frequencies and diagnostics.
	Result = core.Result
	// Refiner maps an estimate onto the probability simplex.
	Refiner = core.Refiner
)

// Re-exported attack types (paper §II, §V-C, §VII).
type (
	// Attack crafts malicious users' data.
	Attack = attack.Attack
	// Manip is the untargeted manipulation attack.
	Manip = attack.Manip
	// MGA is the maximal gain attack.
	MGA = attack.MGA
	// Adaptive is the paper's adaptive attack.
	Adaptive = attack.Adaptive
	// Multi composes several attackers.
	Multi = attack.Multi
	// MGAIPA is MGA under the input-poisoning model (§VII-B).
	MGAIPA = attack.MGAIPA
)

// Re-exported defense types (paper §VI-A.5, §VII-B).
type (
	// DetectionResult is the Detection baseline's output.
	DetectionResult = detect.DetectionResult
	// KMeansDefense is the subset-clustering defense.
	KMeansDefense = detect.KMeansDefense
	// KMResult is its output.
	KMResult = detect.KMResult
)

// Dataset is an item-frequency dataset.
type Dataset = dataset.Dataset

// Rand is the deterministic generator used across the library.
type Rand = rng.Rand

// DefaultEta is the paper's default recovery parameter η (§VI-A.4).
const DefaultEta = core.DefaultEta

// NewRand returns a deterministic random generator for the given seed.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// ErrEpsilonTooLarge rejects a privacy budget too large to represent:
// the keep probability would round to exactly 1 (or the flip
// probability to 0), so the constructed mechanism would never perturb
// while claiming a finite epsilon. Matched with errors.Is.
var ErrEpsilonTooLarge = ldp.ErrEpsilonTooLarge

// NewGRR constructs General Randomized Response over a domain of size d
// with privacy budget epsilon.
func NewGRR(d int, epsilon float64) (*GRR, error) { return ldp.NewGRR(d, epsilon) }

// NewOUE constructs Optimized Unary Encoding.
func NewOUE(d int, epsilon float64) (*OUE, error) { return ldp.NewOUE(d, epsilon) }

// NewOLH constructs Optimized Local Hashing with g = ⌈e^ε+1⌉.
func NewOLH(d int, epsilon float64) (*OLH, error) { return ldp.NewOLH(d, epsilon) }

// NewSUE constructs Symmetric Unary Encoding (basic RAPPOR).
func NewSUE(d int, epsilon float64) (*SUE, error) { return ldp.NewSUE(d, epsilon) }

// NewBLH constructs Binary Local Hashing (OLH with a 2-value hash range).
func NewBLH(d int, epsilon float64) (*OLH, error) { return ldp.NewBLH(d, epsilon) }

// EstimateFrequencies aggregates reports into unbiased frequency
// estimates (Eq. 11–13).
func EstimateFrequencies(reports []Report, pr Params) ([]float64, error) {
	return ldp.EstimateFrequencies(reports, pr)
}

// Accumulator is a streaming, mergeable server-side aggregator.
type Accumulator = ldp.Accumulator

// NewAccumulator returns an empty streaming aggregator over a domain of
// size d.
func NewAccumulator(d int) (*Accumulator, error) { return ldp.NewAccumulator(d) }

// ShardedAccumulator is the concurrency-safe ingest engine: reports from
// many goroutines fan out across independently locked shards and merge on
// Snapshot, with AddCounts as the fast lane for pre-aggregated partials
// (e.g. SimulateGenuineCounts output or remote collectors' sub-totals).
type ShardedAccumulator = ldp.ShardedAccumulator

// NewShardedAccumulator returns an empty concurrent aggregator over a
// domain of size d with the given shard count (<= 0 selects GOMAXPROCS).
func NewShardedAccumulator(d, shards int) (*ShardedAccumulator, error) {
	return ldp.NewShardedAccumulator(d, shards)
}

// MarshalReport serializes a report to the library's wire format, so
// clients and servers built on this package can exchange perturbed data.
func MarshalReport(rep Report) ([]byte, error) { return ldp.MarshalReport(rep) }

// UnmarshalReport parses a wire-format report.
func UnmarshalReport(data []byte) (Report, error) { return ldp.UnmarshalReport(data) }

// MarshalReportBatch frames many reports into one wire batch, the unit
// the serving layer ingests per HTTP request.
func MarshalReportBatch(reps []Report) ([]byte, error) { return ldp.MarshalReportBatch(reps) }

// UnmarshalReportBatch parses a wire-format report batch.
func UnmarshalReportBatch(data []byte) ([]Report, error) { return ldp.UnmarshalReportBatch(data) }

// MaxBatchReports is the decoder's hard cap on a batch frame's report
// count; servers enforce their own smaller limits on top.
const MaxBatchReports = ldp.MaxBatchReports

// Epoch-streamed recovery (DESIGN.md §5): an EpochManager turns the
// batch aggregate → estimate → recover flow into a continuously serving
// pipeline — concurrent ingest into a live epoch, Seal() boundaries that
// never stop ingest, sliding-window estimates, and cross-epoch outlier
// tracking that upgrades recovery from LDPRecover to LDPRecover* once
// the attacked items stabilize.
type (
	// StreamConfig parameterizes an EpochManager.
	StreamConfig = stream.Config
	// EpochManager is the streaming collector.
	EpochManager = stream.EpochManager
	// Epoch is one sealed collection period.
	Epoch = stream.Epoch
	// WindowEstimate is the per-window serving output (poisoned and
	// recovered frequencies).
	WindowEstimate = stream.WindowEstimate
	// StreamStats is a point-in-time manager summary.
	StreamStats = stream.Stats
	// TargetTracker is the promote/demote hysteresis behind the
	// LDPRecover → LDPRecover* upgrade.
	TargetTracker = detect.TargetTracker
)

// NewEpochManager builds a streaming epoch manager.
func NewEpochManager(cfg StreamConfig) (*EpochManager, error) { return stream.NewEpochManager(cfg) }

// Durable serving (DESIGN.md §6): a DurableStore makes an EpochManager
// crash-safe. Ingested report batches are appended to a CRC-framed
// write-ahead log before they are aggregated, every seal atomically
// snapshots the manager's cross-epoch state (sealed-epoch ring, sliding
// window, recovered history, target-tracker hysteresis) and truncates
// the log, and OpenDurableStore reconstructs the exact pre-crash serving
// state from snapshot + WAL tail on boot — so a restart never forgets
// the historical view that drives the LDPRecover* upgrade.
type (
	// DurableStore persists one EpochManager under a data directory.
	DurableStore = persist.Store
	// DurableOptions are the store's WAL knobs.
	DurableOptions = persist.Options
	// RestoreInfo summarizes what OpenDurableStore reconstructed.
	RestoreInfo = persist.RestoreInfo
	// ManagerState is the exportable cross-epoch state of an
	// EpochManager, the unit snapshots carry.
	ManagerState = stream.ManagerState
	// TrackerState is the exportable TargetTracker hysteresis state.
	TrackerState = detect.TrackerState
)

// OpenDurableStore makes a freshly constructed EpochManager durable
// under dir: it loads the newest valid snapshot, replays the WAL tail in
// one pass (each record checked once and folded per worker, the totals
// reaching the manager only once the whole log checks out), and leaves
// the log open for appending.
func OpenDurableStore(dir string, mgr *EpochManager, opts DurableOptions) (*DurableStore, error) {
	return persist.Open(dir, mgr, opts)
}

// DefaultWALSegmentBytes is the WAL's segment rotation threshold when
// DurableOptions leaves SegmentBytes zero.
const DefaultWALSegmentBytes = persist.DefaultSegmentBytes

// Tally-first ingest (DESIGN.md §8): a Collector pre-aggregates user
// reports at the edge into an exact partial tally — d support counts
// plus a user count — so the wire and the WAL carry one small frame
// where report-level ingest carries thousands, and the zero-copy lane
// folds report batches straight off their wire frames with no
// per-report decoding. Both lanes are bit-identical to report-level
// ingest: support counts are integers and addition is exact wherever
// it happens.
type (
	// Collector is the client-side pre-aggregation SDK: Add/AddBatch
	// fold reports locally (through the same fast paths the server
	// uses), Flush frames the partial tally for POST /v1/partial.
	Collector = ldp.Collector
	// PartialTally is an edge-aggregated partial tally frame's decoded
	// form: node id, advisory epoch hint, support counts, user count.
	PartialTally = ldp.PartialTally
	// CountFrame is a validated view of a partial or sealed tally frame:
	// node id, epoch and total decoded, the counts left as the frame's
	// bytes. It is valid only while those bytes are.
	CountFrame = ldp.CountFrame
	// ReportFrame is a validated view of a report batch frame: the
	// frame's bytes and its report count. Only ValidateReportBatchFrame
	// makes one, and it is valid only while those bytes are.
	ReportFrame = ldp.ReportFrame
)

// ErrStalePartial rejects a partial tally whose epoch hint predates the
// server's sealed watermark; serve answers 409 and the collector
// re-aggregates for the current epoch (partials, unlike sealed tallies,
// are not idempotent and cannot be deduplicated).
var ErrStalePartial = stream.ErrStalePartial

// NewCollector returns an empty edge collector over a domain of size d,
// identified to the server as nodeID.
func NewCollector(nodeID string, d int) (*Collector, error) { return ldp.NewCollector(nodeID, d) }

// MarshalPartial frames a partial tally for the wire; like the tally
// and WAL codecs the frame carries its own CRC-32C.
func MarshalPartial(p *PartialTally) ([]byte, error) { return ldp.MarshalPartial(p) }

// UnmarshalPartial parses and checksums a wire-format partial tally.
func UnmarshalPartial(data []byte) (*PartialTally, error) { return ldp.UnmarshalPartial(data) }

// ValidatePartialFrame checks a wire-format partial tally in place —
// exactly the frames UnmarshalPartial accepts — and returns a view the
// partial lane folds from the wire bytes, with no []int64 decoded.
func ValidatePartialFrame(frame []byte) (CountFrame, error) { return ldp.ValidatePartialFrame(frame) }

// ValidateReportBatchFrame structurally validates a report batch frame
// without decoding it, returning the view the zero-copy ingest lane
// queues, logs and folds — its one admission check. It accepts exactly
// the frames UnmarshalReportBatch accepts.
func ValidateReportBatchFrame(frame []byte) (ReportFrame, error) {
	return ldp.ValidateReportBatchFrame(frame)
}

// OLHKernel names the kernel OLH reports fold on in this process:
// "avx512" when the CPU and OS support the AVX-512 sweep, else
// "generic". Both count bit-identically.
func OLHKernel() string { return ldp.OLHKernel() }

// Scale-out collection tier (DESIGN.md §7): frontend nodes ingest
// disjoint user populations, seal epochs on a shared epoch clock, and
// push CRC-framed sealed tallies to a root, whose SealedMerger runs an
// epoch barrier (dedupe by node and epoch, straggler policy) in front
// of its EpochManager — so the merged window estimates, recovered
// history, and target hysteresis are bit-identical to a single node
// having seen every report.
type (
	// Tally is one frontend's sealed per-epoch aggregate.
	Tally = ldp.Tally
	// SealedMerger is the root's epoch-barrier merge front.
	SealedMerger = stream.SealedMerger
	// MergedEpoch is one sealed epoch's partial-epoch accounting
	// (which expected nodes merged, which were missing).
	MergedEpoch = stream.MergedEpoch
	// SubmitResult describes what the merger did with a tally.
	SubmitResult = stream.SubmitResult
	// SnapshotStore is the root's WAL-less per-seal durability.
	SnapshotStore = persist.SnapshotStore
)

// MarshalTally frames a sealed tally for the node-to-root wire; the
// frame carries its own CRC-32C like the WAL records it derives from.
func MarshalTally(t *Tally) ([]byte, error) { return ldp.MarshalTally(t) }

// UnmarshalTally parses and checksums a wire-format sealed tally.
func UnmarshalTally(data []byte) (*Tally, error) { return ldp.UnmarshalTally(data) }

// ValidateTallyFrame checks a wire-format sealed tally in place, as
// UnmarshalTally does, for SealedMerger.MergeFrame to merge.
func ValidateTallyFrame(frame []byte) (CountFrame, error) { return ldp.ValidateTallyFrame(frame) }

// NewSealedMerger wraps an EpochManager with an epoch barrier over the
// expected frontend nodes.
func NewSealedMerger(mgr *EpochManager, nodes []string) (*SealedMerger, error) {
	return stream.NewSealedMerger(mgr, nodes)
}

// Elastic membership and root failover (DESIGN.md §7): frontends join
// and leave a running cluster via CRC-framed announcements that take
// effect only at epoch boundaries, the root journals every membership
// change and seal into a tiny seal-log beside its snapshots, and a
// standby node tails both to hold a warm merger it can promote when the
// root's lease goes stale — with the frontends' at-least-once re-send
// making the switch lose or double-merge nothing.
type (
	// Announce is a join/leave membership announcement frame.
	Announce = ldp.Announce
	// AnnounceKind distinguishes joins from leaves.
	AnnounceKind = ldp.AnnounceKind
	// MemberChange is one scheduled membership change at an epoch
	// boundary.
	MemberChange = stream.MemberChange
	// SealLog is the root's append-only seal/membership journal.
	SealLog = persist.SealLog
	// SealRecord is one seal-log entry.
	SealRecord = persist.SealRecord
	// Lease is the root data directory's split-brain guard.
	Lease = persist.Lease
	// LeaseInfo describes a lease file's owner and age.
	LeaseInfo = persist.LeaseInfo
	// StandbyTailer keeps a warm copy of the root's merged state.
	StandbyTailer = persist.StandbyTailer
)

// Announce kinds.
const (
	AnnounceJoin  = ldp.AnnounceJoin
	AnnounceLeave = ldp.AnnounceLeave
)

// Seal-log record kinds.
const (
	SealRecordSeal   = persist.SealRecordSeal
	SealRecordMember = persist.SealRecordMember
)

// MarshalAnnounce frames a membership announcement for the wire.
func MarshalAnnounce(a *Announce) ([]byte, error) { return ldp.MarshalAnnounce(a) }

// UnmarshalAnnounce parses and checksums a wire-format announcement.
func UnmarshalAnnounce(data []byte) (*Announce, error) { return ldp.UnmarshalAnnounce(data) }

// OpenSealLog opens (creating if absent) dir's seal-log, truncating any
// torn tail from a crash mid-append.
func OpenSealLog(dir string) (*SealLog, error) { return persist.OpenSealLog(dir) }

// ReadSealLogMembership scans dir's seal-log read-only and returns the
// last record's membership state.
func ReadSealLogMembership(dir string) (members []string, sched []MemberChange, ok bool, err error) {
	return persist.ReadSealLogMembership(dir)
}

// AcquireLease takes dir's root lease for owner, refusing while another
// owner's lease is fresher than staleAfter.
func AcquireLease(dir, owner string, staleAfter time.Duration) (*Lease, error) {
	return persist.AcquireLease(dir, owner, staleAfter)
}

// InspectLease reads dir's lease without taking it.
func InspectLease(dir string) (LeaseInfo, error) { return persist.InspectLease(dir) }

// NewStandbyTailer tails a root data directory, keeping a warm restored
// manager ready for promotion. newMgr builds an empty manager with the
// root's stream config.
func NewStandbyTailer(dir string, newMgr func() (*EpochManager, error)) (*StandbyTailer, error) {
	return persist.NewStandbyTailer(dir, newMgr)
}

// AttachSnapshotStore makes a root merger's manager durable under dir
// via per-seal snapshots (no WAL — frontends re-send tallies the root
// has not durably sealed). The manager's state is already live: a
// StandbyTailer restored it, whether a root boots over its own
// directory or a standby promotes. It refuses a directory holding a
// report-level WAL.
func AttachSnapshotStore(dir string, mgr *EpochManager) (*SnapshotStore, error) {
	return persist.AttachSnapshotStore(dir, mgr)
}

// NewTargetTracker returns a tracker that promotes or demotes a target
// set after stableAfter consecutive identical outlier observations.
func NewTargetTracker(stableAfter int) (*TargetTracker, error) {
	return detect.NewTargetTracker(stableAfter)
}

// ConfidenceInterval returns the two-sided (1-alpha) CLT confidence
// interval for an item's estimated frequency under the protocol's
// theoretical variance.
func ConfidenceInterval(p Protocol, f float64, n int64, alpha float64) (lo, hi float64, err error) {
	return ldp.ConfidenceInterval(p, f, n, alpha)
}

// coreParams converts protocol params to the recovery core's triple.
func coreParams(pr Params) core.Params {
	return core.Params{P: pr.P, Q: pr.Q, Domain: pr.Domain}
}

// Recover runs LDPRecover on a poisoned frequency vector aggregated under
// the protocol described by pr. With Options.Targets set it runs
// LDPRecover* (partial knowledge); with Options.MaliciousOverride set it
// uses externally learnt malicious statistics (LDPRecover-KM).
func Recover(poisoned []float64, pr Params, opts Options) (*Result, error) {
	return core.Recover(poisoned, coreParams(pr), opts)
}

// RecoverWithTargets is shorthand for Recover with partial knowledge of
// the attacker-selected items.
func RecoverWithTargets(poisoned []float64, pr Params, targets []int, eta float64) (*Result, error) {
	return core.Recover(poisoned, coreParams(pr), Options{Eta: eta, Targets: targets})
}

// MaliciousSum returns the learnt summation of malicious frequencies
// (Eq. 21) for a protocol's aggregation parameters.
func MaliciousSum(pr Params) (float64, error) {
	return core.MaliciousSum(coreParams(pr))
}

// ProjectSimplex is the exact Euclidean projection onto the probability
// simplex; RefineKKT is the paper's Algorithm 1 (they compute the same
// point).
func ProjectSimplex(estimate []float64) ([]float64, error) {
	return core.ProjectSimplex(estimate)
}

// RefineKKT is Algorithm 1's iterative KKT refinement.
func RefineKKT(estimate []float64) ([]float64, error) {
	return core.RefineKKT(estimate)
}

// NewManip constructs the untargeted Manip attack.
func NewManip(subsetFraction float64, subsetSeed uint64) (*Manip, error) {
	return attack.NewManip(subsetFraction, subsetSeed)
}

// NewMGA constructs the targeted maximal gain attack.
func NewMGA(targets []int) (*MGA, error) { return attack.NewMGA(targets) }

// NewAdaptive constructs the adaptive attack from an attacker-designed
// distribution; NewRandomAdaptive draws that distribution at random.
func NewAdaptive(dist []float64) (*Adaptive, error) { return attack.NewAdaptive(dist) }

// NewRandomAdaptive draws a random attacker-designed distribution over a
// domain of size d.
func NewRandomAdaptive(r *Rand, d int) (*Adaptive, error) {
	return attack.NewRandomAdaptive(r, d)
}

// NewMGAIPA constructs MGA under input poisoning: malicious inputs are
// target items, but perturbation is honest (§VII-B).
func NewMGAIPA(targets []int, domain int) (*MGAIPA, error) {
	return attack.NewMGAIPA(targets, domain)
}

// NewMultiAdaptive builds k independent adaptive attackers (§VII-C).
func NewMultiAdaptive(r *Rand, k, domain int) (*Multi, error) {
	return attack.NewMultiAdaptive(r, k, domain)
}

// RandomTargets draws r distinct target items from a domain of size d.
func RandomTargets(rand *Rand, d, r int) ([]int, error) {
	return attack.RandomTargets(rand, d, r)
}

// Detection runs the Detection countermeasure baseline with the paper's
// any-target rule.
func Detection(reports []Report, targets []int, pr Params) (*DetectionResult, error) {
	return detect.Detection(reports, targets, pr, detect.AnyTarget)
}

// NewKMeansDefense constructs the k-means subset defense with subset
// sample rate xi.
func NewKMeansDefense(xi float64) (*KMeansDefense, error) {
	return detect.NewKMeansDefense(xi)
}

// RecoverKM integrates k-means-learnt malicious statistics into recovery
// (LDPRecover-KM, §VII-B).
func RecoverKM(poisoned []float64, km *KMResult, pr Params, eta float64) (*Result, error) {
	return detect.RecoverKM(poisoned, km, coreParams(pr), eta)
}

// ZScoreOutliers flags likely attack targets from historical frequency
// series (§V-D's oracle).
func ZScoreOutliers(history [][]float64, current []float64, k int, minZ float64) ([]int, error) {
	return detect.ZScoreOutliers(history, current, k, minZ)
}

// TopIncrease returns the k items with the largest frequency increase.
func TopIncrease(before, after []float64, k int) ([]int, error) {
	return detect.TopIncrease(before, after, k)
}

// MSE is the paper's accuracy metric (Eq. 36).
func MSE(estimate, reference []float64) (float64, error) {
	return metrics.MSE(estimate, reference)
}

// FrequencyGain is the targeted-attack metric (Eq. 37).
func FrequencyGain(estimate, genuine []float64, targets []int) (float64, error) {
	return metrics.FrequencyGain(estimate, genuine, targets)
}

// SyntheticIPUMS and SyntheticFire return the paper-scale dataset
// surrogates (see DESIGN.md §3).
func SyntheticIPUMS() *Dataset { return dataset.SyntheticIPUMS() }

// SyntheticFire returns the Fire dataset surrogate.
func SyntheticFire() *Dataset { return dataset.SyntheticFire() }

// ZipfDataset builds a Zipf(s)-shaped dataset with domain d and n users.
func ZipfDataset(name string, d int, n int64, s float64) (*Dataset, error) {
	return dataset.Zipf(name, d, n, s)
}

// PerturbAll perturbs a whole population described by per-item true
// counts, returning one report per user.
func PerturbAll(p Protocol, r *Rand, trueCounts []int64) ([]Report, error) {
	return ldp.PerturbAll(p, r, trueCounts)
}

// PerturbScratch holds the reusable arenas behind PerturbAllInto. Each
// call overwrites the reports returned by the previous call with the
// same scratch.
type PerturbScratch = ldp.PerturbScratch

// PerturbAllInto is PerturbAll writing report payloads into the
// scratch's bulk arenas, so steady-state perturbation allocates nothing
// per report. The draw stream (and therefore every report) is identical
// to PerturbAll under the same generator state.
func PerturbAllInto(p Protocol, r *Rand, trueCounts []int64, s *PerturbScratch) ([]Report, error) {
	return ldp.PerturbAllInto(p, r, trueCounts, s)
}

// SparseUnaryReport is a unary-encoding (OUE/SUE) report stored as its
// sorted support list; Perturb returns it instead of a dense bitset
// report when q is small enough that only generating the set bits wins.
type SparseUnaryReport = ldp.SparseUnaryReport

// Unbias converts raw support counts from total reports into unbiased
// frequency estimates via Eq. (11).
func Unbias(counts []int64, total int64, pr Params) ([]float64, error) {
	return ldp.Unbias(counts, total, pr)
}

// GenerateHistory synthesizes historical genuine frequency series for
// outlier-based target identification.
func GenerateHistory(d *Dataset, periods int, drift float64, r *Rand) ([][]float64, error) {
	return dataset.GenerateHistory(d, periods, drift, r)
}

// Harmony is the mean-estimation protocol of §VII-A (binary
// discretization + randomized response); HarmonyResult carries mean
// recovery outputs.
type (
	Harmony       = harmony.Mean
	HarmonyResult = harmony.RecoverResult
)

// NewHarmony constructs the Harmony mean-estimation protocol.
func NewHarmony(epsilon float64) (*Harmony, error) { return harmony.New(epsilon) }

// RecoverHarmonyMean runs LDPRecover on poisoned Harmony category
// frequencies and returns the recovered mean (§VII-A). Pass the promoted
// category (harmony indices: 0 = -1, 1 = +1) as targets when known.
func RecoverHarmonyMean(poisoned []float64, epsilon, eta float64, targets []int) (*HarmonyResult, error) {
	return harmony.RecoverMean(poisoned, epsilon, eta, targets)
}

// HarmonyMean converts the two Harmony category frequencies into a mean.
func HarmonyMean(freqs []float64) (float64, error) { return harmony.EstimateMean(freqs) }

// Key-value collection under LDP (the paper's §VIII future-work item),
// with joint frequency/mean recovery; see internal/kv for the protocol.
type (
	// KVProtocol is the KV-GRR key-value mechanism.
	KVProtocol = kv.Protocol
	// KVPair is one user's ⟨key, value⟩ datum.
	KVPair = kv.Pair
	// KVReport is a perturbed key-value submission.
	KVReport = kv.Report
	// KVAggregate is the raw server-side tally.
	KVAggregate = kv.Aggregate
	// KVEstimate holds per-key frequency and mean estimates.
	KVEstimate = kv.Estimate
	// KVRecoverOptions configures KV recovery.
	KVRecoverOptions = kv.RecoverOptions
	// KVRecovered holds recovered frequencies and means.
	KVRecovered = kv.Recovered
)

// NewKV constructs the key-value protocol over d keys with budget split
// (eps1 for keys, eps2 for values).
func NewKV(d int, eps1, eps2 float64) (*KVProtocol, error) { return kv.New(d, eps1, eps2) }

// AggregateKVReports tallies key-value reports over a domain of size d.
func AggregateKVReports(reports []KVReport, d int) (*KVAggregate, error) {
	return kv.AggregateReports(reports, d)
}

// Heavy-hitter identification (PEM) over large domains, with a poisoning
// defense hook; see internal/hh.
type (
	// HHConfig parameterizes heavy-hitter identification.
	HHConfig = hh.Config
	// HHResult carries the identified items and their estimates.
	HHResult = hh.Result
)

// IdentifyHeavyHitters runs prefix-extension heavy-hitter identification
// over the users' items (each in [0, 2^cfg.Bits)).
func IdentifyHeavyHitters(r *Rand, cfg HHConfig, items []int) (*HHResult, error) {
	return hh.Identify(r, cfg, items, nil)
}

// SuppressHHTargets returns a per-level defense for IdentifyHeavyHitters
// that deducts a suspected promotion attack's expected gain (Eq. 30
// restricted to the candidate set).
func SuppressHHTargets(bits int, suspects []int, eta float64) func(int, []int, []float64, Params, int64) []float64 {
	return hh.SuppressTargets(bits, suspects, eta)
}
