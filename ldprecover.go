// Package ldprecover is the client API of this repository: a Go
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
// The package serves code outside this module. The commands under cmd/
// import the internal packages directly, so server plumbing (the WAL,
// leases, seal logs, standby tailing, membership frames) is not exported
// here.
//
// See README.md for the quick start, package layout and how to run the
// paper's figure benchmarks; examples/ for runnable end-to-end scenarios;
// and DESIGN.md for the paper-to-package map.
package ldprecover

import (
	"ldprecover/internal/attack"
	"ldprecover/internal/core"
	"ldprecover/internal/dataset"
	"ldprecover/internal/detect"
	"ldprecover/internal/harmony"
	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
	"ldprecover/internal/stats"
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

// MarshalReportBatch frames many reports into one wire batch, the unit
// the serving layer ingests per HTTP request.
func MarshalReportBatch(reps []Report) ([]byte, error) { return ldp.MarshalReportBatch(reps) }

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
)

// NewEpochManager builds a streaming epoch manager.
func NewEpochManager(cfg StreamConfig) (*EpochManager, error) { return stream.NewEpochManager(cfg) }

// Tally-first ingest (DESIGN.md §8): a Collector pre-aggregates user
// reports at the edge into an exact partial tally — d support counts
// plus a user count — so the wire and the WAL carry one small frame
// where report-level ingest carries thousands. It is bit-identical to
// report-level ingest: support counts are integers and addition is
// exact wherever it happens.
type (
	// Collector is the client-side pre-aggregation SDK: Add/AddBatch
	// fold reports locally (through the same fast paths the server
	// uses), Flush frames the partial tally for POST /v1/partial.
	Collector = ldp.Collector
	// CountFrame is a validated view of a partial or sealed tally frame:
	// node id, epoch and total decoded, the counts left as the frame's
	// bytes. It is valid only while those bytes are.
	CountFrame = ldp.CountFrame
)

// NewCollector returns an empty edge collector over a domain of size d,
// identified to the server as nodeID.
func NewCollector(nodeID string, d int) (*Collector, error) { return ldp.NewCollector(nodeID, d) }

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
)

// MarshalTally frames a sealed tally for the node-to-root wire; the
// frame carries its own CRC-32C like the WAL records it derives from.
func MarshalTally(t *Tally) ([]byte, error) { return ldp.MarshalTally(t) }

// ValidateTallyFrame checks a wire-format sealed tally in place, CRC
// included, for SealedMerger.MergeFrame to merge.
func ValidateTallyFrame(frame []byte) (CountFrame, error) { return ldp.ValidateTallyFrame(frame) }

// NewSealedMerger wraps an EpochManager with an epoch barrier over the
// expected frontend nodes.
func NewSealedMerger(mgr *EpochManager, nodes []string) (*SealedMerger, error) {
	return stream.NewSealedMerger(mgr, nodes)
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

// NewManip constructs the untargeted Manip attack.
func NewManip(subsetFraction float64, subsetSeed uint64) (*Manip, error) {
	return attack.NewManip(subsetFraction, subsetSeed)
}

// NewMGA constructs the targeted maximal gain attack.
func NewMGA(targets []int) (*MGA, error) { return attack.NewMGA(targets) }

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

// MSE is the paper's accuracy metric (Eq. 36).
func MSE(estimate, reference []float64) (float64, error) {
	return stats.MSE(estimate, reference)
}

// FrequencyGain is the targeted-attack metric (Eq. 37).
func FrequencyGain(estimate, genuine []float64, targets []int) (float64, error) {
	return stats.FrequencyGain(estimate, genuine, targets)
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
