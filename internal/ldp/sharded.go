package ldp

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ShardedAccumulator is the concurrency-safe ingest engine: reports from
// many goroutines fan out across independently locked shards and merge
// into a single aggregate on Snapshot. Support counting is additive, so a
// snapshot is bit-identical to feeding the same reports through one
// sequential Accumulator, regardless of how they were distributed over
// shards — the sharded/sequential property tests rely on exactly that.
//
// Ingest paths, fastest first:
//
//   - AddCounts folds a pre-aggregated partial (e.g. SimulateGenuineCounts
//     output or a remote collector's sub-total) in one lock acquisition;
//   - AddBatch folds a slice of reports under one lock;
//   - Add folds a single report, choosing a shard round-robin.
//
// All methods are safe for concurrent use.
//
// Reads (Counts, Estimate, Snapshot) merge the shards, O(shards·d) each.
// Total stays a direct O(shards) sum so monitors can poll it during
// continuous ingest. SealEpoch closes the current epoch — it atomically
// swaps every shard's tally out from under concurrent ingest and returns
// the sealed counts and total, the primitive the stream layer builds epochs
// from; the stream layer reads the live epoch only through SealEpoch,
// Total and Mutations.
type ShardedAccumulator struct {
	domain int
	shards []accShard
	cursor atomic.Uint64

	// gen counts completed mutations (ingest, reset, seal). Bumped after
	// the shard lock is released, so a reader that observes a bump also
	// observes the mutation itself when it locks the shards.
	gen atomic.Uint64

	// spare holds zeroed tallies, one per shard, that the last SealEpoch
	// swapped out; the next takes them as its fresh set. A seal that
	// finds none (the first, or one racing another) allocates.
	spare atomic.Pointer[[][]int64]
}

// accShard pads each shard to its own cache lines so mutexes and totals
// on neighbouring shards do not false-share under heavy ingest.
type accShard struct {
	mu  sync.Mutex
	acc Accumulator
	_   [64]byte
}

// NewShardedAccumulator returns an empty sharded aggregator over a domain
// of size d. shards <= 0 selects GOMAXPROCS shards.
func NewShardedAccumulator(d, shards int) (*ShardedAccumulator, error) {
	if d < 2 {
		return nil, fmt.Errorf("ldp: accumulator domain %d < 2", d)
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	sa := &ShardedAccumulator{domain: d, shards: make([]accShard, shards)}
	for i := range sa.shards {
		sa.shards[i].acc.counts = make([]int64, d)
	}
	return sa, nil
}

// Domain returns the domain size d.
func (sa *ShardedAccumulator) Domain() int { return sa.domain }

// Shards returns the shard count.
func (sa *ShardedAccumulator) Shards() int { return len(sa.shards) }

// shard returns the next ingest shard round-robin. Distribution across
// shards does not affect the aggregate, only contention.
func (sa *ShardedAccumulator) shard() *accShard {
	return &sa.shards[sa.cursor.Add(1)%uint64(len(sa.shards))]
}

// Add folds one report into the aggregate.
func (sa *ShardedAccumulator) Add(rep Report) error {
	if rep == nil {
		return errors.New("ldp: nil report")
	}
	sh := sa.shard()
	sh.mu.Lock()
	rep.AddSupports(sh.acc.counts)
	sh.acc.total++
	sh.mu.Unlock()
	sa.gen.Add(1)
	return nil
}

// AddBatch folds a slice of reports under a single lock acquisition
// through the accumulator's type-specialized batch fast paths (bit-plane
// counting for dense unary runs, premixed item-major sweeps for OLH); it
// is the preferred ingest path when reports arrive in chunks.
func (sa *ShardedAccumulator) AddBatch(reps []Report) error {
	for i, rep := range reps {
		if rep == nil {
			return fmt.Errorf("ldp: nil report at index %d", i)
		}
	}
	if len(reps) == 0 {
		return nil
	}
	sh := sa.shard()
	sh.mu.Lock()
	sh.acc.addBatch(reps)
	sh.mu.Unlock()
	sa.gen.Add(1)
	return nil
}

// AddCounts folds pre-aggregated support counts from total reports, the
// ingest path for SimulateGenuineCounts output and for partial aggregates
// computed elsewhere (another process, a remote collector).
func (sa *ShardedAccumulator) AddCounts(counts []int64, total int64) error {
	if len(counts) != sa.domain {
		return errLenMismatch(len(counts), sa.domain)
	}
	if total < 0 {
		return fmt.Errorf("ldp: negative report total %d", total)
	}
	for v, c := range counts {
		if c < 0 {
			return errNegCount(v, c)
		}
	}
	sh := sa.shard()
	sh.mu.Lock()
	for v, c := range counts {
		sh.acc.counts[v] += c
	}
	sh.acc.total += total
	sh.mu.Unlock()
	sa.gen.Add(1)
	return nil
}

// Merge folds a snapshot of another sharded accumulator into this one.
// The other accumulator is left untouched and may keep ingesting.
func (sa *ShardedAccumulator) Merge(other *ShardedAccumulator) error {
	if other == nil {
		return errors.New("ldp: nil accumulator")
	}
	if other.domain != sa.domain {
		return fmt.Errorf("ldp: merging accumulators over domains %d and %d",
			other.domain, sa.domain)
	}
	snap := other.Snapshot()
	return sa.AddCounts(snap.counts, snap.total)
}

// Mutations returns the accumulator's mutation generation: a counter
// bumped after every completed ingest, reset, or seal. Callers that
// record the generation at one point can later ask, in O(1), whether
// anything has touched the accumulator since — the stream layer's
// sealed-counts hand-off uses it to skip the O(shards·d) live merge
// when the live accumulator is provably untouched (a root or merger
// node never ingests raw reports, so it always is).
func (sa *ShardedAccumulator) Mutations() uint64 { return sa.gen.Load() }

// Total returns the number of reports folded in so far. It sums the
// per-shard totals directly — O(shards), no count merge — so monitoring
// loops can poll it during continuous ingest without paying Snapshot's
// O(shards·d) merge on every call.
func (sa *ShardedAccumulator) Total() int64 {
	var total int64
	for i := range sa.shards {
		sh := &sa.shards[i]
		sh.mu.Lock()
		total += sh.acc.total
		sh.mu.Unlock()
	}
	return total
}

// Snapshot merges all shards into a fresh sequential Accumulator owned by
// the caller. The sharded accumulator itself is unchanged and may keep
// ingesting; concurrent Adds may or may not be included, but every
// snapshot is a consistent prefix-sum of completed ingest calls per shard.
func (sa *ShardedAccumulator) Snapshot() *Accumulator {
	out := &Accumulator{counts: make([]int64, sa.domain)}
	for i := range sa.shards {
		sh := &sa.shards[i]
		sh.mu.Lock()
		for v, c := range sh.acc.counts {
			out.counts[v] += c
		}
		out.total += sh.acc.total
		sh.mu.Unlock()
	}
	return out
}

// SealEpoch closes the current epoch: every shard's tally is swapped out
// for a zeroed one and the swapped tallies merge into the returned sealed
// counts and total, which the caller owns and no further ingest can
// touch. Concurrent AddBatch/Add/AddCounts calls are never stopped —
// each shard is locked only for a slice swap — and every ingest call
// lands entirely in either the sealed epoch or the next one: an ingest
// holds one shard lock for its whole mutation, so the seal's swap
// observes it completely or not at all.
// Counts are conserved exactly — the sum of sealed epochs plus the live
// tally always equals everything ingested.
func (sa *ShardedAccumulator) SealEpoch() (counts []int64, total int64) {
	// Take the replacement tallies outside the locks so each shard is
	// held only for the swap itself. The set is ours alone: Swap hands
	// it to exactly one seal.
	spare := sa.spare.Swap(nil)
	if spare == nil {
		fresh := make([][]int64, len(sa.shards))
		for i := range fresh {
			fresh[i] = make([]int64, sa.domain)
		}
		spare = &fresh
	}
	tallies := *spare
	counts = make([]int64, sa.domain)
	for i := range sa.shards {
		sh := &sa.shards[i]
		sh.mu.Lock()
		tallies[i], sh.acc.counts = sh.acc.counts, tallies[i]
		total += sh.acc.total
		sh.acc.total = 0
		sh.mu.Unlock()
	}
	// Merge outside the locks: the swapped slices are exclusively ours.
	// Zeroed, they become the next seal's replacement set.
	for _, tally := range tallies {
		for v, c := range tally {
			counts[v] += c
		}
		clear(tally)
	}
	sa.spare.Store(spare)
	sa.gen.Add(1)
	return counts, total
}

// Reset zeroes all shards.
func (sa *ShardedAccumulator) Reset() {
	for i := range sa.shards {
		sh := &sa.shards[i]
		sh.mu.Lock()
		for v := range sh.acc.counts {
			sh.acc.counts[v] = 0
		}
		sh.acc.total = 0
		sh.mu.Unlock()
	}
	sa.gen.Add(1)
}

// Counts returns a copy of the merged raw support counts.
func (sa *ShardedAccumulator) Counts() []int64 { return sa.Snapshot().counts }

// Estimate produces unbiased frequency estimates for the current merged
// aggregate under the protocol parameters pr.
func (sa *ShardedAccumulator) Estimate(pr Params) ([]float64, error) {
	return sa.Snapshot().Estimate(pr)
}
