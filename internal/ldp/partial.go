package ldp

import (
	"fmt"
	"slices"
)

// PartialTally is an edge-side pre-aggregated partial: the support
// counts of a batch of users folded together *before* they cross the
// wire. It is the unit of the tally-first ingest lane (DESIGN.md §8):
// support counting is exactly additive, so a frontend-adjacent SDK can
// collapse n user reports into d counts locally and the server-side
// fold is bit-identical to having ingested every report individually —
// the same insight the cluster tier proved for sealed tallies, pushed
// one hop further toward the edge.
//
// Unlike a sealed Tally, a partial does not claim an epoch: the epoch
// clock lives on the server. EpochHint is the collector's belief, used
// only for staleness rejection and otherwise clamped into the epoch
// that is open when the frame arrives.
type PartialTally struct {
	// NodeID identifies the collector (SDK instance) that built the
	// partial — diagnostics and stats attribution, not dedupe: a partial
	// is not idempotent the way a sealed (NodeID, Epoch) tally is, so
	// the transport must not re-send one it got a 2xx for.
	NodeID string
	// EpochHint is the epoch the collector believed was open when it
	// flushed. Hints older than the receiving manager's sealed watermark
	// are rejected as stale; hints at or ahead of it are clamped into
	// the currently open epoch.
	EpochHint int
	// Counts are the pre-aggregated raw support counts (length = domain).
	Counts []int64
	// Users is the number of user reports folded into Counts.
	Users int64
}

// Validate checks the partial's structural invariants: a non-empty node
// id, a non-negative epoch hint and user count, and non-negative counts
// over a plausible domain.
func (p *PartialTally) Validate() error {
	return validateCounts("partial tally", p.NodeID, p.EpochHint, p.Users, p.Counts)
}

// Clone returns a deep copy.
func (p *PartialTally) Clone() *PartialTally {
	return &PartialTally{NodeID: p.NodeID, EpochHint: p.EpochHint,
		Counts: slices.Clone(p.Counts), Users: p.Users}
}

// A partial travels in the count frame it shares with sealed tallies
// (tally.go) under its own "LP" magic: an epoch hint and a user count
// where a tally carries a sealed epoch and a report total. Like a
// tally, a partial crosses a node boundary and is WAL-appended
// verbatim, so the frame carries its own checksum.
var partialMagic = [2]byte{'L', 'P'}

// MarshalPartial frames a partial tally for the wire.
func MarshalPartial(p *PartialTally) ([]byte, error) {
	if p == nil {
		return nil, fmt.Errorf("%w: marshaling a nil partial tally", ErrCodec)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return marshalCountFrame(partialMagic, p.NodeID, p.EpochHint, p.Users, p.Counts), nil
}

// UnmarshalPartial parses a wire-format partial tally.
func UnmarshalPartial(data []byte) (*PartialTally, error) {
	f, err := ValidatePartialFrame(data)
	if err != nil {
		return nil, err
	}
	return &PartialTally{NodeID: f.NodeID, EpochHint: f.Epoch, Counts: f.decodeCounts(), Users: f.Total}, nil
}

// ValidatePartialFrame checks frame as an "LP" count frame — accepting
// exactly the frames UnmarshalPartial accepts — and returns a view of it.
func ValidatePartialFrame(frame []byte) (CountFrame, error) {
	return validateCountFrame(frame, partialMagic, "partial tally")
}

// AddPartialFrame folds a validated partial straight from its wire
// bytes under a single shard lock. Bit-identical to UnmarshalPartial +
// AddCounts(p.Counts, p.Users); on a domain mismatch nothing is folded.
func (sa *ShardedAccumulator) AddPartialFrame(f CountFrame) error {
	if f.Domain() != sa.domain {
		return errLenMismatch(f.Domain(), sa.domain)
	}
	sh := sa.shard()
	sh.mu.Lock()
	addCountBytes(sh.acc.counts, f.counts)
	sh.acc.total += f.Total
	sh.mu.Unlock()
	sa.gen.Add(1)
	return nil
}

// Collector is the edge pre-aggregation SDK: a frontend-adjacent client
// folds its users' reports into a local partial tally and ships d
// counts per flush instead of n reports. Ingest runs through the same
// type-specialized AddBatch fast paths the server uses (Harley–Seal
// bit-plane counting for dense unary, premixed item-major sweeps for
// OLH), so an edge box can absorb its population at memory speed; the
// server-side fold of the flushed partial is bit-identical to the
// server having ingested every report itself.
//
// A Collector is NOT safe for concurrent use — run one per goroutine
// and flush independently (partials merge exactly, in any grouping), or
// serialize access externally. The zero value is not usable; construct
// with NewCollector.
type Collector struct {
	nodeID string
	acc    *Accumulator
}

// NewCollector returns an empty collector over a domain of size d,
// identified by nodeID in the frames it flushes.
func NewCollector(nodeID string, d int) (*Collector, error) {
	if nodeID == "" || len(nodeID) > maxTallyNodeID {
		return nil, fmt.Errorf("%w: collector node id length %d outside [1, %d]",
			ErrCodec, len(nodeID), maxTallyNodeID)
	}
	acc, err := NewAccumulator(d)
	if err != nil {
		return nil, err
	}
	return &Collector{nodeID: nodeID, acc: acc}, nil
}

// Domain returns the domain size d.
func (c *Collector) Domain() int { return len(c.acc.counts) }

// Users returns the number of user reports folded in since the last
// flush or reset.
func (c *Collector) Users() int64 { return c.acc.total }

// Add folds one user report into the pending partial.
func (c *Collector) Add(rep Report) error { return c.acc.Add(rep) }

// AddBatch folds a slice of user reports through the type-specialized
// batch fast paths; it is the preferred ingest call when reports arrive
// in chunks.
func (c *Collector) AddBatch(reps []Report) error { return c.acc.AddBatch(reps) }

// AddCounts folds pre-aggregated support counts from total users — the
// path for partials computed even further out (another process, a batch
// perturber's output).
func (c *Collector) AddCounts(counts []int64, total int64) error {
	if len(counts) != len(c.acc.counts) {
		return errLenMismatch(len(counts), len(c.acc.counts))
	}
	if total < 0 {
		return fmt.Errorf("ldp: negative report total %d", total)
	}
	for v, cnt := range counts {
		if cnt < 0 {
			return errNegCount(v, cnt)
		}
	}
	for v, cnt := range counts {
		c.acc.counts[v] += cnt
	}
	c.acc.total += total
	return nil
}

// Partial snapshots the pending aggregate as a partial tally carrying
// the given epoch hint. The collector keeps its state; use Flush for
// the ship-and-reset cycle.
func (c *Collector) Partial(epochHint int) (*PartialTally, error) {
	p := &PartialTally{NodeID: c.nodeID, EpochHint: epochHint,
		Counts: slices.Clone(c.acc.counts), Users: c.acc.total}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Flush frames the pending aggregate as a wire-format partial tally
// carrying the given epoch hint and resets the collector for the next
// batch. This is the SDK's steady-state cycle: accumulate a batch,
// Flush, POST the frame to /v1/partial.
func (c *Collector) Flush(epochHint int) ([]byte, error) {
	p, err := c.Partial(epochHint)
	if err != nil {
		return nil, err
	}
	frame, err := MarshalPartial(p)
	if err != nil {
		return nil, err
	}
	c.Reset()
	return frame, nil
}

// Reset discards the pending aggregate.
func (c *Collector) Reset() {
	for v := range c.acc.counts {
		c.acc.counts[v] = 0
	}
	c.acc.total = 0
}
