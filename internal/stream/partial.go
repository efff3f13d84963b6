package stream

import (
	"errors"
	"fmt"

	"ldprecover/internal/ldp"
)

// ErrStalePartial rejects a partial tally whose epoch hint predates the
// manager's sealed watermark: the epoch the collector aggregated for is
// already sealed, so folding the partial into the open epoch would
// shift user mass across an epoch boundary the collector did not
// intend. Serve maps it to 409, mirroring the sealed-tally dedupe
// taxonomy (a stale *tally* is a duplicate no-op because tallies are
// idempotent by (node, epoch); a stale *partial* is not idempotent, so
// it must be rejected loudly and the collector re-aggregates for the
// current epoch).
var ErrStalePartial = errors.New("stream: partial tally epoch hint behind sealed watermark")

// AddPartial folds an edge-aggregated partial tally into the open
// epoch. The epoch hint is advisory, clamped by the server's clock: a
// hint at or ahead of the sealed watermark folds into the currently
// open epoch (the collector cannot know exactly when the server seals;
// counts are additive so the fold is exact wherever it lands), while a
// hint behind the watermark fails with ErrStalePartial and folds
// nothing. The staleness check and the fold are atomic with respect to
// Seal, so a partial never lands in an epoch sealed before its check.
func (m *EpochManager) AddPartial(p *ldp.PartialTally) error {
	if p == nil {
		return errors.New("stream: nil partial tally")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.stalePartial(p.EpochHint); err != nil {
		return err
	}
	// Folding under m.mu (Seal's lock) pins the epoch the check decided
	// on; the shard-lock nesting matches Seal's own m.mu → shard order.
	return m.live.AddCounts(p.Counts, p.Users)
}

// AddPartialFrame is AddPartial for a validated wire frame: the same
// atomic staleness check, with the counts folded straight from the
// frame's bytes — the lane the server and WAL replay take.
func (m *EpochManager) AddPartialFrame(f ldp.CountFrame) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.stalePartial(f.Epoch); err != nil {
		return err
	}
	return m.live.AddPartialFrame(f)
}

// stalePartial is the staleness check both partial lanes make under
// m.mu: ErrStalePartial for a hint behind the sealed watermark.
func (m *EpochManager) stalePartial(hint int) error {
	if hint < m.seq {
		return fmt.Errorf("%w: hint %d, watermark %d", ErrStalePartial, hint, m.seq)
	}
	return nil
}
