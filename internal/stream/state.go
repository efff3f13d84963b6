package stream

import (
	"fmt"

	"ldprecover/internal/detect"
)

// ManagerState is an exportable deep copy of everything an EpochManager
// accumulates across seals: the sealed-epoch ring, the incrementally
// maintained sliding window, the recovered-baseline history that drives
// target identification, the TargetTracker hysteresis, and the sequence
// counters. It is the unit the persistence layer snapshots at each seal
// and restores on boot, so a restarted server keeps the historical view
// LDPRecover* depends on (paper §V-D identifies targets from past
// estimates) instead of silently downgrading to LDPRecover.
//
// The live (unsealed) accumulator is deliberately not part of the state:
// its reports are reconstructed by replaying the write-ahead log tail in
// one pass — each record folded as a wire frame into a per-worker
// accumulator, the totals then added with AddCounts — which is exact
// because support counting is additive.
// Configuration (window, thresholds, protocol parameters) is not state
// either — it comes from NewEpochManager on both sides of a restart.
type ManagerState struct {
	// Seq is the next epoch's sequence number (== epochs sealed so far).
	Seq int
	// Sealed is the total report count across all sealed epochs ever.
	Sealed int64
	// Ring holds the retained sealed epochs, oldest first.
	Ring []Epoch
	// WinCounts/WinTotal/WinEpochs are the sliding window's incremental
	// aggregate over the newest WinEpochs epochs of the ring.
	WinCounts []int64
	WinTotal  int64
	WinEpochs int
	// History is the rolling recovered-estimate baseline, oldest first.
	History [][]float64
	// Tracker is the target-identification hysteresis state.
	Tracker detect.TrackerState
	// Members and Sched are the epoch barrier's membership: the member
	// set and the pending join/leave schedule. SealedMerger.SnapshotState
	// fills them and SealedMerger.SetMembership restores them; an
	// EpochManager neither fills nor reads them, so they are empty on a
	// single node or a frontend.
	Members []string
	Sched   []MemberChange
}

// SnapshotState exports a deep copy of the manager's cross-epoch state.
// It is safe to call concurrently with ingest and seals; the copy is a
// consistent point-in-time view (taken under the same lock Seal holds).
func (m *EpochManager) SnapshotState() ManagerState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := ManagerState{
		Seq:       m.seq,
		Sealed:    m.sealed,
		Ring:      make([]Epoch, len(m.ring)),
		WinCounts: append([]int64(nil), m.winCounts...),
		WinTotal:  m.winTotal,
		WinEpochs: m.winEpochs,
		Tracker:   m.tracker.State(),
	}
	for i, ep := range m.ring {
		st.Ring[i] = Epoch{Seq: ep.Seq, Total: ep.Total,
			Counts: append([]int64(nil), ep.Counts...)}
	}
	if rows := m.history.Rows(); len(rows) > 0 {
		st.History = make([][]float64, len(rows))
		for i, h := range rows {
			st.History[i] = append([]float64(nil), h...)
		}
	}
	return st
}

// RestoreState replaces the manager's cross-epoch state with a deep copy
// of st. It may only be called on a freshly constructed manager (nothing
// sealed, nothing ingested): restore is a boot-time operation, not a
// rollback. The caller then replays any write-ahead-log tail to rebuild
// the live epoch — folded per worker through AddReportFrame and committed
// with one AddCounts — after which window estimates are bit-identical to the uninterrupted run — Latest() is recomputed here
// from the restored window and tracker state, which reproduces the
// pre-restart estimate float for float because recovery is
// deterministic.
func (m *EpochManager) RestoreState(st ManagerState) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.seq != 0 || m.sealed != 0 || m.live.Total() != 0 {
		return fmt.Errorf("stream: restoring into a manager that already holds state (%d epochs, %d live reports)",
			m.seq, m.live.Total())
	}
	d := m.cfg.Params.Domain
	if len(st.WinCounts) != d {
		return fmt.Errorf("stream: restored window counts have domain %d, manager has %d",
			len(st.WinCounts), d)
	}
	if st.Seq < len(st.Ring) {
		return fmt.Errorf("stream: restored seq %d below ring size %d", st.Seq, len(st.Ring))
	}
	if len(st.Ring) > m.cfg.History {
		return fmt.Errorf("stream: restored ring holds %d epochs, retention is %d",
			len(st.Ring), m.cfg.History)
	}
	if st.WinEpochs < 0 || st.WinEpochs > len(st.Ring) || st.WinEpochs > m.cfg.Window {
		return fmt.Errorf("stream: restored window spans %d epochs (ring %d, window %d)",
			st.WinEpochs, len(st.Ring), m.cfg.Window)
	}
	if st.WinTotal < 0 || st.Sealed < 0 {
		return fmt.Errorf("stream: negative restored totals (window %d, sealed %d)",
			st.WinTotal, st.Sealed)
	}
	if len(st.History) > m.cfg.History {
		return fmt.Errorf("stream: restored history holds %d periods, retention is %d",
			len(st.History), m.cfg.History)
	}
	for i, ep := range st.Ring {
		if len(ep.Counts) != d {
			return fmt.Errorf("stream: restored epoch %d has domain %d, manager has %d",
				ep.Seq, len(ep.Counts), d)
		}
		if ep.Total < 0 {
			return fmt.Errorf("stream: restored epoch %d has negative total %d", ep.Seq, ep.Total)
		}
		if i > 0 && ep.Seq <= st.Ring[i-1].Seq {
			return fmt.Errorf("stream: restored ring out of order at epoch %d", ep.Seq)
		}
	}
	for i, h := range st.History {
		if len(h) != d {
			return fmt.Errorf("stream: restored history period %d has domain %d, manager has %d",
				i, len(h), d)
		}
	}
	if st.Tracker.Streak < 0 {
		return fmt.Errorf("stream: negative restored tracker streak %d", st.Tracker.Streak)
	}

	m.seq = st.Seq
	m.sealed = st.Sealed
	m.ring = make([]Epoch, len(st.Ring))
	for i, ep := range st.Ring {
		m.ring[i] = Epoch{Seq: ep.Seq, Total: ep.Total,
			Counts: append([]int64(nil), ep.Counts...)}
	}
	copy(m.winCounts, st.WinCounts)
	m.winTotal = st.WinTotal
	m.winEpochs = st.WinEpochs
	history, err := detect.NewHistory(d, m.cfg.History)
	if err != nil {
		return err
	}
	for _, h := range st.History {
		history.Push(append([]float64(nil), h...))
	}
	m.history = history
	if err := m.tracker.SetState(st.Tracker); err != nil {
		return err
	}

	// Rebuild the serving estimate for the restored window. advance=false
	// recomputes exactly what the pre-restart Seal published: the tracker
	// already holds its post-observation state, so Stable() is the target
	// set that seal used, and Unbias/Recover are deterministic. The
	// window ends at the ring's newest epoch, which is seq-1 unless the
	// clock was advanced past it (AdvanceEpochTo) before the snapshot.
	m.latest = nil
	if m.seq > 0 {
		newest := m.seq - 1
		if len(m.ring) > 0 {
			newest = m.ring[len(m.ring)-1].Seq
		}
		est, err := m.estimateLocked(m.winCounts, m.winTotal, newest, m.winEpochs, false)
		if err != nil {
			return err
		}
		m.latest = est
	}
	return nil
}
