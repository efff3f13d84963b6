package ldp

import (
	"ldprecover/internal/rng"
)

// PerturbScratch holds the reusable buffers behind PerturbAllInto. One
// scratch serves one pipeline: every call invalidates the reports
// returned by the previous call with the same scratch (their backing
// arenas are overwritten), which is exactly the steady-state loop —
// perturb, ingest, repeat — where the whole population round-trips with
// zero per-report allocations.
type PerturbScratch struct {
	reports []Report
	olh     []OLHReport
	grr     []GRRReport
	bitsets []Bitset
	words   []uint64
}

// growReports returns s.reports resized to n, reusing capacity.
func (s *PerturbScratch) growReports(n int) []Report {
	if cap(s.reports) < n {
		s.reports = make([]Report, n)
	}
	s.reports = s.reports[:n]
	return s.reports
}

// PerturbAll perturbs a whole population described by per-item true
// counts, returning one report per user (report-level exact simulation).
// Report order is deterministic given the generator state: users are
// processed item by item. It is PerturbAllInto with a private scratch,
// so the returned reports own their arenas.
func PerturbAll(p Protocol, r *rng.Rand, trueCounts []int64) ([]Report, error) {
	return PerturbAllInto(p, r, trueCounts, nil)
}

// PerturbAllInto is PerturbAll writing into the scratch's arenas: report
// payloads (bitset words, OLH and GRR bodies) live in bulk buffers that
// are reused call over call, and the interface slice boxes pointers into
// those arenas (or one-pointer structs), so steady-state perturbation
// allocates nothing per report. A nil scratch behaves like PerturbAll.
// The draw stream is identical to calling p.Perturb once per user in the
// same order, and the equivalence tests pin that bit-exactly.
func PerturbAllInto(p Protocol, r *rng.Rand, trueCounts []int64, s *PerturbScratch) ([]Report, error) {
	if r == nil {
		return nil, ErrNilRand
	}
	d := p.Params().Domain
	n, err := validateTrueCounts(trueCounts, d)
	if err != nil {
		return nil, err
	}
	if s == nil {
		s = &PerturbScratch{}
	}
	reports := s.growReports(int(n))
	switch proto := p.(type) {
	case *OUE:
		perturbUnaryAllInto(proto.sampler, r, trueCounts, s, reports)
	case *SUE:
		perturbUnaryAllInto(proto.sampler, r, trueCounts, s, reports)
	case *OLH:
		if cap(s.olh) < len(reports) {
			s.olh = make([]OLHReport, len(reports))
		}
		s.olh = s.olh[:len(reports)]
		idx := 0
		for v, c := range trueCounts {
			for k := int64(0); k < c; k++ {
				s.olh[idx] = proto.perturbOLH(r, v)
				reports[idx] = &s.olh[idx]
				idx++
			}
		}
	case *GRR:
		if cap(s.grr) < len(reports) {
			s.grr = make([]GRRReport, len(reports))
		}
		s.grr = s.grr[:len(reports)]
		idx := 0
		for v, c := range trueCounts {
			for k := int64(0); k < c; k++ {
				s.grr[idx] = proto.perturbGRR(r, v)
				reports[idx] = &s.grr[idx]
				idx++
			}
		}
	default:
		idx := 0
		for v, c := range trueCounts {
			for k := int64(0); k < c; k++ {
				rep, err := p.Perturb(r, v)
				if err != nil {
					return nil, err
				}
				reports[idx] = rep
				idx++
			}
		}
	}
	return reports, nil
}

// perturbUnaryAllInto bulk-perturbs a unary-encoding population: all
// bitsets share one word arena.
func perturbUnaryAllInto(u unarySampler, r *rng.Rand, trueCounts []int64, s *PerturbScratch, reports []Report) {
	n := len(reports)
	words := (u.d + 63) / 64
	if cap(s.words) < n*words {
		s.words = make([]uint64, n*words)
	}
	s.words = s.words[:n*words]
	clear(s.words)
	if cap(s.bitsets) < n {
		s.bitsets = make([]Bitset, n)
	}
	s.bitsets = s.bitsets[:n]
	idx := 0
	for v, c := range trueCounts {
		for k := int64(0); k < c; k++ {
			bs := &s.bitsets[idx]
			*bs = Bitset{words: s.words[idx*words : (idx+1)*words : (idx+1)*words], n: u.d}
			u.fillDense(r, v, bs)
			// OUEReport is a one-pointer struct: boxing it into the
			// interface stores the pointer directly, no allocation.
			reports[idx] = OUEReport{Bits: bs}
			idx++
		}
	}
}
