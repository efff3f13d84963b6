package ldp

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"unsafe"

	"ldprecover/internal/hashx"
)

// Batched ingest. AddBatch (a decoded []Report) and addReportFrame (a
// validated "LB" report batch view, framecount.go) split their input into
// runs of one report kind and fold each run through the same
// type-specialized kernels below. The two walkers differ only in how
// they pull words, seeds and values out of a run. All scratch
// lives on the accumulator and is reused across batches, so
// steady-state ingest allocates nothing per report:
//
//   - dense unary runs aggregate via bit-plane ("positional popcount")
//     counters: a Harley–Seal adder tree (denseFold) folds reports into
//     planeLevels binary counter planes, which flush into the count
//     vector at most once per ~64k reports — a handful of word-level ALU
//     ops per report instead of one count increment per set bit;
//   - OLH runs premix every seed once and turn its value into the hash
//     interval it supports (hashx.BucketInterval), then sweep the domain
//     in item-major blocks so the hot count window stays cache-resident
//     at large d while each item costs the cheap per-item hash stage
//     plus one interval compare — 8 items per step in the AVX-512
//     kernel (olh_amd64.s) when CPUID reports AVX512F+DQ with OS-saved
//     ZMM state, one at a time in Go otherwise;
//   - GRR runs are single bumps without the interface dispatch;
//   - any other report type falls back to Report.AddSupports.
//
// The result is bit-identical to folding the same reports one at a time
// through Add (support counting is additive), which the equivalence tests
// pin exactly.

// batchScratch is the accumulator-owned reusable state of the batch
// walkers.
type batchScratch struct {
	// planes holds planeLevels binary counter planes per report word
	// (plane l bit b set ⇔ the pending count for bit b has 2^l in its
	// binary expansion), followed by the carry-save ones/twos/fours
	// planes.
	planes []uint64
	// olh holds the premixed descriptors of the current OLH run.
	olh []premixedOLH
}

// premixedOLH is one OLH report with its seed premix hoisted and its
// value turned into the hash interval it supports (hashx.BucketInterval).
type premixedOLH struct {
	pre       hashx.Premixed
	lo, width uint64
}

// newPremixedOLH premixes one OLH report; 0 ≤ value < g and g ≥ 2.
func newPremixedOLH(seed uint64, value, g int) premixedOLH {
	lo, width := hashx.BucketInterval(value, g)
	return premixedOLH{pre: hashx.Premix(seed), lo: lo, width: width}
}

// planeLevels is the binary counter depth of the dense-unary planes:
// 16 levels count up to 65535 pending reports per bit, so the expensive
// plane→count expansion runs ~once per 64k reports instead of per 255.
const planeLevels = 16

// olhBlockItems is the item-major block width for OLH runs: 4096 int64
// counts = 32 KiB, sized to keep the hot count window in L1.
const olhBlockItems = 4096

// asDense extracts the bitset of a dense unary report in either boxing.
func asDense(rep Report) (*Bitset, bool) {
	switch r := rep.(type) {
	case OUEReport:
		return r.Bits, true
	case *OUEReport:
		return r.Bits, true
	}
	return nil, false
}

// asOLH extracts an OLH report in either boxing.
func asOLH(rep Report) (OLHReport, bool) {
	switch r := rep.(type) {
	case OLHReport:
		return r, true
	case *OLHReport:
		return *r, true
	}
	return OLHReport{}, false
}

// asGRR extracts a GRR report in either boxing.
func asGRR(rep Report) (int, bool) {
	switch r := rep.(type) {
	case GRRReport:
		return int(r), true
	case *GRRReport:
		return int(*r), true
	}
	return 0, false
}

// AddBatch folds a slice of reports through the type-specialized fast
// paths above. It is the preferred ingest call when reports arrive in
// chunks; the aggregate is bit-identical to adding them one at a time.
func (a *Accumulator) AddBatch(reps []Report) error {
	for i, rep := range reps {
		if rep == nil {
			return fmt.Errorf("ldp: nil report at index %d", i)
		}
	}
	a.addBatch(reps)
	return nil
}

// addBatch is AddBatch without the nil scan; reports must be non-nil.
func (a *Accumulator) addBatch(reps []Report) {
	i := 0
	for i < len(reps) {
		rep := reps[i]
		if b, ok := asDense(rep); ok && littleEndianHost {
			i = a.addDenseRun(reps, i, len(b.words))
			continue
		}
		if _, ok := asOLH(rep); ok {
			i = a.addOLHRun(reps, i)
			continue
		}
		if _, ok := asGRR(rep); ok {
			i = a.addGRRRun(reps, i)
			continue
		}
		rep.AddSupports(a.counts)
		a.total++
		i++
	}
}

// csa is a carry-save full adder: it folds a and b into the running
// weight-w plane l, returning the new plane and the weight-2w carry.
func csa(l, a, b uint64) (lOut, carry uint64) {
	t := a ^ b
	return l ^ t, (a & b) | (l & t)
}

// rippleInto adds the weight-2^level word w into the binary counter
// planes of word column wi. The flush policy bounds per-bit pending
// counts below 2^planeLevels, so the carry always dies in range.
func rippleInto(planes []uint64, wi int, w uint64, level int) {
	for l := level; l < planeLevels && w != 0; l++ {
		pl := &planes[wi*planeLevels+l]
		t := *pl & w
		*pl ^= w
		w = t
	}
}

// denseCSAGroups is how many 8-report CSA groups accumulate before a
// flush: 8000 groups contribute at most 64000 per bit, leaving room for
// the carry-save residue (≤7) and the ≤7-report tail inside the 65535
// counter capacity.
const denseCSAGroups = 8000

// denseFold is the Harley–Seal state of one dense-unary run, shared by
// the report-slice and wire-frame walkers. It reads report words in the
// wire layout (little-endian uint64s): the frame walker reads the wire
// bytes themselves, a fixed stride apart (addDenseStrided), the report
// walker each bitset's own memory (wireWords, add8).
//
// The core is a carry-save adder tree: 8 reports at a time, per word
// column, seven full adders (two csa4 halves and a csa of their
// carries) fold the 8 input words into running ones/twos/fours planes
// and one weight-8 carry — about five ALU ops per report word, with no
// per-bit work at all. Weight-8 carries ripple into binary counter
// planes, which expand into the count vector only on flush (at most
// once per ~64k reports per bit).
type denseFold struct {
	counts []int64
	// planes holds planeLevels binary counter planes per word column,
	// then the ones/twos/fours carry-save planes; all zero between runs.
	planes, ones, twos, fours []uint64
	groups                    int
}

// newDenseFold carves a run's planes over the given word count out of
// the accumulator scratch.
func (a *Accumulator) newDenseFold(words int) denseFold {
	need := words * (planeLevels + 3)
	if cap(a.scratch.planes) < need {
		a.scratch.planes = make([]uint64, need)
	}
	buf := a.scratch.planes[:need]
	return denseFold{
		counts: a.counts,
		planes: buf[:words*planeLevels],
		ones:   buf[words*planeLevels : words*(planeLevels+1)],
		twos:   buf[words*(planeLevels+1) : words*(planeLevels+2)],
		fours:  buf[words*(planeLevels+2) : words*(planeLevels+3)],
	}
}

// add8 folds one group of 8 reports through the carry-save tree.
func (f *denseFold) add8(ws *[8][]byte) {
	planes, ones := f.planes, f.ones
	// Re-slicing everything to the run's width up front leaves one
	// bounds check per word load in the column loop.
	n := len(ones)
	twos, fours := f.twos[:n], f.fours[:n]
	w0, w1, w2, w3 := ws[0][:8*n], ws[1][:8*n], ws[2][:8*n], ws[3][:8*n]
	w4, w5, w6, w7 := ws[4][:8*n], ws[5][:8*n], ws[6][:8*n], ws[7][:8*n]
	for wi := range ones {
		off := 8 * wi
		o, tw, d1 := csa4(ones[wi], twos[wi],
			binary.LittleEndian.Uint64(w0[off:off+8]), binary.LittleEndian.Uint64(w1[off:off+8]),
			binary.LittleEndian.Uint64(w2[off:off+8]), binary.LittleEndian.Uint64(w3[off:off+8]))
		o, tw, d2 := csa4(o, tw,
			binary.LittleEndian.Uint64(w4[off:off+8]), binary.LittleEndian.Uint64(w5[off:off+8]),
			binary.LittleEndian.Uint64(w6[off:off+8]), binary.LittleEndian.Uint64(w7[off:off+8]))
		fo, e := csa(fours[wi], d1, d2)
		ones[wi], twos[wi], fours[wi] = o, tw, fo
		if e != 0 {
			rippleInto(planes, wi, e, 3)
		}
	}
	if f.groups++; f.groups == denseCSAGroups {
		f.flush()
		f.groups = 0
	}
}

// csa4 is half of a column's carry-save adder tree: three full adders
// fold 4 input words into the running ones and twos planes and return
// them with the weight-4 carry. A column takes two halves and one csa
// of their carries into the fours plane. The adders are written out,
// not called as csa, so that csa4 stays inlinable in both kernels.
func csa4(o, tw, x0, x1, x2, x3 uint64) (oOut, twOut, four uint64) {
	t := x0 ^ x1
	c1 := x0&x1 | o&t
	o ^= t
	t = x2 ^ x3
	c2 := x2&x3 | o&t
	t2 := c1 ^ c2
	return o ^ t, tw ^ t2, c1&c2 | tw&t2
}

// add1 ripples one report straight into the counter planes: the ≤7
// reports at the tail of a run that do not fill a CSA group.
func (f *denseFold) add1(w []byte) {
	for wi := range f.ones {
		if x := binary.LittleEndian.Uint64(w[8*wi:]); x != 0 {
			rippleInto(f.planes, wi, x, 0)
		}
	}
}

// flush ripples the carry-save residue into the counter planes, expands
// the planes into the count vector and zeroes everything. Bits beyond
// the accumulator's domain are dropped, matching AddSupports' contract
// for over-long reports.
func (f *denseFold) flush() {
	planes, counts := f.planes, f.counts
	for wi := range f.ones {
		rippleInto(planes, wi, f.ones[wi], 0)
		rippleInto(planes, wi, f.twos[wi], 1)
		rippleInto(planes, wi, f.fours[wi], 2)
	}
	clear(f.ones)
	clear(f.twos)
	clear(f.fours)
	full := len(counts) >= len(f.ones)*64
	for wi := range f.ones {
		base := wi << 6
		for l := 0; l < planeLevels; l++ {
			w := planes[wi*planeLevels+l]
			if w == 0 {
				continue
			}
			planes[wi*planeLevels+l] = 0
			add := int64(1) << uint(l)
			if full {
				for w != 0 {
					counts[base+bits.TrailingZeros64(w)] += add
					w &= w - 1
				}
			} else {
				for w != 0 {
					if idx := base + bits.TrailingZeros64(w); idx < len(counts) {
						counts[idx] += add
					}
					w &= w - 1
				}
			}
		}
	}
}

// littleEndianHost reports whether a []uint64 is laid out in memory
// exactly as the wire's little-endian words.
var littleEndianHost = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// wireWords views a bitset's words as wire-layout bytes without copying.
// Only valid on a little-endian host; elsewhere addBatch routes dense
// reports through the generic AddSupports path instead.
func wireWords(words []uint64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), 8*len(words))
}

// addDenseRun consumes the run of dense unary reports with the given
// word count starting at start and returns the index past the run.
func (a *Accumulator) addDenseRun(reps []Report, start, words int) int {
	f := a.newDenseFold(words)
	var ws [8][]byte
	i := start
	for ; i+8 <= len(reps) && dense8(&ws, reps[i:i+8], words); i += 8 {
		f.add8(&ws)
	}
	for ; i < len(reps); i++ {
		b, ok := asDense(reps[i])
		if !ok || len(b.words) != words {
			break
		}
		f.add1(wireWords(b.words))
	}
	f.flush()
	a.total += int64(i - start)
	return i
}

// dense8 points ws at the next 8 reports' words for one CSA group, or
// reports false when the run ends inside the group.
func dense8(ws *[8][]byte, reps []Report, words int) bool {
	for k := range ws {
		b, ok := asDense(reps[k])
		if !ok || len(b.words) != words {
			return false
		}
		ws[k] = wireWords(b.words)
	}
	return true
}

// addDenseStrided folds the n dense unary sub-frames laid out stride
// bytes apart from the start of b — each a denseHeaderBytes head, then
// its words — with no per-report walk: report k's word wi is at
// k·stride + denseHeaderBytes + 8·wi. It takes one word column at a
// time across up to denseCSAGroups groups of 8 reports, so the column's
// carry-save planes stay in registers, and flushes after each such
// stretch.
func (a *Accumulator) addDenseStrided(b []byte, stride, n int) {
	f := a.newDenseFold((stride - denseHeaderBytes) / 8)
	planes, ones := f.planes, f.ones
	twos, fours := f.twos[:len(ones)], f.fours[:len(ones)]
	k := 0
	for k+8 <= n {
		groups := min((n-k)/8, denseCSAGroups)
		g := b[k*stride : (k+8*groups)*stride]
		for wi := range ones {
			o, tw, fo := ones[wi], twos[wi], fours[wi]
			for off := denseHeaderBytes + 8*wi; off < len(g); off += 8 * stride {
				var d1, d2, e uint64
				o, tw, d1 = csa4(o, tw,
					binary.LittleEndian.Uint64(g[off:]), binary.LittleEndian.Uint64(g[off+stride:]),
					binary.LittleEndian.Uint64(g[off+2*stride:]), binary.LittleEndian.Uint64(g[off+3*stride:]))
				o, tw, d2 = csa4(o, tw,
					binary.LittleEndian.Uint64(g[off+4*stride:]), binary.LittleEndian.Uint64(g[off+5*stride:]),
					binary.LittleEndian.Uint64(g[off+6*stride:]), binary.LittleEndian.Uint64(g[off+7*stride:]))
				fo, e = csa(fo, d1, d2)
				if e != 0 {
					rippleInto(planes, wi, e, 3)
				}
			}
			ones[wi], twos[wi], fours[wi] = o, tw, fo
		}
		if k += 8 * groups; groups == denseCSAGroups {
			f.flush()
		}
	}
	for ; k < n; k++ {
		f.add1(b[k*stride+denseHeaderBytes:])
	}
	f.flush()
	a.total += int64(n)
}

// bump increments item v's count when v is inside the domain; negative
// item values wrap above it.
func bump(counts []int64, v uint64) {
	if v < uint64(len(counts)) {
		counts[v]++
	}
}

// addOLHRun consumes the run of OLH reports starting at start: premix
// every seed once into scratch, then sweep the domain in item-major
// blocks so large count vectors are walked block-by-block with all
// reports instead of report-by-report over all items.
func (a *Accumulator) addOLHRun(reps []Report, start int) int {
	run := a.scratch.olh[:0]
	i := start
	for ; i < len(reps); i++ {
		ol, ok := asOLH(reps[i])
		if !ok {
			break
		}
		if ol.G < 2 || ol.Value < 0 || ol.Value >= ol.G {
			// Degenerate hand-built report: the bucket interval
			// assumes value ∈ [0, g), so route it through the generic
			// AddSupports (bit-identical to the one-at-a-time path).
			if i == start {
				reps[i].AddSupports(a.counts)
				a.total++
				i++
			}
			break
		}
		run = append(run, newPremixedOLH(ol.Seed, ol.Value, ol.G))
	}
	a.scratch.olh = run
	a.sweepOLH(run)
	return i
}

// sweepOLH folds a premixed OLH run into the count vector in item-major
// blocks so large count vectors are walked block-by-block with all
// reports instead of report-by-report over all items. Within a block,
// each report's whole 8-item chunks go to the AVX-512 kernel when the
// CPU has it (olhAVX512); the Go loop below takes the rest.
func (a *Accumulator) sweepOLH(run []premixedOLH) {
	counts := a.counts
	for start := 0; start < len(counts); start += olhBlockItems {
		end := min(start+olhBlockItems, len(counts))
		vecEnd := start
		if olhAVX512 {
			vecEnd = start + (end-start)&^7
		}
		for ei := range run {
			e := &run[ei]
			// Inlined hashx.Premixed stage two with the item multiply
			// strength-reduced: consecutive items advance x·φ by one
			// addition. A match is the bucket-interval test of
			// hashx.BucketInterval, bit-equal to pre.ToRange(v, g) ==
			// value — the batch-vs-sequential equivalence tests pin this
			// against hashx.
			zx := uint64(e.pre) + uint64(start)*0x9e3779b97f4a7c15
			if vecEnd > start {
				olhCountAVX512(counts[start:vecEnd], zx, e.lo, e.width)
				zx += uint64(vecEnd-start) * 0x9e3779b97f4a7c15
			}
			lo, width := e.lo, e.width
			v := vecEnd
			// Two independent hash chains per step keep the multiplier
			// busy; branchless matches (a ~1/g-taken branch would
			// mispredict constantly and stall both chains).
			for ; v+2 <= end; v += 2 {
				z0 := zx
				z1 := zx + 0x9e3779b97f4a7c15
				zx = z1 + 0x9e3779b97f4a7c15
				z0 = (z0 ^ (z0 >> 33)) * 0xff51afd7ed558ccd
				z1 = (z1 ^ (z1 >> 33)) * 0xff51afd7ed558ccd
				z0 = (z0 ^ (z0 >> 33)) * 0xc4ceb9fe1a85ec53
				z1 = (z1 ^ (z1 >> 33)) * 0xc4ceb9fe1a85ec53
				z0 ^= z0 >> 33
				z1 ^= z1 >> 33
				_, in0 := bits.Sub64(z0-lo, width, 0)
				_, in1 := bits.Sub64(z1-lo, width, 0)
				counts[v] += int64(in0)
				counts[v+1] += int64(in1)
			}
			for ; v < end; v++ {
				z := zx
				zx += 0x9e3779b97f4a7c15
				z = (z ^ (z >> 33)) * 0xff51afd7ed558ccd
				z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53
				z ^= z >> 33
				_, in := bits.Sub64(z-lo, width, 0)
				counts[v] += int64(in)
			}
		}
	}
	a.total += int64(len(run))
}

// OLHKernel names the kernel OLH folds run on in this process: "avx512"
// when the CPU and OS support the AVX-512 sweep, else "generic".
func OLHKernel() string {
	if olhAVX512 {
		return "avx512"
	}
	return "generic"
}

// addGRRRun consumes the run of GRR reports starting at start.
func (a *Accumulator) addGRRRun(reps []Report, start int) int {
	i := start
	for ; i < len(reps); i++ {
		v, ok := asGRR(reps[i])
		if !ok {
			break
		}
		bump(a.counts, uint64(v))
		a.total++
	}
	return i
}
