package ldp

import (
	"sync"
	"testing"

	"ldprecover/internal/rng"
)

// TestSealEpochConservation is the seal-boundary conservation property:
// while goroutines ingest through every path (Add, AddBatch, AddCounts),
// a sealer repeatedly closes epochs. No report may be lost or double
// counted — the sealed epochs plus the final live tally must sum, item by
// item, to the sequential aggregation of everything ingested. Run with
// -race (make race), this also proves the swap itself is data-race free.
func TestSealEpochConservation(t *testing.T) {
	const d, eps = 32, 0.8
	trueCounts := make([]int64, d)
	for v := range trueCounts {
		trueCounts[v] = int64(120 + 15*v)
	}
	proto, err := NewOUE(d, eps)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := PerturbAll(proto, rng.New(7), trueCounts)
	if err != nil {
		t.Fatal(err)
	}

	// The expected aggregate: one sequential pass over every report plus
	// the pre-aggregated partial fed through AddCounts.
	want, err := NewAccumulator(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		if err := want.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	partial := make([]int64, d)
	for v := range partial {
		partial[v] = int64(3 * (v + 1))
	}
	var partialTotal int64 = 17
	const partialRounds = 5
	for i := 0; i < partialRounds; i++ {
		for v, c := range partial {
			want.counts[v] += c
		}
		want.total += partialTotal
	}

	sa, err := NewShardedAccumulator(d, 4)
	if err != nil {
		t.Fatal(err)
	}

	const ingesters = 6
	var wg sync.WaitGroup
	chunk := (len(reports) + ingesters - 1) / ingesters
	for g := 0; g < ingesters; g++ {
		lo := g * chunk
		hi := lo + chunk
		if hi > len(reports) {
			hi = len(reports)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(g int, part []Report) {
			defer wg.Done()
			if g%2 == 0 {
				// Small batches so ingest calls interleave with seals.
				for len(part) > 0 {
					n := 64
					if n > len(part) {
						n = len(part)
					}
					if err := sa.AddBatch(part[:n]); err != nil {
						t.Error(err)
						return
					}
					part = part[n:]
				}
				return
			}
			for _, rep := range part {
				if err := sa.Add(rep); err != nil {
					t.Error(err)
					return
				}
			}
		}(g, reports[lo:hi])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < partialRounds; i++ {
			if err := sa.AddCounts(partial, partialTotal); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// The sealer races the ingesters: every sealed epoch is immutable the
	// moment SealEpoch returns, so summing them as they arrive is safe.
	sealedSum := make([]int64, d)
	var sealedTotal int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			counts, total := sa.SealEpoch()
			for v, c := range counts {
				sealedSum[v] += c
			}
			sealedTotal += total
		}
	}()
	wg.Wait()
	<-done

	// Whatever ingest landed after the last mid-flight seal is still
	// live; one final seal closes it.
	lastCounts, lastTotal := sa.SealEpoch()
	for v, c := range lastCounts {
		sealedSum[v] += c
	}
	sealedTotal += lastTotal

	if sealedTotal != want.total {
		t.Fatalf("sealed total %d, want %d", sealedTotal, want.total)
	}
	for v := range sealedSum {
		if sealedSum[v] != want.counts[v] {
			t.Fatalf("item %d: sealed sum %d, want %d", v, sealedSum[v], want.counts[v])
		}
	}
	// The live tally must be empty now — everything was sealed.
	if got := sa.Total(); got != 0 {
		t.Fatalf("live total after final seal: %d", got)
	}
	for v, c := range sa.Counts() {
		if c != 0 {
			t.Fatalf("item %d: live count %d after final seal", v, c)
		}
	}
}

// TestShardedReadsAfterMutation: reads reflect every completed mutation
// (ingest, seal, reset), and Snapshot hands out caller-owned state.
func TestShardedReadsAfterMutation(t *testing.T) {
	const d = 8
	sa, err := NewShardedAccumulator(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, d)
	for v := range counts {
		counts[v] = int64(v + 1)
	}
	if err := sa.AddCounts(counts, 10); err != nil {
		t.Fatal(err)
	}
	first := sa.Counts()
	if sa.Total() != 10 {
		t.Fatalf("total %d", sa.Total())
	}
	// A repeated read returns equal data.
	again := sa.Counts()
	for v := range first {
		if first[v] != again[v] || first[v] != counts[v] {
			t.Fatalf("item %d: reads %d/%d, want %d", v, first[v], again[v], counts[v])
		}
	}
	// Mutating a returned snapshot must not reach the accumulator.
	snap := sa.Snapshot()
	snap.counts[0] += 1000
	snap.total += 1000
	if got := sa.Counts()[0]; got != counts[0] {
		t.Fatalf("accumulator changed through Snapshot: item 0 = %d", got)
	}
	if got := sa.Total(); got != 10 {
		t.Fatalf("accumulator changed through Snapshot: total = %d", got)
	}
	// Each further mutation is visible to the next read.
	if err := sa.Add(GRRReport(2)); err != nil {
		t.Fatal(err)
	}
	if got := sa.Counts()[2]; got != counts[2]+1 {
		t.Fatalf("item 2 after Add: %d, want %d", got, counts[2]+1)
	}
	if sa.Total() != 11 {
		t.Fatalf("total after Add: %d", sa.Total())
	}
	// Sealing empties the live tally; the sealed epoch carries the
	// pre-seal aggregate.
	if _, total := sa.SealEpoch(); total != 11 {
		t.Fatalf("sealed total %d", total)
	}
	if sa.Total() != 0 {
		t.Fatalf("live total after seal: %d", sa.Total())
	}
	if got := sa.Counts()[2]; got != 0 {
		t.Fatalf("item 2 after seal: %d", got)
	}
	if err := sa.AddCounts(counts, 10); err != nil {
		t.Fatal(err)
	}
	if got := sa.Counts()[2]; got != counts[2] {
		t.Fatalf("item 2 after re-ingest: %d, want %d", got, counts[2])
	}
	sa.Reset()
	if sa.Total() != 0 {
		t.Fatalf("total after reset: %d", sa.Total())
	}
	if got := sa.Counts()[2]; got != 0 {
		t.Fatalf("item 2 after reset: %d", got)
	}
}

// TestSealEpochReusesTallies: a seal takes the zeroed tallies the last
// one swapped out as its replacement set, so in steady state it
// allocates only the sealed counts.
// Reuse must never reach a published epoch: each sealed aggregate keeps
// its counts through later ingest and seals, and concurrent sealers,
// which race for one spare set, still conserve every count.
func TestSealEpochReusesTallies(t *testing.T) {
	const d = 64
	sa, err := NewShardedAccumulator(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, d)
	for v := range counts {
		counts[v] = int64(v + 1)
	}
	sa.SealEpoch()
	if allocs := testing.AllocsPerRun(100, func() {
		if err := sa.AddCounts(counts, 5); err != nil {
			t.Fatal(err)
		}
		sa.SealEpoch()
	}); allocs > 2 {
		t.Fatalf("AddCounts + SealEpoch: %v allocs, want at most 2", allocs)
	}

	var sealed []*Accumulator
	for i := range 6 {
		for range i + 1 {
			if err := sa.AddCounts(counts, 5); err != nil {
				t.Fatal(err)
			}
		}
		c, total := sa.SealEpoch()
		sealed = append(sealed, &Accumulator{counts: c, total: total})
	}
	for i, ep := range sealed {
		if ep.total != int64(5*(i+1)) {
			t.Fatalf("epoch %d: total %d after later seals", i, ep.total)
		}
		for v, c := range ep.counts {
			if c != int64((i+1)*(v+1)) {
				t.Fatalf("epoch %d item %d: %d after later seals, want %d", i, v, c, (i+1)*(v+1))
			}
		}
	}

	const sealers, rounds = 4, 200
	var wg sync.WaitGroup
	sums := make([][]int64, sealers)
	totals := make([]int64, sealers)
	for g := range sealers + 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g == sealers {
				for range rounds {
					if err := sa.AddCounts(counts, 5); err != nil {
						t.Error(err)
						return
					}
				}
				return
			}
			sums[g] = make([]int64, d)
			for range rounds / 4 {
				c, total := sa.SealEpoch()
				for v, n := range c {
					sums[g][v] += n
				}
				totals[g] += total
			}
		}()
	}
	wg.Wait()
	last, total := sa.SealEpoch()
	for v := range d {
		got := last[v]
		for g := range sealers {
			got += sums[g][v]
		}
		if got != int64(rounds*(v+1)) {
			t.Fatalf("item %d: concurrent seals hold %d, want %d", v, got, rounds*(v+1))
		}
	}
	for _, n := range totals {
		total += n
	}
	if total != 5*rounds {
		t.Fatalf("concurrent seals hold total %d, want %d", total, 5*rounds)
	}
}
