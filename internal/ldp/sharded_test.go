package ldp

import (
	"runtime"
	"sync"
	"testing"

	"ldprecover/internal/rng"
)

func TestShardedAccumulatorValidation(t *testing.T) {
	if _, err := NewShardedAccumulator(1, 4); err == nil {
		t.Fatal("d=1 accepted")
	}
	sa, err := NewShardedAccumulator(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Shards() != runtime.GOMAXPROCS(0) {
		t.Fatalf("default shards %d want GOMAXPROCS %d", sa.Shards(), runtime.GOMAXPROCS(0))
	}
	if sa.Domain() != 8 {
		t.Fatalf("domain %d", sa.Domain())
	}
	if err := sa.Add(nil); err == nil {
		t.Fatal("nil report accepted")
	}
	if err := sa.AddBatch([]Report{GRRReport(1), nil}); err == nil {
		t.Fatal("batch with nil report accepted")
	}
	if err := sa.AddCounts(make([]int64, 5), 1); err == nil {
		t.Fatal("wrong-length counts accepted")
	}
	if err := sa.AddCounts(make([]int64, 8), -1); err == nil {
		t.Fatal("negative total accepted")
	}
	negCounts := make([]int64, 8)
	negCounts[2] = -5
	if err := sa.AddCounts(negCounts, 10); err == nil {
		t.Fatal("negative per-item count accepted")
	}
	if err := sa.Merge(nil); err == nil {
		t.Fatal("nil merge accepted")
	}
	other, _ := NewShardedAccumulator(9, 2)
	if err := sa.Merge(other); err == nil {
		t.Fatal("domain mismatch accepted")
	}
	// A failed AddBatch must not partially ingest.
	if sa.Total() != 0 {
		t.Fatalf("failed ingest mutated state: total %d", sa.Total())
	}
}

// shardedTestProtocols returns the full protocol roster, including the
// generality protocols SUE and BLH.
func shardedTestProtocols(t *testing.T, d int, eps float64) []Protocol {
	t.Helper()
	ps := testProtocols(t, d, eps)
	sue, err := NewSUE(d, eps)
	if err != nil {
		t.Fatal(err)
	}
	blh, err := NewBLH(d, eps)
	if err != nil {
		t.Fatal(err)
	}
	return append(ps, sue, blh)
}

// TestShardedMatchesSequentialExactly is the sharded-vs-sequential
// equivalence property: for a fixed seed, concurrently ingesting the same
// reports through a ShardedAccumulator yields exactly the sequential
// Accumulator's counts, for every protocol and any shard count.
func TestShardedMatchesSequentialExactly(t *testing.T) {
	const d, eps = 16, 0.8
	trueCounts := make([]int64, d)
	for v := range trueCounts {
		trueCounts[v] = int64(40 + 10*v)
	}
	for _, p := range shardedTestProtocols(t, d, eps) {
		reports, err := PerturbAll(p, rng.New(11), trueCounts)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := NewAccumulator(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range reports {
			if err := seq.Add(rep); err != nil {
				t.Fatal(err)
			}
		}
		for _, shards := range []int{1, 3, 8} {
			sa, err := NewShardedAccumulator(d, shards)
			if err != nil {
				t.Fatal(err)
			}
			// Concurrent ingest: disjoint chunks via AddBatch, remainder
			// one-by-one via Add.
			const goroutines = 7
			var wg sync.WaitGroup
			chunk := len(reports) / goroutines
			for g := 0; g < goroutines; g++ {
				lo := g * chunk
				hi := lo + chunk
				wg.Add(1)
				go func(part []Report, oneByOne bool) {
					defer wg.Done()
					if oneByOne {
						for _, rep := range part {
							if err := sa.Add(rep); err != nil {
								t.Error(err)
								return
							}
						}
						return
					}
					if err := sa.AddBatch(part); err != nil {
						t.Error(err)
					}
				}(reports[lo:hi], g%2 == 0)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := sa.AddBatch(reports[goroutines*chunk:]); err != nil {
					t.Error(err)
				}
			}()
			wg.Wait()
			snap := sa.Snapshot()
			if snap.Total() != seq.Total() || sa.Total() != seq.Total() {
				t.Fatalf("%s shards=%d: total %d want %d", p.Name(), shards, snap.Total(), seq.Total())
			}
			want := seq.Counts()
			got := snap.Counts()
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s shards=%d: counts diverge at %d: %d vs %d",
						p.Name(), shards, v, got[v], want[v])
				}
			}
		}
	}
}

// TestShardedAddCountsAndMerge folds batch-perturbed partials and a
// second sharded accumulator, checking totals and estimates line up.
func TestShardedAddCountsAndMerge(t *testing.T) {
	const d, eps = 12, 0.6
	oue, err := NewOUE(d, eps)
	if err != nil {
		t.Fatal(err)
	}
	trueCounts := make([]int64, d)
	var n int64
	for v := range trueCounts {
		trueCounts[v] = int64(100 + v)
		n += trueCounts[v]
	}
	r := rng.New(21)
	counts, err := oue.SimulateGenuineCounts(r, trueCounts)
	if err != nil {
		t.Fatal(err)
	}
	sa, _ := NewShardedAccumulator(d, 4)
	if err := sa.AddCounts(counts, n); err != nil {
		t.Fatal(err)
	}
	other, _ := NewShardedAccumulator(d, 2)
	counts2, err := oue.SimulateGenuineCounts(r, trueCounts)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.AddCounts(counts2, n); err != nil {
		t.Fatal(err)
	}
	if err := sa.Merge(other); err != nil {
		t.Fatal(err)
	}
	if sa.Total() != 2*n {
		t.Fatalf("total %d want %d", sa.Total(), 2*n)
	}
	// other untouched by Merge.
	if other.Total() != n {
		t.Fatalf("merge mutated source: %d", other.Total())
	}
	if _, err := sa.Estimate(oue.Params()); err != nil {
		t.Fatal(err)
	}
	merged := sa.Counts()
	for v := range merged {
		if merged[v] != counts[v]+counts2[v] {
			t.Fatalf("merged counts diverge at %d", v)
		}
	}
	sa.Reset()
	if sa.Total() != 0 {
		t.Fatalf("reset left total %d", sa.Total())
	}
}

// TestShardedConcurrentStress hammers Add, AddBatch, AddCounts, Merge,
// Snapshot and Total from many goroutines at once; run under -race it is
// the engine's data-race certificate, and the final snapshot must account
// for every ingested report exactly.
func TestShardedConcurrentStress(t *testing.T) {
	const (
		d          = 32
		goroutines = 16
		perG       = 2000
	)
	sa, err := NewShardedAccumulator(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(g) + 1)
			switch g % 4 {
			case 0: // single-report ingest
				for i := 0; i < perG; i++ {
					if err := sa.Add(GRRReport(r.Intn(d))); err != nil {
						t.Error(err)
						return
					}
				}
			case 1: // batched ingest
				batch := make([]Report, perG)
				for i := range batch {
					batch[i] = GRRReport(r.Intn(d))
				}
				if err := sa.AddBatch(batch); err != nil {
					t.Error(err)
				}
			case 2: // pre-aggregated partials, then a Merge
				counts := make([]int64, d)
				for i := 0; i < perG; i++ {
					counts[r.Intn(d)]++
				}
				other, err := NewShardedAccumulator(d, 2)
				if err != nil {
					t.Error(err)
					return
				}
				if err := other.AddCounts(counts, perG); err != nil {
					t.Error(err)
					return
				}
				if err := sa.Merge(other); err != nil {
					t.Error(err)
				}
			default: // concurrent readers
				for i := 0; i < 50; i++ {
					snap := sa.Snapshot()
					var sum int64
					for _, c := range snap.Counts() {
						sum += c
					}
					if sum != snap.Total() {
						t.Errorf("inconsistent snapshot: counts sum %d total %d", sum, snap.Total())
						return
					}
					_ = sa.Total()
				}
			}
		}(g)
	}
	wg.Wait()
	wantTotal := int64(goroutines / 4 * 3 * perG)
	snap := sa.Snapshot()
	if snap.Total() != wantTotal {
		t.Fatalf("final total %d want %d", snap.Total(), wantTotal)
	}
	var sum int64
	for _, c := range snap.Counts() {
		sum += c
	}
	if sum != wantTotal {
		t.Fatalf("final counts sum %d want %d", sum, wantTotal)
	}
}
