package stream

import (
	"testing"

	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
)

// benchManager builds a window-4 manager over a 128-item OUE domain with
// one pre-simulated epoch's worth of aggregate counts to replay.
func benchManager(b *testing.B, users int64) (*EpochManager, []int64, int64) {
	b.Helper()
	const d, eps = 128, 0.5
	proto, err := ldp.NewOUE(d, eps)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewEpochManager(Config{Params: proto.Params(), Window: 4, History: 16})
	if err != nil {
		b.Fatal(err)
	}
	trueCounts := make([]int64, d)
	per := users / int64(d)
	for v := range trueCounts {
		trueCounts[v] = per
	}
	counts, err := proto.SimulateGenuineCounts(rng.New(21), trueCounts)
	if err != nil {
		b.Fatal(err)
	}
	return m, counts, per * int64(d)
}

// BenchmarkStreamSealEpoch is the steady-state epoch boundary: fold one
// epoch's pre-aggregated counts (2^20 users), seal, slide the window,
// estimate and recover. This is the per-epoch serving cost on top of raw
// ingest.
func BenchmarkStreamSealEpoch(b *testing.B) {
	m, counts, total := benchManager(b, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.AddCounts(counts, total); err != nil {
			b.Fatal(err)
		}
		est, err := m.Seal()
		if err != nil {
			b.Fatal(err)
		}
		if est.Total == 0 {
			b.Fatal("empty window")
		}
	}
}

// BenchmarkStreamEstimateWindow is the on-demand ring merge: answer an
// ad-hoc "last 2 epochs" query against a sealed ring without advancing
// any stream state.
func BenchmarkStreamEstimateWindow(b *testing.B) {
	m, counts, total := benchManager(b, 1<<20)
	for e := 0; e < 8; e++ {
		if err := m.AddCounts(counts, total); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Seal(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := m.EstimateWindow(2)
		if err != nil {
			b.Fatal(err)
		}
		if est.Epochs != 2 {
			b.Fatal("short window")
		}
	}
}
