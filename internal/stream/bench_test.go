package stream

import (
	"fmt"
	"testing"

	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
)

// benchManager builds a window-4, history-16 OUE (ε=0.5) manager over a
// d-item domain, plus `epochs` independently simulated epochs of
// aggregate counts (users spread evenly over the domain) to replay.
func benchManager(b *testing.B, d int, users int64, epochs int) (*EpochManager, [][]int64, int64) {
	b.Helper()
	const eps = 0.5
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
	r := rng.New(21)
	counts := make([][]int64, epochs)
	for e := range counts {
		if counts[e], err = proto.SimulateGenuineCounts(r, trueCounts); err != nil {
			b.Fatal(err)
		}
	}
	return m, counts, per * int64(d)
}

// BenchmarkStreamSealEpoch is the steady-state epoch boundary: fold one
// epoch's pre-aggregated counts (2^20 users), seal, slide the window,
// estimate and recover. This is the per-epoch serving cost on top of raw
// ingest. The d=128 arm replays one epoch; the d=4096 arm (the domain
// of a large partial-tally deployment) cycles through 8 simulated
// epochs, so the outlier oracle scores fresh noise against a full
// 16-epoch history on every seal.
func BenchmarkStreamSealEpoch(b *testing.B) {
	for _, arm := range []struct{ d, epochs int }{{128, 1}, {4096, 8}} {
		b.Run(fmt.Sprintf("d=%d", arm.d), func(b *testing.B) {
			m, counts, total := benchManager(b, arm.d, 1<<20, arm.epochs)
			seal := func(i int) {
				if err := m.AddCounts(counts[i%len(counts)], total); err != nil {
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
			for i := 0; i < 16; i++ {
				seal(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seal(i)
			}
		})
	}
}

// BenchmarkStreamEstimateWindow is the on-demand ring merge: answer an
// ad-hoc "last 2 epochs" query against a sealed ring without advancing
// any stream state.
func BenchmarkStreamEstimateWindow(b *testing.B) {
	m, counts, total := benchManager(b, 128, 1<<20, 1)
	for e := 0; e < 8; e++ {
		if err := m.AddCounts(counts[0], total); err != nil {
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
