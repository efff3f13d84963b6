package ldp

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ldprecover/internal/rng"
)

func sampleTally(nodeID string, epoch int, d int, seed uint64) *Tally {
	r := rng.New(seed)
	t := &Tally{NodeID: nodeID, Epoch: epoch, Counts: make([]int64, d)}
	for v := range t.Counts {
		t.Counts[v] = int64(r.Uint64() % 10_000)
		t.Total += t.Counts[v]
	}
	return t
}

func TestTallyRoundTrip(t *testing.T) {
	for _, tc := range []*Tally{
		sampleTally("frontend-0", 0, 2, 1),
		sampleTally("a", 17, 128, 2),
		sampleTally("node-with-a-long-name.example.com:8347", 1<<30, 4096, 3),
		{NodeID: "empty-epoch", Epoch: 5, Counts: make([]int64, 64), Total: 0},
	} {
		frame, err := MarshalTally(tc)
		if err != nil {
			t.Fatalf("marshal %q: %v", tc.NodeID, err)
		}
		got, err := UnmarshalTally(frame)
		if err != nil {
			t.Fatalf("unmarshal %q: %v", tc.NodeID, err)
		}
		if !reflect.DeepEqual(got, tc) {
			t.Fatalf("round trip mutated tally %q: got %+v want %+v", tc.NodeID, got, tc)
		}
	}
}

func TestTallyMarshalRejectsInvalid(t *testing.T) {
	d := 8
	for name, mutate := range map[string]func(*Tally){
		"empty-node":     func(t *Tally) { t.NodeID = "" },
		"huge-node":      func(t *Tally) { t.NodeID = string(make([]byte, maxTallyNodeID+1)) },
		"negative-epoch": func(t *Tally) { t.Epoch = -1 },
		"negative-total": func(t *Tally) { t.Total = -1 },
		"negative-count": func(t *Tally) { t.Counts[3] = -5 },
		"tiny-domain":    func(t *Tally) { t.Counts = t.Counts[:1] },
	} {
		bad := sampleTally("n", 0, d, 4)
		mutate(bad)
		if _, err := MarshalTally(bad); !errors.Is(err, ErrCodec) {
			t.Errorf("%s: marshal error %v, want ErrCodec", name, err)
		}
	}
	if _, err := MarshalTally(nil); !errors.Is(err, ErrCodec) {
		t.Errorf("nil tally: marshal error %v, want ErrCodec", err)
	}
}

func TestTallyUnmarshalRejectsCorruption(t *testing.T) {
	frame, err := MarshalTally(sampleTally("frontend-1", 3, 32, 5))
	if err != nil {
		t.Fatal(err)
	}
	// Any single bit flip must fail the CRC (or a structural check), and
	// every truncation must error rather than panic.
	for i := range frame {
		bad := bytes.Clone(frame)
		bad[i] ^= 0x40
		if _, err := UnmarshalTally(bad); err == nil {
			t.Fatalf("bit flip at byte %d decoded cleanly", i)
		}
	}
	for n := 0; n < len(frame); n++ {
		if _, err := UnmarshalTally(frame[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", n)
		}
	}
	// Trailing garbage changes the CRC input length.
	if _, err := UnmarshalTally(append(bytes.Clone(frame), 0)); err == nil {
		t.Fatal("trailing byte decoded cleanly")
	}
}

// TestTallyMergeExact pins the cluster-mode core guarantee: merging
// per-node tallies of a partitioned population reproduces the union's
// aggregate exactly, whatever the merge order or grouping.
func TestTallyMergeExact(t *testing.T) {
	const d = 64
	parts := []*Tally{
		sampleTally("a", 7, d, 10),
		sampleTally("b", 7, d, 11),
		sampleTally("c", 7, d, 12),
	}
	want := &Tally{NodeID: "union", Epoch: 7, Counts: make([]int64, d)}
	for _, p := range parts {
		for v, c := range p.Counts {
			want.Counts[v] += c
		}
		want.Total += p.Total
	}
	for _, order := range [][]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}} {
		got := &Tally{NodeID: "union", Epoch: 7, Counts: make([]int64, d)}
		for _, i := range order {
			if err := tallyFrame(t, parts[i]).MergeInto(got); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(got.Counts, want.Counts) || got.Total != want.Total {
			t.Fatalf("merge order %v diverged", order)
		}
	}
	// Mismatched shapes fail loudly.
	if err := tallyFrame(t, sampleTally("x", 7, d+1, 13)).MergeInto(want); !errors.Is(err, ErrCodec) {
		t.Fatalf("domain mismatch merge: %v", err)
	}
	if err := tallyFrame(t, sampleTally("x", 8, d, 13)).MergeInto(want); !errors.Is(err, ErrCodec) {
		t.Fatalf("epoch mismatch merge: %v", err)
	}
	if err := tallyFrame(t, parts[0]).MergeInto(nil); !errors.Is(err, ErrCodec) {
		t.Fatalf("nil merge: %v", err)
	}
}

// FuzzUnmarshalTally: arbitrary bytes must never panic the decoder;
// ValidateTallyFrame must accept exactly the frames UnmarshalTally
// accepts, and its view must merge into a zero tally to the same bits
// as the decoded tally, sequentially and chunked; every frame that
// decodes must re-encode to an equivalent tally (the decoder accepts
// nothing the encoder cannot reproduce).
func FuzzUnmarshalTally(f *testing.F) {
	for _, seed := range []*Tally{
		sampleTally("frontend-0", 0, 2, 1),
		sampleTally("frontend-1", 12, 48, 2),
		{NodeID: "z", Epoch: 1, Counts: make([]int64, 4), Total: 0},
		sampleTally("wide", 3, parallelMergeMin+3, 4), // chunks at 4 workers
	} {
		frame, err := MarshalTally(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte("LT"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tally, err := UnmarshalTally(data)
		view, verr := ValidateTallyFrame(data)
		if (err == nil) != (verr == nil) {
			t.Fatalf("UnmarshalTally error %v, ValidateTallyFrame error %v", err, verr)
		}
		if err != nil {
			return
		}
		want := &Tally{Epoch: tally.Epoch, Counts: make([]int64, len(tally.Counts))}
		mergeIntoRef(tally, want)
		for _, workers := range []int{1, 4} {
			got := &Tally{Epoch: tally.Epoch, Counts: make([]int64, len(tally.Counts))}
			if err := view.mergeInto(got, workers); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d: CountFrame.mergeInto diverged from the reference fold", workers)
			}
		}
		frame, err := MarshalTally(tally)
		if err != nil {
			t.Fatalf("decoded tally does not re-encode: %v", err)
		}
		back, err := UnmarshalTally(frame)
		if err != nil {
			t.Fatalf("re-encoded tally does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, tally) {
			t.Fatal("tally mutated across re-encode round trip")
		}
	})
}

// TestTallyFrameValidateAllocs pins the root's per-tally validation
// budget at d=4096: checking an "LT" frame in place allocates the
// NodeID string and nothing else.
func TestTallyFrameValidateAllocs(t *testing.T) {
	frame, err := MarshalTally(sampleTally("frontend-allocs", 2, 4096, 11))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ValidateTallyFrame(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("ValidateTallyFrame: %.1f allocs per frame, want <= 1", allocs)
	}
}

// BenchmarkTallyMarshal measures the sealed-tally codec at serving
// domain sizes: the per-epoch wire cost of a frontend push is O(d) and
// independent of how many users reported into the tally.
func BenchmarkTallyMarshal(b *testing.B) {
	for _, d := range []int{128, 4096} {
		tally := sampleTally("frontend-0", 42, d, 99)
		frame, err := MarshalTally(tally)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("marshal/d=%d", d), func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			for i := 0; i < b.N; i++ {
				if _, err := MarshalTally(tally); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("unmarshal/d=%d", d), func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			for i := 0; i < b.N; i++ {
				if _, err := UnmarshalTally(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCountFrameGolden pins the "LT" and "LP" wire bytes: both frame
// kinds cross node boundaries and sit in WALs and snapshots written by
// earlier builds, so an encoder change must never move a byte.
func TestCountFrameGolden(t *testing.T) {
	const (
		tallyHex = "4c5401040066652d300700000000000000090000000000000004000000030000000000" +
			"0000000000000000000005000000000000000200000000010000" + "5dcdc330"
		partialHex = "4c50010600656467652d3104000000000000000d00000000000000030000000c0000" +
			"0000000000010000000000000000000000000000009ea0dd80"
	)
	wantTally := &Tally{NodeID: "fe-0", Epoch: 7, Counts: []int64{3, 0, 5, 1<<40 + 2}, Total: 9}
	wantPartial := &PartialTally{NodeID: "edge-1", EpochHint: 4, Counts: []int64{12, 1, 0}, Users: 13}

	tf, err := MarshalTally(wantTally)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(tf); got != tallyHex {
		t.Fatalf("tally frame\n got %s\nwant %s", got, tallyHex)
	}
	pf, err := MarshalPartial(wantPartial)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(pf); got != partialHex {
		t.Fatalf("partial frame\n got %s\nwant %s", got, partialHex)
	}

	raw, _ := hex.DecodeString(tallyHex)
	gotTally, err := UnmarshalTally(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotTally, wantTally) {
		t.Fatalf("decoded tally %+v, want %+v", gotTally, wantTally)
	}
	raw, _ = hex.DecodeString(partialHex)
	gotPartial, err := UnmarshalPartial(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPartial, wantPartial) {
		t.Fatalf("decoded partial %+v, want %+v", gotPartial, wantPartial)
	}
}
