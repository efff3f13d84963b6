package ldp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"ldprecover/internal/rng"
)

func samplePartial(nodeID string, hint int, d int, seed uint64) *PartialTally {
	r := rng.New(seed)
	p := &PartialTally{NodeID: nodeID, EpochHint: hint, Counts: make([]int64, d)}
	for v := range p.Counts {
		p.Counts[v] = int64(r.Uint64() % 10_000)
	}
	p.Users = int64(r.Uint64() % 100_000)
	return p
}

func TestPartialRoundTrip(t *testing.T) {
	for _, tc := range []*PartialTally{
		samplePartial("edge-0", 0, 2, 1),
		samplePartial("a", 17, 128, 2),
		samplePartial("sdk-with-a-long-name.example.com:8347", 1<<30, 4096, 3),
		{NodeID: "zero-users", EpochHint: 5, Counts: make([]int64, 64), Users: 0},
	} {
		frame, err := MarshalPartial(tc)
		if err != nil {
			t.Fatalf("marshal %q: %v", tc.NodeID, err)
		}
		got, err := UnmarshalPartial(frame)
		if err != nil {
			t.Fatalf("unmarshal %q: %v", tc.NodeID, err)
		}
		if !reflect.DeepEqual(got, tc) {
			t.Fatalf("round trip mutated partial %q: got %+v want %+v", tc.NodeID, got, tc)
		}
	}
}

func TestPartialMarshalRejectsInvalid(t *testing.T) {
	d := 8
	ok := samplePartial("n", 0, d, 4)
	for name, mutate := range map[string]func(*PartialTally){
		"empty-node":     func(p *PartialTally) { p.NodeID = "" },
		"huge-node":      func(p *PartialTally) { p.NodeID = string(make([]byte, maxTallyNodeID+1)) },
		"negative-hint":  func(p *PartialTally) { p.EpochHint = -1 },
		"negative-users": func(p *PartialTally) { p.Users = -1 },
		"negative-count": func(p *PartialTally) { p.Counts[3] = -5 },
		"tiny-domain":    func(p *PartialTally) { p.Counts = p.Counts[:1] },
	} {
		bad := ok.Clone()
		mutate(bad)
		if _, err := MarshalPartial(bad); !errors.Is(err, ErrCodec) {
			t.Errorf("%s: marshal error %v, want ErrCodec", name, err)
		}
	}
	if _, err := MarshalPartial(nil); !errors.Is(err, ErrCodec) {
		t.Errorf("nil partial: marshal error %v, want ErrCodec", err)
	}
}

func TestPartialUnmarshalRejectsCorruption(t *testing.T) {
	frame, err := MarshalPartial(samplePartial("edge-1", 3, 32, 5))
	if err != nil {
		t.Fatal(err)
	}
	// Any single bit flip must fail the CRC (or a structural check), and
	// every truncation must error rather than panic.
	for i := range frame {
		bad := bytes.Clone(frame)
		bad[i] ^= 0x40
		if _, err := UnmarshalPartial(bad); err == nil {
			t.Fatalf("bit flip at byte %d decoded cleanly", i)
		}
	}
	for n := 0; n < len(frame); n++ {
		if _, err := UnmarshalPartial(frame[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", n)
		}
	}
	if _, err := UnmarshalPartial(append(bytes.Clone(frame), 0)); err == nil {
		t.Fatal("trailing byte decoded cleanly")
	}
}

// TestPartialTallyMagicDisjoint: an "LT" sealed-tally frame must not
// decode as a partial and vice versa — the WAL replay dispatch and the
// serve endpoints rely on the 2-byte magic to route frame kinds.
func TestPartialTallyMagicDisjoint(t *testing.T) {
	tallyFrame, err := MarshalTally(sampleTally("n", 3, 16, 6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalPartial(tallyFrame); !errors.Is(err, ErrCodec) {
		t.Fatalf("tally frame decoded as partial: %v", err)
	}
	partialFrame, err := MarshalPartial(samplePartial("n", 3, 16, 6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalTally(partialFrame); !errors.Is(err, ErrCodec) {
		t.Fatalf("partial frame decoded as tally: %v", err)
	}
}

// TestCollectorPartitionProperty pins the edge pre-aggregation
// guarantee: however a report stream is partitioned across collectors,
// the flushed partials merge to exactly the sequential accumulator's
// aggregate — same counts, same user total.
func TestCollectorPartitionProperty(t *testing.T) {
	const d = 130
	reps := mixedReports(t, d)
	// mixedReports includes the unmarshalable fallback type, which is
	// fine here: collectors fold Report values, not wire frames.
	seq, err := NewAccumulator(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps {
		if err := seq.Add(rep); err != nil {
			t.Fatal(err)
		}
	}

	r := rng.New(99)
	for trial := 0; trial < 20; trial++ {
		k := 1 + r.Intn(6)
		cols := make([]*Collector, k)
		for i := range cols {
			c, err := NewCollector("edge", d)
			if err != nil {
				t.Fatal(err)
			}
			cols[i] = c
		}
		// Random partition, ingested in random-size chunks so both Add
		// and AddBatch paths run.
		i := 0
		for i < len(reps) {
			c := cols[r.Intn(k)]
			n := 1 + r.Intn(40)
			if i+n > len(reps) {
				n = len(reps) - i
			}
			if n == 1 && r.Intn(2) == 0 {
				if err := c.Add(reps[i]); err != nil {
					t.Fatal(err)
				}
			} else if err := c.AddBatch(reps[i : i+n]); err != nil {
				t.Fatal(err)
			}
			i += n
		}
		merged := make([]int64, d)
		var users int64
		for _, c := range cols {
			frame, err := c.Flush(7)
			if err != nil {
				t.Fatal(err)
			}
			p, err := UnmarshalPartial(frame)
			if err != nil {
				t.Fatal(err)
			}
			for v, cnt := range p.Counts {
				merged[v] += cnt
			}
			users += p.Users
			if c.Users() != 0 {
				t.Fatal("flush did not reset the collector")
			}
		}
		if users != seq.Total() {
			t.Fatalf("trial %d (k=%d): merged users %d want %d", trial, k, users, seq.Total())
		}
		if !reflect.DeepEqual(merged, seq.Counts()) {
			t.Fatalf("trial %d (k=%d): merged partials diverged from sequential", trial, k)
		}
	}
}

// TestCollectorAddCountsExact: pre-aggregated counts fold in exactly and
// show up in the next flush; invalid inputs are rejected.
func TestCollectorAddCountsExact(t *testing.T) {
	c, err := NewCollector("edge", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddCounts([]int64{1, 2, 3, 4}, 6); err != nil {
		t.Fatal(err)
	}
	if err := c.AddCounts([]int64{10, 0, 0, 1}, 11); err != nil {
		t.Fatal(err)
	}
	p, err := c.Partial(2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Counts, []int64{11, 2, 3, 5}) || p.Users != 17 || p.EpochHint != 2 {
		t.Fatalf("partial %+v", p)
	}
	if err := c.AddCounts([]int64{1, 2, 3}, 1); err == nil {
		t.Fatal("domain mismatch accepted")
	}
	if err := c.AddCounts([]int64{1, -2, 3, 0}, 1); err == nil {
		t.Fatal("negative count accepted")
	}
	if err := c.AddCounts([]int64{1, 2, 3, 0}, -1); err == nil {
		t.Fatal("negative total accepted")
	}
}

func TestNewCollectorValidation(t *testing.T) {
	if _, err := NewCollector("", 8); err == nil {
		t.Fatal("empty node id accepted")
	}
	if _, err := NewCollector(string(make([]byte, maxTallyNodeID+1)), 8); err == nil {
		t.Fatal("oversized node id accepted")
	}
	if _, err := NewCollector("n", 1); err == nil {
		t.Fatal("domain 1 accepted")
	}
}

// FuzzUnmarshalPartial: arbitrary bytes must never panic the decoder,
// and every frame that decodes must re-encode to an equivalent partial.
func FuzzUnmarshalPartial(f *testing.F) {
	for _, seed := range []*PartialTally{
		samplePartial("edge-0", 0, 2, 1),
		samplePartial("edge-1", 12, 48, 2),
		{NodeID: "z", EpochHint: 1, Counts: make([]int64, 4), Users: 0},
	} {
		frame, err := MarshalPartial(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)/2]) // truncated
		badCRC := bytes.Clone(frame)
		badCRC[len(badCRC)-1] ^= 0xff
		f.Add(badCRC)
	}
	// Epoch hint beyond int64: patch the hint field and re-CRC so the
	// decoder reaches the range check rather than failing the checksum.
	over, err := MarshalPartial(samplePartial("edge-2", 1, 8, 3))
	if err != nil {
		f.Fatal(err)
	}
	hintOff := countHeaderSize + len("edge-2")
	binary.LittleEndian.PutUint64(over[hintOff:], math.MaxInt64+1)
	body := over[:len(over)-4]
	binary.LittleEndian.PutUint32(over[len(over)-4:], crc32.Checksum(body, tallyCRCTable))
	f.Add(over)
	f.Add([]byte("LP"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalPartial(data)
		if err != nil {
			return
		}
		frame, err := MarshalPartial(p)
		if err != nil {
			t.Fatalf("decoded partial does not re-encode: %v", err)
		}
		back, err := UnmarshalPartial(frame)
		if err != nil {
			t.Fatalf("re-encoded partial does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatal("partial mutated across re-encode round trip")
		}
	})
}
