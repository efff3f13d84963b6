package ldp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
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
	for name, mutate := range map[string]func(*PartialTally){
		"empty-node":     func(p *PartialTally) { p.NodeID = "" },
		"huge-node":      func(p *PartialTally) { p.NodeID = string(make([]byte, maxTallyNodeID+1)) },
		"negative-hint":  func(p *PartialTally) { p.EpochHint = -1 },
		"negative-users": func(p *PartialTally) { p.Users = -1 },
		"negative-count": func(p *PartialTally) { p.Counts[3] = -5 },
		"tiny-domain":    func(p *PartialTally) { p.Counts = p.Counts[:1] },
	} {
		bad := samplePartial("n", 0, d, 4)
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

// rawCountFrame holds a count frame's wire fields before encoding, so a
// spec case can set any of them to a value the encoder would refuse.
type rawCountFrame struct {
	magic        [2]byte
	version      byte
	idLen        int // declared node-id length; -1 means len(id)
	id           string
	epoch, total uint64
	domain       uint32
	counts       []uint64
}

// encode lays the fields out as a count frame and appends a valid
// CRC-32C, so the semantic checks are what reject a bad field.
func (f rawCountFrame) encode() []byte {
	idLen := f.idLen
	if idLen < 0 {
		idLen = len(f.id)
	}
	b := []byte{f.magic[0], f.magic[1], f.version}
	b = binary.LittleEndian.AppendUint16(b, uint16(idLen))
	b = append(b, f.id...)
	b = binary.LittleEndian.AppendUint64(b, f.epoch)
	b = binary.LittleEndian.AppendUint64(b, f.total)
	b = binary.LittleEndian.AppendUint32(b, f.domain)
	for _, c := range f.counts {
		b = binary.LittleEndian.AppendUint64(b, c)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, tallyCRCTable))
}

// validRawCountFrame is the valid frame every spec case mutates.
func validRawCountFrame(magic [2]byte) rawCountFrame {
	return rawCountFrame{magic: magic, version: countFrameVersion, idLen: -1, id: "edge-7",
		epoch: 3, total: 40, domain: 4, counts: []uint64{1, 0, 25, 14}}
}

// countFrameRejections is the count-frame spec: one frame per rule that
// rejects an "LT" or "LP" frame, built under the given magic. Every
// frame but the CRC case carries a valid checksum.
func countFrameRejections(magic [2]byte) []struct {
	name  string
	frame []byte
} {
	build := func(mutate func(*rawCountFrame)) []byte {
		f := validRawCountFrame(magic)
		mutate(&f)
		return f.encode()
	}
	valid := validRawCountFrame(magic).encode()
	badCRC := bytes.Clone(valid)
	badCRC[len(badCRC)-1] ^= 0x01
	return []struct {
		name  string
		frame []byte
	}{
		{"short frame", valid[:countHeaderSize+8+8+4+3]},
		{"bad magic", build(func(f *rawCountFrame) { f.magic = [2]byte{'L', 'X'} })},
		{"bad version", build(func(f *rawCountFrame) { f.version = countFrameVersion + 1 })},
		{"CRC mismatch", badCRC},
		{"node id length 0", build(func(f *rawCountFrame) { f.id = "" })},
		{"node id length above cap", build(func(f *rawCountFrame) { f.id = strings.Repeat("n", maxTallyNodeID+1) })},
		{"truncated header", build(func(f *rawCountFrame) { f.idLen = maxTallyNodeID })},
		{"epoch above MaxInt64", build(func(f *rawCountFrame) { f.epoch = math.MaxInt64 + 1 })},
		{"total above MaxInt64", build(func(f *rawCountFrame) { f.total = math.MaxUint64 })},
		{"domain below 2", build(func(f *rawCountFrame) { f.domain, f.counts = 1, f.counts[:1] })},
		{"domain above cap", build(func(f *rawCountFrame) { f.domain = maxTallyDomain + 1 })},
		{"count bytes short", build(func(f *rawCountFrame) { f.counts = f.counts[:3] })},
		{"count bytes long", build(func(f *rawCountFrame) { f.counts = append(f.counts, 0) })},
		{"negative count", build(func(f *rawCountFrame) { f.counts[2] = 1 << 63 })},
		{"negative count in last item", build(func(f *rawCountFrame) { f.counts[3] = math.MaxUint64 })},
		{"negative count in a tail of d = 3 mod 4", build(func(f *rawCountFrame) {
			f.domain, f.counts = 7, append(f.counts, 2, 9, 1<<63|5)
		})},
	}
}

// TestCountFrameValidation is the count-frame spec: one case per
// rejection rule, each re-CRC'd so the semantic check is what fires.
// Every case must fail UnmarshalPartial and ValidatePartialFrame and,
// under "LT" magic, UnmarshalTally, with ErrCodec. Feeding the cases
// on into an epoch manager is
// TestPartialFrameRejectionsLeaveManagerUntouched.
func TestCountFrameValidation(t *testing.T) {
	for _, tc := range countFrameRejections(partialMagic) {
		if _, err := UnmarshalPartial(tc.frame); !errors.Is(err, ErrCodec) {
			t.Errorf("%s: UnmarshalPartial error %v, want ErrCodec", tc.name, err)
		}
		if _, err := ValidatePartialFrame(tc.frame); !errors.Is(err, ErrCodec) {
			t.Errorf("%s: ValidatePartialFrame error %v, want ErrCodec", tc.name, err)
		}
	}
	for _, tc := range countFrameRejections(tallyMagic) {
		if _, err := UnmarshalTally(tc.frame); !errors.Is(err, ErrCodec) {
			t.Errorf("%s: UnmarshalTally error %v, want ErrCodec", tc.name, err)
		}
	}
	// The unmutated frame is valid, so each case fails on its own rule.
	if _, err := UnmarshalPartial(validRawCountFrame(partialMagic).encode()); err != nil {
		t.Fatalf("base partial frame rejected: %v", err)
	}
	if _, err := UnmarshalTally(validRawCountFrame(tallyMagic).encode()); err != nil {
		t.Fatalf("base tally frame rejected: %v", err)
	}
	// The counts are checked a word group at a time; a tail that does
	// not fill a group is still read, and the error names the first
	// negative item.
	tail := validRawCountFrame(partialMagic)
	tail.domain, tail.counts = 7, append(tail.counts, 2, 9, 1<<62)
	if _, err := ValidatePartialFrame(tail.encode()); err != nil {
		t.Fatalf("d=7 frame rejected: %v", err)
	}
	tail.counts[1], tail.counts[5] = math.MaxUint64, 1<<63
	_, err := ValidatePartialFrame(tail.encode())
	if want := "count -1 for item 1"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("two negative counts: error %v, want it to name %q", err, want)
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

// FuzzUnmarshalPartial: arbitrary bytes must never panic the decoder;
// ValidatePartialFrame must accept exactly the frames UnmarshalPartial
// accepts, and fold them through AddPartialFrame to the same counts and
// total as AddCounts of the decoded partial; every frame that decodes
// must re-encode to an equivalent partial.
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
		view, verr := ValidatePartialFrame(data)
		if (err == nil) != (verr == nil) {
			t.Fatalf("UnmarshalPartial error %v, ValidatePartialFrame error %v", err, verr)
		}
		if err != nil {
			return
		}
		// The in-place fold agrees with the decoded one.
		if view.NodeID != p.NodeID || view.Epoch != p.EpochHint || view.Total != p.Users ||
			view.Domain() != len(p.Counts) || !bytes.Equal(view.Bytes(), data) {
			t.Fatalf("view %+v disagrees with decoded partial %+v", view, p)
		}
		got, _ := NewShardedAccumulator(len(p.Counts), 1)
		if err := got.AddPartialFrame(view); err != nil {
			t.Fatal(err)
		}
		want, _ := NewShardedAccumulator(len(p.Counts), 1)
		if err := want.AddCounts(p.Counts, p.Users); err != nil {
			t.Fatal(err)
		}
		if got.Total() != want.Total() || !reflect.DeepEqual(got.Counts(), want.Counts()) {
			t.Fatal("AddPartialFrame diverged from AddCounts of the decoded partial")
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

// TestPartialFrameFoldAllocs pins the partial lane's allocation budget
// at d=4096: validating a frame in place and folding it from its wire
// bytes allocates the NodeID string and nothing else.
func TestPartialFrameFoldAllocs(t *testing.T) {
	const d = 4096
	frame, err := MarshalPartial(samplePartial("edge-allocs", 2, d, 11))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewShardedAccumulator(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		p, err := ValidatePartialFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if err := acc.AddPartialFrame(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("ValidatePartialFrame + AddPartialFrame: %.1f allocs per frame, want <= 1", allocs)
	}
}
