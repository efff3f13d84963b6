package stream

import (
	"errors"
	"reflect"
	"testing"

	"ldprecover/internal/ldp"
)

func partialOf(hint int, counts []int64, users int64) *ldp.PartialTally {
	return &ldp.PartialTally{NodeID: "edge", EpochHint: hint, Counts: counts, Users: users}
}

// TestAddPartialEquivalentToAddCounts: a partial with a current hint
// folds exactly like the same counts through AddCounts.
func TestAddPartialEquivalentToAddCounts(t *testing.T) {
	cfg, _ := testConfig(t, 8, 0.5)
	a, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := []int64{4, 0, 9, 1, 0, 0, 3, 2}
	if err := a.AddPartial(partialOf(0, counts, 19)); err != nil {
		t.Fatal(err)
	}
	if err := b.AddCounts(counts, 19); err != nil {
		t.Fatal(err)
	}
	ea, err := a.Seal()
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ea, eb) {
		t.Fatalf("partial fold diverged from AddCounts: %+v vs %+v", ea, eb)
	}
	if a.Epochs()[0].Total != 19 {
		t.Fatalf("sealed total %d want 19", a.Epochs()[0].Total)
	}
}

// TestAddPartialStaleRejected: a hint behind the sealed watermark fails
// with ErrStalePartial and folds nothing.
func TestAddPartialStaleRejected(t *testing.T) {
	cfg, _ := testConfig(t, 4, 0.5)
	m, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddCounts([]int64{1, 0, 0, 0}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Seal(); err != nil {
		t.Fatal(err)
	}
	// Watermark is now 1; a hint of 0 aggregated for the sealed epoch.
	err = m.AddPartial(partialOf(0, []int64{5, 5, 5, 5}, 20))
	if !errors.Is(err, ErrStalePartial) {
		t.Fatalf("stale partial: %v, want ErrStalePartial", err)
	}
	if st := m.Stats(); st.LiveTotal != 0 {
		t.Fatalf("stale partial folded %d live reports", st.LiveTotal)
	}
	// A current hint is accepted again.
	if err := m.AddPartial(partialOf(1, []int64{1, 1, 0, 0}, 2)); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.LiveTotal != 2 {
		t.Fatalf("live total %d want 2", st.LiveTotal)
	}
}

// TestAddPartialAheadClampsToOpenEpoch: a hint ahead of the watermark
// (the collector's clock runs hot) folds into the currently open epoch.
func TestAddPartialAheadClampsToOpenEpoch(t *testing.T) {
	cfg, _ := testConfig(t, 4, 0.5)
	m, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddPartial(partialOf(1000, []int64{2, 0, 1, 0}, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Seal(); err != nil {
		t.Fatal(err)
	}
	eps := m.Epochs()
	if len(eps) != 1 || eps[0].Seq != 0 || eps[0].Total != 3 {
		t.Fatalf("epochs %+v: far-future hint did not clamp into epoch 0", eps)
	}
	if !reflect.DeepEqual(eps[0].Counts, []int64{2, 0, 1, 0}) {
		t.Fatalf("epoch counts %v", eps[0].Counts)
	}
}

// TestAddPartialValidation: nil partials and domain mismatches error.
func TestAddPartialValidation(t *testing.T) {
	cfg, _ := testConfig(t, 4, 0.5)
	m, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddPartial(nil); err == nil {
		t.Fatal("nil partial accepted")
	}
	if err := m.AddPartial(partialOf(0, []int64{1, 2, 3}, 6)); err == nil {
		t.Fatal("domain-mismatched partial accepted")
	}
	if err := m.AddPartial(partialOf(0, []int64{1, -2, 3, 0}, 2)); err == nil {
		t.Fatal("negative-count partial accepted")
	}
}

// TestAddPartialFrameMatchesAddPartial: the wire-byte lane makes the
// same staleness verdicts and folds the same counts as the decoded
// lane — current, far-ahead and stale hints across two seals, plus a
// frame over the wrong domain.
func TestAddPartialFrameMatchesAddPartial(t *testing.T) {
	cfg, _ := testConfig(t, 4, 0.5)
	decoded, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := []*ldp.PartialTally{
		partialOf(0, []int64{4, 0, 9, 1}, 11),
		partialOf(1000, []int64{2, 0, 1, 0}, 3),
		nil,                                   // seal
		partialOf(0, []int64{5, 5, 5, 5}, 20), // stale
		partialOf(1, []int64{1, 1, 0, 0}, 2),
		partialOf(1, []int64{1, 1, 0}, 2), // wrong domain
		nil,
		partialOf(1, []int64{7, 7, 7, 7}, 9), // stale
		partialOf(2, []int64{0, 3, 0, 8}, 8),
		nil,
	}
	for i, p := range steps {
		if p == nil {
			want, err := decoded.Seal()
			if err != nil {
				t.Fatal(err)
			}
			got, err := wire.Seal()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: sealed estimates diverged:\n got %+v\nwant %+v", i, got, want)
			}
			continue
		}
		frame, err := ldp.MarshalPartial(p)
		if err != nil {
			t.Fatal(err)
		}
		view, err := ldp.ValidatePartialFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		wantErr, gotErr := decoded.AddPartial(p), wire.AddPartialFrame(view)
		if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ErrStalePartial) != errors.Is(wantErr, ErrStalePartial) {
			t.Fatalf("step %d: AddPartialFrame error %v, AddPartial error %v", i, gotErr, wantErr)
		}
	}
	if !reflect.DeepEqual(wire.Epochs(), decoded.Epochs()) {
		t.Fatal("sealed epochs diverged between the lanes")
	}
}
