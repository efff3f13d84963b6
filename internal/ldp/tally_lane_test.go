package ldp_test

import (
	"errors"
	"reflect"
	"testing"

	"ldprecover/internal/ldp"
	"ldprecover/internal/stream"
)

// TestTallyFrameRejectionsLeaveMergerUntouched feeds every count-frame
// spec case down the tally lane the root takes: ValidateTallyFrame must
// fail with ErrCodec, and a merger handed the view it returned anyway
// must refuse it and move nothing — not its watermark, its dedupe
// count, its accounting, nor the next sealed estimate. The cases are
// over the merger's own domain and from one of its members, so only the
// frame checks stand between a bad count and the pending epoch.
func TestTallyFrameRejectionsLeaveMergerUntouched(t *testing.T) {
	proto, err := ldp.NewOUE(4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	newMerger := func() *stream.SealedMerger {
		mgr, err := stream.NewEpochManager(stream.Config{Params: proto.Params(), TargetK: -1})
		if err != nil {
			t.Fatal(err)
		}
		sm, err := stream.NewSealedMerger(mgr, []string{"edge-7", "fe-1"})
		if err != nil {
			t.Fatal(err)
		}
		good, err := ldp.MarshalTally(&ldp.Tally{NodeID: "fe-1", Counts: []int64{3, 1, 4, 1}, Total: 5})
		if err != nil {
			t.Fatal(err)
		}
		f, err := ldp.ValidateTallyFrame(good)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sm.MergeFrame(f); err != nil {
			t.Fatal(err)
		}
		return sm
	}
	sm, ref := newMerger(), newMerger()
	sealed, dupes, merged := sm.SealedThrough(), sm.Duplicates(), sm.Merged()

	names, frames := ldp.TallyFrameRejections()
	for i, frame := range frames {
		f, err := ldp.ValidateTallyFrame(frame)
		if !errors.Is(err, ldp.ErrCodec) {
			t.Errorf("%s: ValidateTallyFrame error %v, want ErrCodec", names[i], err)
		}
		if _, err := sm.MergeFrame(f); err == nil {
			t.Errorf("%s: merger merged a rejected frame's view", names[i])
		}
		if sm.SealedThrough() != sealed || sm.Duplicates() != dupes || !reflect.DeepEqual(sm.Merged(), merged) {
			t.Fatalf("%s: merger state moved", names[i])
		}
	}
	got, _, err := sm.SealPartial()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ref.SealPartial()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sealed estimate moved:\n got %+v\nwant %+v", got, want)
	}
}
