package ldp_test

import (
	"errors"
	"reflect"
	"testing"

	"ldprecover/internal/ldp"
	"ldprecover/internal/stream"
)

// TestPartialFrameRejectionsLeaveManagerUntouched feeds every
// count-frame spec case down the partial lane the server takes:
// ValidatePartialFrame must fail with ErrCodec, and an epoch manager
// handed the view it returned anyway must refuse it and fold nothing.
// The cases are over the manager's own domain, so only the frame checks
// stand between a bad count and the live epoch.
func TestPartialFrameRejectionsLeaveManagerUntouched(t *testing.T) {
	proto, err := ldp.NewOUE(4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	newMgr := func() *stream.EpochManager {
		mgr, err := stream.NewEpochManager(stream.Config{Params: proto.Params(), TargetK: -1})
		if err != nil {
			t.Fatal(err)
		}
		good, err := ldp.MarshalPartial(&ldp.PartialTally{NodeID: "edge", Counts: []int64{3, 1, 4, 1}, Users: 5})
		if err != nil {
			t.Fatal(err)
		}
		p, err := ldp.ValidatePartialFrame(good)
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.AddPartialFrame(p); err != nil {
			t.Fatal(err)
		}
		return mgr
	}
	mgr, ref := newMgr(), newMgr()
	before := mgr.Stats()

	names, frames := ldp.PartialFrameRejections()
	for i, frame := range frames {
		p, err := ldp.ValidatePartialFrame(frame)
		if !errors.Is(err, ldp.ErrCodec) {
			t.Errorf("%s: ValidatePartialFrame error %v, want ErrCodec", names[i], err)
		}
		if err := mgr.AddPartialFrame(p); err == nil {
			t.Errorf("%s: manager folded a rejected frame's view", names[i])
		}
		if got := mgr.Stats(); !reflect.DeepEqual(got, before) {
			t.Fatalf("%s: manager stats moved: %+v, want %+v", names[i], got, before)
		}
	}
	got, err := mgr.Seal()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sealed estimate moved:\n got %+v\nwant %+v", got, want)
	}
}
