package experiment

import (
	"strings"
	"testing"
)

// TestRunGridMatchesSequential: running a grid's trials on one shared
// pool must not change a single digit of any figure — every cell is
// seeded independently and accumulates its trials in trial order, so the
// grid's output is schedule-invariant. The second grid mixes per-cell
// trial counts, so one cell's trials interleave with another's.
func TestRunGridMatchesSequential(t *testing.T) {
	ds := testDataset(t)
	mk := func(seed uint64, proto ProtocolKind, trials int) Scenario {
		return Scenario{
			Dataset:  ds,
			Protocol: proto,
			Attack:   MGAAttack,
			Trials:   trials,
			Seed:     seed,
		}
	}
	var uniform, mixed []*gridCell
	for i := 0; i < 6; i++ {
		uniform = append(uniform, &gridCell{
			tag: "grid-test",
			scn: mk(uint64(i+1), AllProtocols[i%len(AllProtocols)], 2),
		})
	}
	for i, trials := range []int{1, 2, 3} {
		mixed = append(mixed, &gridCell{
			tag: "grid-test-mixed",
			scn: mk(uint64(i+11), AllProtocols[i%len(AllProtocols)], trials),
		})
	}
	for _, cells := range [][]*gridCell{uniform, mixed} {
		if err := runGrid(cells); err != nil {
			t.Fatal(err)
		}
		for i, c := range cells {
			want, err := Run(c.scn)
			if err != nil {
				t.Fatal(err)
			}
			if c.m == nil {
				t.Fatalf("%s cell %d has no metrics", c.tag, i)
			}
			if *c.m != *want {
				t.Fatalf("%s cell %d diverged from sequential Run: %+v vs %+v", c.tag, i, c.m, want)
			}
		}
	}
}

// TestRunGridPropagatesError: a failing cell surfaces with its tag.
func TestRunGridPropagatesError(t *testing.T) {
	cells := []*gridCell{
		{tag: "good", scn: Scenario{Dataset: testDataset(t), Protocol: GRR, Trials: 1, Seed: 1}},
		{tag: "bad-cell", scn: Scenario{ /* no dataset */ }},
	}
	err := runGrid(cells)
	if err == nil {
		t.Fatal("invalid cell did not fail the grid")
	}
	if !strings.Contains(err.Error(), "bad-cell") {
		t.Fatalf("error lost its cell tag: %v", err)
	}
}

// TestValidateRejectsDetectionWithoutReports pins the footgun fix: the
// count-level path materializes no reports, so Detection over it must be
// rejected, not silently fed nothing.
func TestValidateRejectsDetectionWithoutReports(t *testing.T) {
	s := Scenario{
		Dataset:      testDataset(t),
		Attack:       MGAAttack,
		RunDetection: true,
		Trials:       1,
	}
	// Direct validation (as a runTrial caller would hit it): the
	// combination must be rejected before any simulation runs.
	s = s.withDefaults()
	s.ReportLevel = false
	if err := s.validate(); err == nil {
		t.Fatal("RunDetection without ReportLevel validated")
	}
	// The public path auto-forces report-level simulation instead.
	forced := Scenario{
		Dataset:      testDataset(t),
		Attack:       MGAAttack,
		RunDetection: true,
		Trials:       1,
		Seed:         3,
	}
	m, err := Run(forced)
	if err != nil {
		t.Fatal(err)
	}
	if !m.HasDetect {
		t.Fatal("detection metrics missing from auto-forced report-level run")
	}
}
