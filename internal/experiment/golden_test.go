package experiment

import (
	"os"
	"strings"
	"testing"
)

// goldenTablesPath pins the rendered count-level tables of fig5 and
// ablation:refiner at scale 0.02, 2 trials and the default seed. Any
// change to the count-level sampler, the attacks, recovery or the
// harness's seeding shows up here as a byte diff. Regenerate with
//
//	go run ./cmd/experiments -exp fig5,ablation:refiner -scale 0.02 -trials 2 \
//	  | sed '/completed in/,+1d' > internal/experiment/testdata/count_tables.golden
//
// and only when a change to the numbers is intended.
const goldenTablesPath = "testdata/count_tables.golden"

func TestCountLevelTablesGolden(t *testing.T) {
	cfg := Config{Scale: 0.02, Trials: 2}
	var got strings.Builder
	for _, gen := range []func(Config) ([]*Table, error){Registry["fig5"], AblationRegistry["refiner"]} {
		tables, err := gen(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range tables {
			got.WriteString(tb.Render())
			got.WriteString("\n")
		}
	}
	want, err := os.ReadFile(goldenTablesPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("count-level tables drifted from %s\ngot:\n%s\nwant:\n%s", goldenTablesPath, got.String(), want)
	}
}
