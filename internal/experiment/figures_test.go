package experiment

import (
	"strings"
	"testing"
)

// tinyConfig keeps figure smoke tests fast.
func tinyConfig() Config {
	return Config{Scale: 0.01, Trials: 2, Seed: 42}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:  "demo",
		Header: []string{"a", "bb"},
	}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	out := tb.Render()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "333") {
		t.Fatalf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("render has %d lines:\n%s", len(lines), out)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,bb\n") {
		t.Fatalf("csv wrong:\n%s", csv)
	}
}

func TestSciFixedFormat(t *testing.T) {
	if sci(5.89e-4) != "5.89E-04" {
		t.Fatalf("sci = %q", sci(5.89e-4))
	}
	if fixed(0.5) != "+0.500" {
		t.Fatalf("fixed = %q", fixed(0.5))
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every paper table/figure has a registered generator.
	want := []string{"fig3", "fig4", "fig5", "fig6", "fig7", "table1", "fig8", "fig9", "fig10"}
	for _, id := range want {
		if Registry[id] == nil {
			t.Fatalf("experiment %q not registered", id)
		}
	}
	if len(RegistryOrder) != len(want) {
		t.Fatalf("registry order has %d entries", len(RegistryOrder))
	}
	for _, id := range RegistryOrder {
		if Registry[id] == nil {
			t.Fatalf("order lists unknown id %q", id)
		}
	}
	seen := map[string]int{}
	for _, id := range AblationOrder {
		if AblationRegistry[id] == nil {
			t.Fatalf("ablation order lists unknown id %q", id)
		}
		seen[id]++
	}
	for id := range AblationRegistry {
		if seen[id] != 1 {
			t.Fatalf("ablation %q appears %d times in AblationOrder, want 1", id, seen[id])
		}
	}
}

func TestFigure3Smoke(t *testing.T) {
	tables, err := Figure3(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("%d tables want 2", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) != len(figure3Combos) {
			t.Fatalf("table %q has %d rows", tb.Title, len(tb.Rows))
		}
	}
}

func TestFigure4Smoke(t *testing.T) {
	tables, err := Figure4(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || len(tables[0].Rows) != 3 {
		t.Fatalf("unexpected shape")
	}
}

func TestFigure5Smoke(t *testing.T) {
	cfg := tinyConfig()
	tables, err := Figure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 { // beta, epsilon, eta sweeps
		t.Fatalf("%d tables want 3", len(tables))
	}
	if len(tables[0].Rows) != len(betaSweep) {
		t.Fatalf("beta sweep has %d rows", len(tables[0].Rows))
	}
}

func TestFigure7Smoke(t *testing.T) {
	tables, err := Figure7(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != len(beta2Sweep) {
		t.Fatalf("unexpected shape")
	}
}

func TestTableISmoke(t *testing.T) {
	tables, err := TableI(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 3 {
		t.Fatalf("unexpected shape")
	}
}

func TestFigure8Smoke(t *testing.T) {
	tables, err := Figure8(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != len(beta2Sweep) {
		t.Fatal("unexpected shape")
	}
}

func TestFigure9Smoke(t *testing.T) {
	tables, err := Figure9(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != len(xiSweep) {
		t.Fatal("unexpected shape")
	}
}

func TestFigure10Smoke(t *testing.T) {
	tables, err := Figure10(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != len(beta2Sweep) {
		t.Fatal("unexpected shape")
	}
}

func TestAblationsSmoke(t *testing.T) {
	cfg := tinyConfig()
	for _, id := range AblationOrder {
		tables, err := AblationRegistry[id](cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			t.Fatalf("%s: empty output", id)
		}
	}
}
