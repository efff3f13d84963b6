package main

import (
	"testing"

	"ldprecover/internal/lint"
	"ldprecover/internal/lint/analysis"
	"ldprecover/internal/lint/load"
)

// TestLintClean runs the repository's ldplint suite, nowallclock among
// it, over this module, which the root module's TestRepoIsClean does not
// reach: every clock read goes through clock.go and carries its reason.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the module; skipped with -short")
	}
	pkgs, err := load.Load(".", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader matched no packages")
	}
	for _, pkg := range pkgs {
		diags, err := analysis.Run(&pkg.Package, lint.Analyzers())
		if err != nil {
			t.Fatalf("%s: %v", pkg.ImportPath, err)
		}
		for _, d := range diags {
			t.Errorf("%s: [%s] %s", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
}
