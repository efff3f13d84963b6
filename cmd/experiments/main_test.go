package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// footerRE matches the per-experiment run footer; its elapsed time is
// the only nondeterministic part of the output.
var footerRE = regexp.MustCompile(`(?m)^\[(\S+) completed in \S+: (.*)\]$`)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v: exit %d: %s", args, code, stderr.String())
	}
	return stdout.String()
}

// TestFooterReportsResolvedConfig: zero -trials and -seed select the
// paper defaults, and the footer must name the values the run used.
// The tables must equal those of a run that spells the defaults out,
// which also pins run's defaults to the experiment package's.
func TestFooterReportsResolvedConfig(t *testing.T) {
	zero := runOK(t, "-exp", "fig7", "-scale", "0.02", "-trials", "0", "-seed", "0")
	explicit := runOK(t, "-exp", "fig7", "-scale", "0.02", "-trials", "10", "-seed", "20240403")

	m := footerRE.FindStringSubmatch(zero)
	if m == nil {
		t.Fatalf("no run footer in output:\n%s", zero)
	}
	if want := "scale=0.02 trials=10 seed=20240403"; m[1] != "fig7" || m[2] != want {
		t.Fatalf("footer %q, want fig7 with %q", m[0], want)
	}
	if footerRE.ReplaceAllString(zero, "") != footerRE.ReplaceAllString(explicit, "") {
		t.Fatalf("-trials 0 -seed 0 tables differ from -trials 10 -seed 20240403:\n%s\nvs\n%s", zero, explicit)
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig99"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown experiment "fig99"`) {
		t.Fatalf("stderr %q", stderr.String())
	}
}
