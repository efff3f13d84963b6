package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseTargets(t *testing.T) {
	got, err := parseTargets("3, 7,11")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 3 || got[1] != 7 || got[2] != 11 {
		t.Fatalf("targets %v", got)
	}
	if _, err := parseTargets(""); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := parseTargets("a,b"); err == nil {
		t.Fatal("non-numeric accepted")
	}
	got, err = parseTargets("5,") // trailing comma tolerated
	if err != nil || len(got) != 1 || got[0] != 5 {
		t.Fatalf("targets %v (err %v)", got, err)
	}
}

func TestFrequencyCSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "freqs.csv")
	want := []float64{0.5, 0.25, 0.15, 0.1}
	var buf bytes.Buffer
	if err := writeFrequencyCSV(&buf, want); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadFrequencyCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("length %d", len(got))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("freqs %v want %v", got, want)
		}
	}
}

func TestLoadFrequencyCSVErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := map[string]string{
		"empty.csv":     "",
		"dup.csv":       "0,0.5\n0,0.5\n",
		"gap.csv":       "0,0.5\n5,0.5\n",
		"badfreq.csv":   "0,zzz\n",
		"badfields.csv": "0,0.5,9\n",
	}
	for name, content := range cases {
		if _, err := loadFrequencyCSV(write(name, content)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	if _, err := loadFrequencyCSV(filepath.Join(dir, "missing.csv")); err == nil {
		t.Fatal("missing file accepted")
	}
	// Header row is tolerated.
	p := write("hdr.csv", "item,frequency\n0,0.6\n1,0.4\n")
	fs, err := loadFrequencyCSV(p)
	if err != nil || len(fs) != 2 {
		t.Fatalf("header file: %v (err %v)", fs, err)
	}
}

// TestBuildProtocol: the -protocol flag takes grr, oue and olh in any
// case, and an unknown name fails with the text the CLI always gave.
func TestBuildProtocol(t *testing.T) {
	in := filepath.Join(t.TempDir(), "poisoned.csv")
	if err := os.WriteFile(in, []byte("0,0.7\n1,0.2\n2,0.1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "recovered.csv")
	for _, name := range []string{"grr", "OUE", "Olh"} {
		if err := runRecover([]string{"-in", in, "-out", out, "-protocol", name}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	err := runRecover([]string{"-in", in, "-out", out, "-protocol", "nope"})
	if err == nil || err.Error() != `unknown protocol "nope" (want grr, oue, olh)` {
		t.Fatalf("unknown protocol: err %v", err)
	}
}

// TestBuildAttack: every -attack name runs one demo trial, in any case,
// and an unknown name is refused.
func TestBuildAttack(t *testing.T) {
	for _, name := range []string{"manip", "MGA", "aa", "mga-ipa"} {
		err := runDemo([]string{
			"-corpus", "zipf", "-d", "20", "-n", "2000", "-scale", "1",
			"-protocol", "oue", "-attack", name, "-r", "5",
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	err := runDemo([]string{"-corpus", "zipf", "-d", "20", "-n", "2000", "-attack", "nope"})
	if err == nil || err.Error() != `unknown attack "nope" (want manip, mga, aa, mga-ipa)` {
		t.Fatalf("unknown attack: err %v", err)
	}
}

func TestRunRecoverEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "poisoned.csv")
	out := filepath.Join(dir, "recovered.csv")
	// A d=4 poisoned vector with a negative cell and an inflated cell.
	if err := os.WriteFile(in, []byte("0,0.70\n1,-0.05\n2,0.25\n3,0.10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := runRecover([]string{"-in", in, "-out", out, "-protocol", "grr", "-epsilon", "1.0"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := loadFrequencyCSV(out)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, f := range got {
		if f < 0 {
			t.Fatalf("negative recovered frequency: %v", got)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("recovered frequencies sum to %v", sum)
	}
}

func TestRunRecoverWithTargets(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "poisoned.csv")
	if err := os.WriteFile(in, []byte("0,0.2\n1,0.6\n2,0.1\n3,0.1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runRecover([]string{"-in", in, "-protocol", "oue", "-targets", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := runRecover([]string{"-in", in, "-protocol", "oue", "-targets", "x"}); err == nil {
		t.Fatal("bad targets accepted")
	}
}

func TestRunRecoverRequiresInput(t *testing.T) {
	if err := runRecover(nil); err == nil {
		t.Fatal("missing -in accepted")
	}
}

func TestRunDemoSmoke(t *testing.T) {
	// Tiny zipf corpus keeps this fast; exercises the full CLI pipeline.
	err := runDemo([]string{
		"-corpus", "zipf", "-d", "20", "-n", "5000", "-scale", "1",
		"-protocol", "grr", "-attack", "mga", "-r", "3", "-seed", "9",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := runDemo([]string{"-corpus", "nope"}); err == nil {
		t.Fatal("unknown corpus accepted")
	}
	if err := runDemo([]string{"-corpus", "zipf", "-d", "20", "-n", "5000", "-protocol", "nope"}); err == nil {
		t.Fatal("unknown protocol accepted")
	}

	// -beta 0 runs with no malicious users, whatever -attack names.
	tiny := []string{"-corpus", "zipf", "-d", "20", "-n", "2000", "-scale", "1"}
	out, err := demoOutput(append(tiny, "-attack", "mga", "-beta", "0"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "beta=0\n") || !strings.Contains(out, "attack none") {
		t.Fatalf("-beta 0 -attack mga did not run unattacked:\n%s", out)
	}
	// A zero the harness would replace by its default is refused, and
	// the error names the flag.
	for _, flags := range [][]string{
		{"-epsilon", "0"},
		{"-epsilon", "-0.5"},
		{"-eta", "0"},
		{"-attack", "mga", "-r", "0"},
		{"-attack", "mga-ipa", "-r", "-1"},
	} {
		flag := flags[len(flags)-2]
		err := runDemo(append(tiny, flags...))
		if err == nil || !strings.HasPrefix(err.Error(), flag+" ") {
			t.Errorf("%v: err %v, want one naming %s", flags, err, flag)
		}
	}
	// -r 0 is fine for an untargeted attack, which takes no targets.
	if err := runDemo(append(tiny, "-attack", "aa", "-r", "0")); err != nil {
		t.Fatalf("-attack aa -r 0: %v", err)
	}
}

// demoOutput runs the demo with args and returns what it printed.
func demoOutput(args []string) (string, error) {
	rd, wr, err := os.Pipe()
	if err != nil {
		return "", err
	}
	stdout := os.Stdout
	os.Stdout = wr
	runErr := runDemo(args)
	os.Stdout = stdout
	wr.Close()
	out, err := io.ReadAll(rd)
	rd.Close()
	if runErr != nil {
		return "", runErr
	}
	return string(out), err
}
