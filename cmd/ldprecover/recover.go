package main

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ldprecover/internal/core"
	"ldprecover/internal/experiment"
)

// runRecover post-processes an existing poisoned frequency vector.
func runRecover(args []string) error {
	fs := newFlagSet("recover")
	var (
		in      = fs.String("in", "", "input CSV of poisoned frequencies (item,frequency); required")
		out     = fs.String("out", "", "output CSV path (default stdout)")
		protoN  = fs.String("protocol", "oue", "protocol the frequencies came from: grr, oue, olh")
		eps     = fs.Float64("epsilon", 0.5, "privacy budget used during collection")
		eta     = fs.Float64("eta", core.DefaultEta, "assumed malicious/genuine ratio")
		targets = fs.String("targets", "", "comma-separated target items for LDPRecover* (optional)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return errors.New("recover: -in is required")
	}

	poisoned, err := loadFrequencyCSV(*in)
	if err != nil {
		return err
	}
	kind, err := experiment.ParseProtocol(*protoN)
	if err != nil {
		return err
	}
	proto, err := kind.Build(len(poisoned), *eps)
	if err != nil {
		return err
	}
	opts := core.Options{Eta: *eta}
	if *targets != "" {
		ts, err := parseTargets(*targets)
		if err != nil {
			return err
		}
		opts.Targets = ts
	}
	pr := proto.Params()
	res, err := core.Recover(poisoned, core.Params{P: pr.P, Q: pr.Q, Domain: pr.Domain}, opts)
	if err != nil {
		return err
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := writeFrequencyCSV(w, res.Frequencies); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recovered %d frequencies (eta=%g, malicious sum %.4f, partial=%v)\n",
		len(res.Frequencies), res.Eta, res.MaliciousSum, res.PartialKnowledge)
	return nil
}

// loadFrequencyCSV reads "item,frequency" rows covering items 0..d-1.
func loadFrequencyCSV(path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cr := csv.NewReader(f)
	cr.FieldsPerRecord = 2
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: empty file", path)
	}
	if _, err := strconv.Atoi(rows[0][0]); err != nil {
		rows = rows[1:] // header
	}
	freqs := make([]float64, len(rows))
	seen := make([]bool, len(rows))
	for i, rec := range rows {
		item, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("%s row %d: bad item %q", path, i, rec[0])
		}
		if item < 0 || item >= len(rows) || seen[item] {
			return nil, fmt.Errorf("%s row %d: item %d invalid or duplicate", path, i, item)
		}
		seen[item] = true
		v, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("%s row %d: bad frequency %q", path, i, rec[1])
		}
		freqs[item] = v
	}
	return freqs, nil
}

// writeFrequencyCSV writes "item,frequency" rows.
func writeFrequencyCSV(w io.Writer, freqs []float64) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("item,frequency\n"); err != nil {
		return err
	}
	for v, f := range freqs {
		if _, err := fmt.Fprintf(bw, "%d,%.10g\n", v, f); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// parseTargets parses "3,7,11" into a target list.
func parseTargets(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad target %q", p)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, errors.New("no targets parsed")
	}
	return out, nil
}
