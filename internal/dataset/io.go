package dataset

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
)

// WriteCSV writes the dataset as "item,count" rows with a header.
func (d *Dataset) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write([]string{"item", "count"}); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	for v, c := range d.Counts {
		rec := []string{strconv.Itoa(v), strconv.FormatInt(c, 10)}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: write row %d: %w", v, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("dataset: flush csv: %w", err)
	}
	return bw.Flush()
}

// SaveCSV writes the dataset to a file.
func (d *Dataset) SaveCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: create %s: %w", path, err)
	}
	defer f.Close()
	if err := d.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}
