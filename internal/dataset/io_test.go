package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	ds, _ := New("orig", []int64{10, 0, 5, 7})
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "item,count\n0,10\n1,0\n2,5\n3,7\n"
	if got := buf.String(); got != want {
		t.Fatalf("WriteCSV wrote %q, want %q", got, want)
	}
}

func TestSaveLoadCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.csv")
	ds, _ := Zipf("z", 20, 5000, 1.0)
	if err := ds.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := ds.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("SaveCSV wrote %q, want WriteCSV's %q", got, want.Bytes())
	}
}
