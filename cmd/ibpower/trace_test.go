package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"ibpower/internal/workloads"
)

// TestTracePackCatIsTextTrace pins "trace pack -jobs app:np" followed by
// "trace cat" as the way to emit a generated workload in the text trace
// format: the printed bytes are exactly the in-memory trace's Write output.
func TestTracePackCatIsTextTrace(t *testing.T) {
	dir := t.TempDir()
	packed := filepath.Join(dir, "wrf.ibt")
	out, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	packErr := cmdTracePack([]string{"-jobs", "wrf:8", "-scale", "0.1", "-o", packed})
	summary, _ := out.Seek(0, io.SeekCurrent) // pack's one-line report precedes cat's output
	catErr := cmdTraceCat([]string{packed})
	os.Stdout = stdout
	if packErr != nil || catErr != nil {
		t.Fatal(packErr, catErr)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}

	tr, err := workloads.Generate("wrf", 8, workloads.Options{Seed: 42, IterScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := tr.Write(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[summary:], want.Bytes()) {
		t.Errorf("trace cat printed %d bytes, the generated trace writes %d; they differ", len(got)-int(summary), want.Len())
	}
}
