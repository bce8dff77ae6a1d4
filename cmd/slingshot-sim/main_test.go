package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestRunCPUProfile: -cpuprofile writes a non-empty profile of the run
// and leaves the results on the output writer.
func TestRunCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig2.pprof")
	var out bytes.Buffer
	if err := run([]string{"fig2", "-nodes", "16", "-iters", "20", "-format", "json", "-cpuprofile", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte(`"experiment": "fig2"`)) {
		t.Errorf("results missing from the output:\n%s", out.String())
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Error("CPU profile is empty")
	}
}
