package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/resultcache"
	"repro/internal/trace"
)

// TestTracegenSmoke records a small quick-preset world into a fresh store
// and checks the blob lands under its trace key, decodes, and matches the
// file written by -o byte for byte.
func TestTracegenSmoke(t *testing.T) {
	dir := t.TempDir()
	outFile := filepath.Join(dir, "script.bin")
	var stderr bytes.Buffer
	args := []string{
		"-set", "preset=quick",
		"-set", "nodes=20", "-set", "duration=300", "-set", "seeds=[7]",
		"-store", filepath.Join(dir, "store"), "-o", outFile,
	}
	if code := run(args, &stderr); code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "trace ") {
		t.Fatalf("no trace key printed:\n%s", stderr.String())
	}

	sp := experiment.ScenarioSpec{
		Preset:   "quick",
		Nodes:    experiment.Ptr(20),
		Duration: experiment.Ptr(300.0),
		Seeds:    []int64{7},
	}
	s, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	s.Seed = 7
	key := experiment.TraceKey(s)

	store, err := resultcache.Open(filepath.Join(dir, "store"), 0)
	if err != nil {
		t.Fatal(err)
	}
	data, ok := store.GetTrace(key)
	if !ok {
		t.Fatalf("store has no trace under key %s", key)
	}
	sc, err := trace.DecodeScript(data)
	if err != nil {
		t.Fatalf("stored trace does not decode: %v", err)
	}
	if sc.N != 20 {
		t.Fatalf("stored script has %d nodes, want 20", sc.N)
	}
	fileData, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fileData, data) {
		t.Error("-o file and stored blob differ")
	}
}

// TestTracegenBadFlags pins the usage errors: no destination, bad seeds,
// multi-seed -o, a bad spec document.
func TestTracegenBadFlags(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(spec, []byte(`{"preset": "no-such-preset"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-set", "preset=quick"},                              // no -store, no -o
		{"-store", "x", "-set", "seeds=[1,zap]"},              // bad seed
		{"-o", "f.bin", "-store", "x", "-set", "seeds=[1,2]"}, // -o with 2 seeds
		{"-store", "x", "-spec", spec},                        // bad spec
		{"-store", "x", "-spec", spec + ".missing"},           // no spec file
	}
	for _, args := range cases {
		var stderr bytes.Buffer
		if code := run(args, &stderr); code != 2 {
			t.Errorf("run(%v) exited %d, want 2 (%s)", args, code, stderr.String())
		}
	}
}

// TestTracegenHelp: -h prints the usage, which names the shared -spec
// and -set scenario flags, and exits 0 as dtnsim and sweep do.
func TestTracegenHelp(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-h"}, &stderr); code != 0 {
		t.Fatalf("run(-h) exited %d, want 0", code)
	}
	for _, want := range []string{"-spec", "-set", "field=value"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("usage does not mention %q:\n%s", want, stderr.String())
		}
	}
}
