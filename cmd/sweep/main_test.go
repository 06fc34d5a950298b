package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSweepSmoke runs a tiny lambda sweep through the CLI.
func TestSweepSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-param", "lambda", "-set", "protocol=EER", "-set", "nodes=10", "-set", "duration=200", "-set", "seeds=[1]"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Sweep lambda (EER, n=10)") {
		t.Fatalf("no table on stdout:\n%s", stdout.String())
	}
}

// TestSweepUnknownProtocol pins the usage error: an error line and exit
// status 2, before any cell runs.
func TestSweepUnknownProtocol(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-set", "protocol=Bogus"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown protocol \"Bogus\"`) {
		t.Errorf("stderr %q does not name the protocol", stderr.String())
	}
	if strings.Contains(stderr.String(), "sweep starting") || stdout.Len() != 0 {
		t.Errorf("sweep ran anyway:\n%s%s", stderr.String(), stdout.String())
	}
}

// TestSweepLogsSharedRuns: Epidemic never reads lambda, so a lambda sweep
// simulates one run per seed and logs the other cells as shared; a second
// pass over the same cache serves every cell from it.
func TestSweepLogsSharedRuns(t *testing.T) {
	args := []string{"-param", "lambda", "-set", "protocol=Epidemic", "-set", "nodes=20", "-set", "duration=300",
		"-set", "seeds=[1,2]", "-cache", t.TempDir()}
	for _, want := range []string{"simulated=1 runs=2 shared=6 cached=0", "simulated=0 runs=0 shared=0 cached=7"} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run exited %d: %s", code, stderr.String())
		}
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("log does not report %q:\n%s", want, stderr.String())
		}
	}
}
