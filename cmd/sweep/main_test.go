package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSweepSmoke runs a tiny lambda sweep through the CLI.
func TestSweepSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-param", "lambda", "-protocol", "EER", "-nodes", "10", "-duration", "200", "-seeds", "1"}
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
	if code := run([]string{"-protocol", "Bogus"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown protocol \"Bogus\"`) {
		t.Errorf("stderr %q does not name the protocol", stderr.String())
	}
	if strings.Contains(stderr.String(), "sweep starting") || stdout.Len() != 0 {
		t.Errorf("sweep ran anyway:\n%s%s", stderr.String(), stdout.String())
	}
}
