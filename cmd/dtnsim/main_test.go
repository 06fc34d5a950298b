package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestDtnsimSmoke runs a tiny scenario end to end through the CLI.
func TestDtnsimSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-protocol", "EER-meanMD", "-nodes", "12", "-duration", "300"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "delivery ratio") {
		t.Fatalf("no report on stdout:\n%s", stdout.String())
	}
}

// TestDtnsimUnknownNames pins the usage errors for names the engine would
// panic on, and for every other value the spec validation rejects (job
// ceilings included): an error line and exit status 2, before any world
// is built.
func TestDtnsimUnknownNames(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-protocol", "Bogus"}, `unknown protocol "Bogus"`},
		{[]string{"-mobility", "teleport"}, `unknown mobility model "teleport"`},
		{[]string{"-city", "-protocol", "eer"}, `unknown protocol "eer"`},
		{[]string{"-nodes", "1"}, "need at least two nodes"},
		{[]string{"-seeds", "100"}, "at most 64 seeds per job"},
		{[]string{"-msgsize", "2048"}, "buf_bytes must be 0 (unbounded) or >="},
		{[]string{"-shards", "many"}, `bad shards "many"`},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, code)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: stderr %q does not mention %q", c.args, stderr.String(), c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: unexpected report:\n%s", c.args, stdout.String())
		}
	}
}

// TestDtnsimPresetKeepsUnsetFields: flags the user set override the
// preset; every other field keeps the preset's value, not the flag's
// default (CityScale runs SprayAndWait, the flag default is EER).
func TestDtnsimPresetKeepsUnsetFields(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-city", "-nodes", "100", "-duration", "20", "-lambda", "4"}, &stdout, &stderr); code > 1 {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	if want := "protocol=SprayAndWait nodes=100 duration=20s lambda=4 alpha=0.28 seeds=1\n"; !strings.HasPrefix(stdout.String(), want) {
		t.Errorf("header:\n%s\nwant prefix %q", stdout.String(), want)
	}
}
