package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// TestDtnsimSmoke runs a tiny scenario end to end through the CLI.
func TestDtnsimSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-set", "protocol=EER-meanMD", "-set", "nodes=12", "-set", "duration=300"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "delivery ratio") {
		t.Fatalf("no report on stdout:\n%s", stdout.String())
	}
}

// TestDtnsimReportPinned: the testdata reports were captured, minus the
// wall-time line, when each scenario field had a flag of its own
// ("-protocol EER-meanMD -nodes 12 -duration 300 -seeds 2 -v" and
// "-city -nodes 100 -duration 20 -lambda 4"). The -set and -spec
// spellings of the same scenarios must print them byte for byte.
func TestDtnsimReportPinned(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "spec.json")
	doc := `{"protocol": "EER-meanMD", "nodes": 12, "seeds": [1, 2]}`
	if err := os.WriteFile(spec, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file string
		code int
		args []string
	}{
		{"eer_meanmd.stdout", 0, []string{"-set", "protocol=EER-meanMD", "-set", "nodes=12", "-set", "duration=300", "-set", "seeds=[1,2]", "-v"}},
		{"eer_meanmd.stdout", 0, []string{"-spec", spec, "-set", "duration=300", "-v"}},
		// Fields the user sets override the preset; every other field keeps
		// the preset's value (CityScale runs SprayAndWait, the paper EER).
		// It generates no message in 20 s, so the run exits 1.
		{"city.stdout", 1, []string{"-set", "preset=cityscale", "-set", "nodes=100", "-set", "duration=20", "-set", "lambda=4"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.code {
			t.Fatalf("%v: exit %d, want %d: %s", c.args, code, c.code, stderr.String())
		}
		var kept []string
		for _, line := range strings.SplitAfter(stdout.String(), "\n") {
			if !strings.HasPrefix(line, "wall time") {
				kept = append(kept, line)
			}
		}
		if got := strings.Join(kept, ""); got != string(want) {
			t.Errorf("%v: report drifted:\n%s\nwant:\n%s", c.args, got, want)
		}
	}
}

// TestDtnsimUnknownNames pins the usage errors for names the engine would
// panic on, and for every other value the spec validation rejects (job
// ceilings included): an error line and exit status 2, before any world
// is built.
func TestDtnsimUnknownNames(t *testing.T) {
	seeds, err := json.Marshal(experiment.Seeds(100))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-set", "protocol=Bogus"}, `unknown protocol "Bogus"`},
		{[]string{"-set", "mobility=teleport"}, `unknown mobility model "teleport"`},
		{[]string{"-set", "preset=cityscale", "-set", "protocol=eer"}, `unknown protocol "eer"`},
		{[]string{"-set", "nodes=1"}, "need at least two nodes"},
		{[]string{"-set", "seeds=" + string(seeds)}, "at most 64 seeds per job"},
		{[]string{"-set", "msg_size=2097152"}, "buf_bytes must be 0 (unbounded) or >="},
		{[]string{"-set", "shards=many"}, `bad shards "many"`},
		{[]string{"-set", "protocl=EER"}, `unknown field "protocl"`},
		{[]string{"-set", "nodes"}, "want field=value"},
		{[]string{"-spec", filepath.Join(t.TempDir(), "missing.json")}, "-spec: open"},
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
