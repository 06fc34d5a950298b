package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenArgs is the tiny figure size the testdata/ outputs were captured
// at (stdout without its "total wall time" line, plus the CSV file).
var goldenArgs = []string{"-nodes", "20,40", "-set", "duration=3000", "-set", "seeds=[1,2]"}

// runFigures runs the command in a fresh directory with a CSV prefix
// there and returns stdout (wall-time line dropped, CSV paths relative
// to the directory), stderr and the directory.
func runFigures(t *testing.T, args ...string) (stdout, stderr, dir string) {
	t.Helper()
	dir = t.TempDir()
	var out, errOut bytes.Buffer
	args = append(args, "-csv", filepath.Join(dir, "fig"))
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("figures %v exited %d:\n%s", args, code, errOut.String())
	}
	var kept []string
	for _, line := range strings.SplitAfter(out.String(), "\n") {
		if !strings.HasPrefix(line, "total wall time: ") {
			kept = append(kept, line)
		}
	}
	stdout = strings.ReplaceAll(strings.Join(kept, ""), dir+string(os.PathSeparator), "")
	return stdout, errOut.String(), dir
}

// TestFiguresGolden pins Figure 3 and ablation A3 byte for byte — tables
// and CSV — against outputs captured before the figures ran through the
// sweep path, live and through a fresh result cache (whose shared worlds
// replay a recorded trace).
func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("52 simulations in -short mode")
	}
	for _, c := range []struct{ fig, csv string }{{"3", "fig3.csv"}, {"a3", "fig_a3.csv"}} {
		wantOut, err := os.ReadFile(filepath.Join("testdata", "fig_"+c.fig+".stdout"))
		if err != nil {
			t.Fatal(err)
		}
		wantCSV, err := os.ReadFile(filepath.Join("testdata", c.csv))
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"live", "cached"} {
			args := append([]string{"-fig", c.fig}, goldenArgs...)
			if mode == "cached" {
				args = append(args, "-cache", t.TempDir())
			}
			stdout, _, dir := runFigures(t, args...)
			if stdout != string(wantOut) {
				t.Errorf("-fig %s (%s) stdout drifted:\n%s\nwant:\n%s", c.fig, mode, stdout, wantOut)
			}
			gotCSV, err := os.ReadFile(filepath.Join(dir, c.csv))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotCSV, wantCSV) {
				t.Errorf("-fig %s (%s) CSV drifted:\n%s\nwant:\n%s", c.fig, mode, gotCSV, wantCSV)
			}
		}
	}
}

// TestFiguresShareCache: every figure's cells are content-addressed, so
// A1's EER cell is Figure 3's λ=10 cell and a second run on the same
// cache reads it instead of simulating it.
func TestFiguresShareCache(t *testing.T) {
	cache := t.TempDir()
	args := []string{"-nodes", "20", "-set", "duration=300", "-set", "seeds=[1]", "-cache", cache}
	_, log3, _ := runFigures(t, append([]string{"-fig", "3"}, args...)...)
	if !strings.Contains(log3, `msg="figure done" figure=3 cells=4 simulated=4 runs=4 shared=0 cached=0`) {
		t.Errorf("figure 3 log:\n%s", log3)
	}
	_, logA1, _ := runFigures(t, append([]string{"-fig", "a1"}, args...)...)
	if !strings.Contains(logA1, `msg="figure done" figure=a1 cells=2 simulated=1 runs=1 shared=0 cached=1`) {
		t.Errorf("A1 did not read its EER cell from figure 3's cache:\n%s", logA1)
	}
}

// TestFiguresQuickKeepsDuration: -quick shrinks the base spec before the
// -set edits apply, so -quick -set duration=400 simulates (and caches)
// 400 s cells at quick's tick.
func TestFiguresQuickKeepsDuration(t *testing.T) {
	cache := t.TempDir()
	runFigures(t, "-fig", "a3", "-quick", "-set", "duration=400", "-nodes", "20", "-set", "seeds=[1]", "-cache", cache)
	files, err := filepath.Glob(filepath.Join(cache, "*", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no cached cells (%v)", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var res struct {
			CanonicalSpec struct {
				Scenario struct{ Duration, Tick float64 }
			} `json:"canonical_spec"`
		}
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatal(err)
		}
		if sc := res.CanonicalSpec.Scenario; sc.Duration != 400 || sc.Tick != 0.5 {
			t.Errorf("%s: cell ran %g s at tick %g, want 400 s at quick's 0.5", filepath.Base(f), sc.Duration, sc.Tick)
		}
	}
}

// TestFiguresUsageErrors: bad flags, bad spec edits, edits a figure's
// axis would override and cells the spec validation rejects exit 2
// before anything runs.
func TestFiguresUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "9"}, "unknown figure"},
		{[]string{"-nodes", "20,x"}, "bad node count"},
		{[]string{"-nodes", "1"}, "need at least two nodes"},
		{[]string{"-set", "shards=many"}, `bad shards \"many\"`},
		{[]string{"-set", "duration=long"}, "cannot unmarshal string"},
		{[]string{"-set", "nodes=60"}, `field=nodes axis=nodes hint="set node counts with -nodes"`},
		{[]string{"-fig", "3", "-set", "lambda=4"}, "figure=3 field=lambda axis=lambda"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, code)
		}
		if !strings.Contains(stderr.String(), c.want) || strings.Contains(stderr.String(), "figure starting") {
			t.Errorf("%v: stderr %q does not report %q before running", c.args, stderr.String(), c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: unexpected output:\n%s", c.args, stdout.String())
		}
	}
}

// TestFiguresEditOfUnsweptField: an edit of a field the figure does not
// sweep still runs (Figure 2 sweeps protocols and nodes, not lambda).
func TestFiguresEditOfUnsweptField(t *testing.T) {
	_, log, _ := runFigures(t, "-fig", "2", "-nodes", "20", "-set", "duration=300", "-set", "seeds=[1]", "-set", "lambda=4")
	if !strings.Contains(log, `msg="figure done" figure=2 cells=6`) {
		t.Errorf("figure 2 log:\n%s", log)
	}
}
