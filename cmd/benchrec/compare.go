package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// Verdicts compare's rule gives a change (set B) against its parent (set A)
// on one workload and metric.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved"
)

// side summarises one set's runs of a metric.
type side struct {
	median, q1, q3 float64
	n              int
}

func summarise(xs []float64) side {
	q1, q3 := quartiles(xs)
	return side{median: median(xs), q1: q1, q3: q3, n: len(xs)}
}

// gain is how much better b is than a for the metric's direction: positive
// when b is better.
func gain(def metricDef, a, b float64) float64 {
	if def.Better == "higher" {
		return b - a
	}
	return a - b
}

// verdict applies the benchmark's rule to one metric. pairs are (A, B)
// values of runs made as pairs (same seed); wins counts pairs B won, ties
// counting for neither.
//
//   - better: B wins at least 9 in 10 pairs, and the medians differ, in B's
//     favour, by more than A's spread between quartiles.
//   - worse: B's median is worse than A's by more than the bound (a share
//     of A's median).
//   - unresolved: either set's spread between quartiles is wider than the
//     bound, unless every B run reads better than every A run.
//   - within bound otherwise.
func verdict(def metricDef, a, b []float64, pairs [][2]float64) (string, float64) {
	sa, sb := summarise(a), summarise(b)
	wins := 0
	for _, p := range pairs {
		if gain(def, p[0], p[1]) > 0 {
			wins++
		}
	}
	winFrac := 0.0
	if len(pairs) > 0 {
		winFrac = float64(wins) / float64(len(pairs))
	}
	d := gain(def, sa.median, sb.median)
	if len(pairs) > 0 && winFrac >= 0.9 && d > sa.q3-sa.q1 {
		return verdictBetter, winFrac
	}
	if -d > def.Bound*sa.median {
		return verdictWorse, winFrac
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range a {
		for _, y := range b {
			if gain(def, x, y) <= 0 {
				allBetter = false
			}
		}
	}
	spreadA, spreadB := pct(sa.q3-sa.q1, sa.median)/100, pct(sb.q3-sb.q1, sb.median)/100
	if (spreadA > def.Bound || spreadB > def.Bound) && !allBetter {
		return verdictUnresolved, winFrac
	}
	return verdictWithin, winFrac
}

// resultSet is the result files of one side, by workload and trace mode.
type resultSet struct {
	dir   string
	files []*runFile
}

// collectSets reads result files named on the command line — directories
// or files — and groups them by directory: the first directory is the
// parent (A), the second the change (B).
func collectSets(args []string) ([]*resultSet, error) {
	var sets []*resultSet
	add := func(path string) error {
		base := filepath.Base(path)
		if !strings.HasSuffix(base, "-trace0.json") && !strings.HasSuffix(base, "-trace1.json") {
			return nil // span traces, profiles and other files
		}
		rf, err := readRunFile(path)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		for _, s := range sets {
			if s.dir == dir {
				s.files = append(s.files, rf)
				return nil
			}
		}
		sets = append(sets, &resultSet{dir: dir, files: []*runFile{rf}})
		return nil
	}
	for _, arg := range args {
		st, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			if err := add(arg); err != nil {
				return nil, err
			}
			continue
		}
		paths, err := filepath.Glob(filepath.Join(arg, "*.json"))
		if err != nil {
			return nil, err
		}
		for _, p := range paths {
			if err := add(p); err != nil {
				return nil, err
			}
		}
	}
	if len(sets) != 2 {
		return nil, fmt.Errorf("want result files from exactly two directories (parent, change), got %d", len(sets))
	}
	return sets, nil
}

// values returns a set's values of one metric on one workload, by seed.
func (s *resultSet) values(workload, metric string, traced bool) map[int64]float64 {
	out := map[int64]float64{}
	for _, rf := range s.files {
		if rf.Workload != workload || rf.Traced != traced {
			continue
		}
		if v, ok := rf.Metrics[metric]; ok {
			out[rf.Seed] = v.Value
		}
	}
	return out
}

func compareMain(args []string, w io.Writer) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: benchrec compare PARENT_DIR|FILES... CHANGE_DIR|FILES...")
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	sets, err := collectSets(args)
	if err != nil {
		return err
	}
	return compare(spec, sets[0], sets[1], w)
}

// compare prints, per workload and end-to-end metric, each side's median
// and quartiles, the pairwise win fraction and the verdict; then the
// per-layer medians of traced runs; then any environment differences.
func compare(spec *benchSpec, a, b *resultSet, w io.Writer) error {
	fmt.Fprintf(w, "A = %s (%d files), B = %s (%d files)\n\n", a.dir, len(a.files), b.dir, len(b.files))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] n\tB median [q1, q3] n\tB/A\tB wins\tbound\tverdict")
	for _, wd := range spec.Workloads {
		for _, def := range spec.EndToEnd {
			va, vb := a.values(wd.Name, def.Name, false), b.values(wd.Name, def.Name, false)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			xa, xb, pairs := pairUp(va, vb)
			v, win := verdict(def, xa, xb, pairs)
			sa, sb := summarise(xa), summarise(xb)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.3f\t%.0f%% of %d\t%.0f%%\t%s\n", wd.Name, def.Name, def.Unit,
				fmtSide(sa), fmtSide(sb), ratio(sb.median, sa.median), 100*win, len(pairs), 100*def.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := false
	for _, wd := range spec.Workloads {
		for _, def := range spec.PerLayer {
			va, vb := a.values(wd.Name, def.Name, true), b.values(wd.Name, def.Name, true)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			if !header {
				fmt.Fprintln(w, "\nper-layer medians of traced runs (no bounds):")
				fmt.Fprintln(tw, "workload\tmetric\tunit\tA\tB\tB/A")
				header = true
			}
			xa, xb, _ := pairUp(va, vb)
			ma, mb := median(xa), median(xb)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.3f\n", wd.Name, def.Name, def.Unit, ma, mb, ratio(mb, ma))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	all := append(append([]*runFile(nil), a.files...), b.files...)
	var diffs []string
	for _, rf := range all[1:] {
		for _, d := range all[0].Stamp.differences(rf.Stamp) {
			diffs = append(diffs, fmt.Sprintf("%s seed %d: %s", rf.Workload, rf.Seed, d))
		}
	}
	if len(diffs) > 0 {
		fmt.Fprintf(w, "\nWARNING: result files were measured in different environments:\n  %s\n", strings.Join(diffs, "\n  "))
	}
	return nil
}

// pairUp returns both sides' values and the (A, B) pairs of seeds present
// on both sides.
func pairUp(va, vb map[int64]float64) (xa, xb []float64, pairs [][2]float64) {
	seeds := make([]int64, 0, len(va))
	for s, x := range va {
		xa = append(xa, x)
		seeds = append(seeds, s)
	}
	for _, y := range vb {
		xb = append(xb, y)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, s := range seeds {
		if y, ok := vb[s]; ok {
			pairs = append(pairs, [2]float64{va[s], y})
		}
	}
	return xa, xb, pairs
}

func fmtSide(s side) string {
	if s.n == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", s.median, s.q1, s.q3, s.n)
}

func ratio(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}
