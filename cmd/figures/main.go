// Command figures regenerates every figure of the paper's evaluation
// (Section V) as aligned tables and optional CSV:
//
//	Figure 2 — EER, CR, EBR, MaxProp, Spray-and-Wait, Spray-and-Focus
//	           across node counts (delivery ratio, latency, goodput)
//	Figure 3 — EER with λ ∈ {6,8,10,12}
//	Figure 4 — CR with λ ∈ {6,8,10,12}
//	A1      — EER vs TTL-independent-EEV ablation
//	A2      — EER vs mean-interval-MD (MEED-style) ablation
//	A3      — EER forwarding-hysteresis sweep (estimator-noise ping-pong)
//
// Every figure is an experiment.SweepSpec over one base spec, run through
// experiment.RunSweep — the path cmd/sweep and dtnd's /v1/sweeps use — so
// each cell is validated and content-addressed. With -cache, a cell any
// earlier figure, sweep or daemon job computed is read from disk: Figure
// 3's λ=10 cells and A1/A2's EER cells are Figure 2's EER cells.
//
// Full paper parameters take tens of minutes; -quick runs a reduced but
// shape-preserving sweep in a few minutes. -spec and -set edit the base
// spec every figure sweeps over, as they edit dtnsim's one scenario:
//
//	figures -fig 3 -nodes 40,80 -set duration=2000 -set 'seeds=[1,2]'
//
// Tables and CSV artifacts go to stdout / files; diagnostics are
// structured log lines (log/slog, same logfmt text as dtnd) on stderr,
// tunable with -log-level.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/resultcache"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// figure is one figure of the evaluation: a sweep and how its cells
// become curves — one series per value of the by axis (named prefix +
// value), each point at the cell's value of the x axis.
type figure struct {
	id     string // the -fig value
	title  string
	sweep  experiment.SweepSpec
	by, x  string
	prefix string // series name before the by-axis value
	xLabel string // table x header
	csvX   string // CSV x column
	csv    string // CSV file suffix after the -csv prefix
}

// run is the command body: it parses args, writes the tables to stdout and
// log lines to stderr, and returns the exit status — 2 for usage errors
// such as an unknown figure or a scenario the spec validation rejects.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var scenario experiment.SpecFlags
	scenario.Register(fs)
	var (
		fig      = fs.String("fig", "all", "which figure: 2, 3, 4, a1, a2, a3 or all")
		quick    = fs.Bool("quick", false, "reduced sweep: fewer nodes, 4000 s runs at tick 0.5, 2 seeds (a -set of duration, tick or seeds still applies)")
		csv      = fs.String("csv", "", "also write CSV data to this file prefix (e.g. fig)")
		nodes    = fs.String("nodes", "", "override node counts, comma-separated")
		cache    = fs.String("cache", "", "content-addressed result cache shared with dtnd and cmd/sweep; every figure's cells hit it (empty disables)")
		timing   = fs.Bool("timing", false, "profile the engine and print a per-figure phase breakdown (results stay bit-identical; cached cells carry no timing)")
		logLevel = fs.String("log-level", "info", "log verbosity: debug, info, warn or error")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(stderr, "figures: bad -log-level %q: %v\n", *logLevel, err)
		return 2
	}
	log := slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: level}))

	// Every figure sweeps protocols and node counts (and λ or the
	// hysteresis) over one base: 5 seeds of 10 000 s, which -quick
	// shrinks and -spec and -set edit. The pool already fills all cores,
	// so -set shards pays only for few huge runs.
	base := experiment.ScenarioSpec{
		Duration: experiment.Ptr(10000.0),
		Tick:     experiment.Ptr(0.25),
		Seeds:    experiment.Seeds(5),
	}
	counts := []int{40, 80, 120, 160, 200, 240}
	if *quick {
		base.Duration, base.Tick, base.Seeds = experiment.Ptr(4000.0), experiment.Ptr(0.5), experiment.Seeds(2)
		counts = []int{40, 120, 200}
	}
	base, _, err := scenario.Resolve(base)
	if err != nil {
		log.Error("bad spec", "err", err)
		return 2
	}
	if *nodes != "" {
		counts = nil
		for _, part := range strings.Split(*nodes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				log.Error("bad node count", "value", part)
				return 2
			}
			counts = append(counts, n)
		}
	}
	if *timing {
		// Profile is excluded from cell cache keys, so profiled figure
		// runs still hit (and write) the same cached cells.
		base.Profile = experiment.Ptr(true)
	}

	var todo []figure
	for _, f := range figures(base, counts) {
		if *fig == "all" || *fig == f.id {
			todo = append(todo, f)
		}
	}
	if len(todo) == 0 {
		log.Error("unknown figure", "fig", *fig)
		return 2
	}
	// Expand every figure up front: an edit a figure's axis would override
	// or a cell the spec validation rejects is a usage error, reported
	// before any simulation starts.
	for _, f := range todo {
		if field := scenario.Swept(f.sweep); field != "" {
			hint := "drop the edit or pick a figure without that axis"
			if field == "nodes" {
				hint = "set node counts with -nodes"
			}
			log.Error("spec field overridden by a figure axis", "figure", f.id, "field", field, "axis", field, "hint", hint)
			return 2
		}
		if _, err := f.sweep.Cells(); err != nil {
			log.Error("bad figure sweep", "figure", f.id, "err", err)
			return 2
		}
	}
	var store *resultcache.Store
	if *cache != "" {
		st, err := resultcache.Open(*cache, 0)
		if err != nil {
			log.Error("open cache", "dir", *cache, "err", err)
			return 1
		}
		store = st
	}

	start := time.Now()
	for _, f := range todo {
		series, ok := runFigure(log, f, store)
		if !ok {
			return 1
		}
		if err := emit(stdout, f, series, *timing, *csv); err != nil {
			log.Error("write csv", "figure", f.id, "err", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "total wall time: %s\n", time.Since(start).Round(time.Second))
	return 0
}

// figures lists the evaluation's figures as sweeps over base, in the
// order -fig all runs them.
func figures(base experiment.ScenarioSpec, counts []int) []figure {
	protocols := func(ps ...experiment.Protocol) []string {
		out := make([]string, len(ps))
		for i, p := range ps {
			out[i] = string(p)
		}
		return out
	}
	lambdas := []int{6, 8, 10, 12}
	mid := counts[len(counts)/2]
	byNodes := func(f figure) figure {
		f.x, f.xLabel, f.csvX = "nodes", "nodes", "nodes"
		return f
	}
	return []figure{
		byNodes(figure{id: "2", title: "Figure 2 — protocol comparison (λ=10)", csv: "2",
			sweep: experiment.SweepSpec{Base: base, Protocols: protocols(experiment.AllPaperProtocols...), Nodes: counts},
			by:    "protocol"}),
		byNodes(figure{id: "3", title: "Figure 3 (EER) — effect of λ", csv: "3",
			sweep: experiment.SweepSpec{Base: base, Protocols: protocols(experiment.EER), Nodes: counts, Lambda: lambdas},
			by:    "lambda", prefix: "λ="}),
		byNodes(figure{id: "4", title: "Figure 4 (CR) — effect of λ", csv: "4",
			sweep: experiment.SweepSpec{Base: base, Protocols: protocols(experiment.CR), Nodes: counts, Lambda: lambdas},
			by:    "lambda", prefix: "λ="}),
		byNodes(figure{id: "a1", title: "Ablation A1 (TTL-aware EEV)", csv: "_" + string(experiment.EERFixedEV),
			sweep: experiment.SweepSpec{Base: base, Protocols: protocols(experiment.EER, experiment.EERFixedEV), Nodes: counts},
			by:    "protocol"}),
		byNodes(figure{id: "a2", title: "Ablation A2 (elapsed-conditioned EMD)", csv: "_" + string(experiment.EERMeanMD),
			sweep: experiment.SweepSpec{Base: base, Protocols: protocols(experiment.EER, experiment.EERMeanMD), Nodes: counts},
			by:    "protocol"}),
		// A3 sweeps the single-copy forwarding hysteresis at the middle
		// node count.
		{id: "a3", title: fmt.Sprintf("Ablation A3 — forwarding hysteresis (n=%d)", mid), csv: "_a3",
			sweep: experiment.SweepSpec{Base: base, Protocols: protocols(experiment.EER), Nodes: []int{mid},
				ForwardHysteresis: []float64{0, 30, 60, 120, 300}},
			by: "protocol", x: "forward_hysteresis", xLabel: "hysteresis (s)", csvX: "hysteresis_s"},
	}
}

// runFigure runs a figure's sweep and turns its cells into curves. It
// logs how the cells were served — simulated, shared with another cell's
// run, or read from the cache — and the figure's trace fast-path work.
func runFigure(log *slog.Logger, f figure, store *resultcache.Store) ([]experiment.Series, bool) {
	log.Info("figure starting", "figure", f.id, "seeds", len(f.sweep.Base.SeedList()))
	rec0, rep0 := experiment.TraceRecordings(), experiment.TraceReplays()
	results, err := experiment.RunSweep(context.Background(), f.sweep, store)
	if err != nil && results == nil {
		log.Error("figure failed", "figure", f.id, "err", err)
		return nil, false
	}
	if err != nil {
		log.Warn("cache write failed; results are complete", "figure", f.id, "err", err)
	}
	tally := experiment.Tally(results)
	log.Info("figure done", "figure", f.id, "cells", len(results), "simulated", tally.Simulated,
		"runs", tally.Runs, "shared", tally.Shared, "cached", tally.Cached)
	// Cells that differ only in routing share one recorded world per
	// (nodes, seed): with -cache, mobility simulates once and the rest
	// replay it.
	if rec, rep := experiment.TraceRecordings()-rec0, experiment.TraceReplays()-rep0; rec > 0 || rep > 0 {
		log.Info("trace fast path", "figure", f.id, "recorded_worlds", rec, "replayed_runs", rep)
	}

	var series []experiment.Series
	index := map[string]int{}
	for _, r := range results {
		v := axisValue(r.Cell, f.by)
		i, ok := index[v]
		if !ok {
			i = len(series)
			index[v] = i
			series = append(series, experiment.Series{Name: f.prefix + v})
		}
		x, _ := strconv.ParseFloat(axisValue(r.Cell, f.x), 64) // axis values print as numbers
		series[i].Points = append(series[i].Points, experiment.Point{X: x, Summary: r.Mean})
	}
	return series, true
}

// axisValue returns the cell's coordinate on the named axis.
func axisValue(c experiment.SweepCell, axis string) string {
	for _, av := range c.Axes {
		if av.Axis == axis {
			return av.Value
		}
	}
	return ""
}

// emit prints the figure's tables (and, with timing, its phase
// breakdown) and writes its CSV when a prefix is given.
func emit(w io.Writer, f figure, series []experiment.Series, timing bool, csvPrefix string) error {
	for _, m := range experiment.PaperMetrics {
		experiment.RenderTable(w, f.title, f.xLabel, series, m)
	}
	if timing {
		reportTiming(w, f.title, series)
	}
	if csvPrefix == "" {
		return nil
	}
	path := csvPrefix + f.csv + ".csv"
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	experiment.WriteCSV(file, f.csvX, series, experiment.PaperMetrics)
	if err := file.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}

// reportTiming folds the timing blocks of every point in the series (each
// point's mean already folds its seeds) and prints one phase breakdown for
// the figure. Cached and shared cells carry no timing, so each
// simulation counts once and a fully-cached figure prints how much of it
// was served without simulating instead.
func reportTiming(w io.Writer, title string, series []experiment.Series) {
	var tm *obs.Timing
	missing := 0
	for _, se := range series {
		for _, pt := range se.Points {
			if pt.Summary.Timing == nil {
				missing++
				continue
			}
			tm = obs.MergeTiming(tm, pt.Summary.Timing)
		}
	}
	fmt.Fprintf(w, "\n%s — engine phase breakdown:\n", title)
	tm.Report(w)
	if missing > 0 {
		fmt.Fprintf(w, "(%d points served from cache or shared, not profiled)\n", missing)
	}
}
