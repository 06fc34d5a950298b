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
// Full paper parameters take tens of minutes; -quick runs a reduced but
// shape-preserving sweep in a few minutes.
//
// Tables and CSV artifacts go to stdout / files; diagnostics are
// structured log lines (log/slog, same logfmt text as dtnd) on stderr,
// tunable with -log-level.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/resultcache"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "which figure: 2, 3, 4, a1, a2, a3 or all")
		seeds    = flag.Int("seeds", 5, "seeds per data point (paper used 10)")
		quick    = flag.Bool("quick", false, "reduced sweep: fewer nodes, 4000 s runs, 2 seeds")
		csv      = flag.String("csv", "", "also write CSV data to this file prefix (e.g. fig)")
		nodes    = flag.String("nodes", "", "override node counts, comma-separated")
		outDur   = flag.Float64("duration", 10000, "simulated seconds per run")
		shards   = flag.String("shards", "0", "per-world tick shards: a count or \"auto\" (0 and 1 = one worker, inline; summaries identical). The pool already fills all cores, so set this only for few huge runs")
		sparse   = flag.Bool("sparse", false, "force the sparse estimator core (auto at >= 1000 nodes; summaries identical)")
		cache    = flag.String("cache", "", "content-addressed result cache shared with dtnd and cmd/sweep; Figure-2 cells hit it (empty disables)")
		timing   = flag.Bool("timing", false, "profile the engine and print a per-figure phase breakdown (results stay bit-identical; cached cells carry no timing)")
		logLevel = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
	)
	flag.Parse()
	profileRuns = *timing

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "figures: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	log = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	shardCount, err := experiment.ParseShards(*shards)
	if err != nil {
		log.Error("bad -shards", "err", err)
		os.Exit(2)
	}
	base := experiment.Default()
	base.Duration = *outDur
	base.Shards = shardCount
	base.SparseEstimators = *sparse
	base.Profile = *timing
	counts := []int{40, 80, 120, 160, 200, 240}
	if *quick {
		base.Duration = 4000
		base.Tick = 0.5
		counts = []int{40, 120, 200}
		if !flagSet("seeds") {
			*seeds = 2
		}
	}
	if *nodes != "" {
		counts = parseInts(*nodes)
	}
	// The Figure-2 grid travels the declarative sweep path (the same
	// expansion dtnd's /v1/sweeps uses), so its base is a spec mirroring
	// the scenario the other figures mutate directly.
	baseSpec := experiment.ScenarioSpec{
		Duration:         experiment.Ptr(base.Duration),
		Tick:             experiment.Ptr(base.Tick),
		Shards:           experiment.Ptr(experiment.ShardCount(shardCount)),
		SparseEstimators: experiment.Ptr(*sparse),
		Seeds:            experiment.Seeds(*seeds),
	}
	if *timing {
		// Profile is excluded from cell cache keys, so profiled figure
		// runs still hit (and write) the same cached cells.
		baseSpec.Profile = experiment.Ptr(true)
	}
	var store *resultcache.Store
	if *cache != "" {
		st, err := resultcache.Open(*cache, 0)
		if err != nil {
			log.Error("open cache", "dir", *cache, "err", err)
			os.Exit(1)
		}
		store = st
	}

	start := time.Now()
	switch *fig {
	case "2":
		figure2(baseSpec, counts, *seeds, *csv, store)
	case "3":
		figureLambda(base, experiment.EER, "Figure 3 (EER)", counts, *seeds, *csv)
	case "4":
		figureLambda(base, experiment.CR, "Figure 4 (CR)", counts, *seeds, *csv)
	case "a1":
		ablation(base, "Ablation A1 (TTL-aware EEV)", []experiment.Protocol{experiment.EER, experiment.EERFixedEV}, counts, *seeds, *csv)
	case "a2":
		ablation(base, "Ablation A2 (elapsed-conditioned EMD)", []experiment.Protocol{experiment.EER, experiment.EERMeanMD}, counts, *seeds, *csv)
	case "a3":
		hysteresis(base, counts, *seeds, *csv)
	case "all":
		figure2(baseSpec, counts, *seeds, *csv, store)
		figureLambda(base, experiment.EER, "Figure 3 (EER)", counts, *seeds, *csv)
		figureLambda(base, experiment.CR, "Figure 4 (CR)", counts, *seeds, *csv)
		ablation(base, "Ablation A1 (TTL-aware EEV)", []experiment.Protocol{experiment.EER, experiment.EERFixedEV}, counts, *seeds, *csv)
		ablation(base, "Ablation A2 (elapsed-conditioned EMD)", []experiment.Protocol{experiment.EER, experiment.EERMeanMD}, counts, *seeds, *csv)
		hysteresis(base, counts, *seeds, *csv)
	default:
		log.Error("unknown figure", "fig", *fig)
		os.Exit(2)
	}
	fmt.Printf("total wall time: %s\n", time.Since(start).Round(time.Second))
}

func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func parseInts(s string) []int {
	var out []int
	for _, part := range splitComma(s) {
		var v int
		if _, err := fmt.Sscanf(part, "%d", &v); err != nil {
			log.Error("bad node count", "value", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func splitComma(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == ',' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	return append(out, cur)
}

// profileRuns mirrors the -timing flag for the figure helpers: when set,
// every emitted figure is followed by its aggregated engine-phase report.
var profileRuns bool

// log is the command's structured logger (stderr), set in main once
// -log-level is parsed; the discard default keeps helpers safe in tests.
var log = slog.New(slog.DiscardHandler)

// reportTiming folds the timing blocks of every point in the series (each
// point's mean already folds its seeds) and prints one phase breakdown for
// the figure. Cached and shared cells carry no timing, so each
// simulation counts once and a fully-cached figure prints how much of it
// was served without simulating instead.
func reportTiming(title string, series []experiment.Series) {
	if !profileRuns {
		return
	}
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
	fmt.Printf("\n%s — engine phase breakdown:\n", title)
	tm.Report(os.Stdout)
	if missing > 0 {
		fmt.Printf("(%d points served from cache or shared, not profiled)\n", missing)
	}
}

func emit(title string, series []experiment.Series, csvPrefix, suffix string) {
	for _, m := range experiment.PaperMetrics {
		experiment.RenderTable(os.Stdout, title, "nodes", series, m)
	}
	reportTiming(title, series)
	if csvPrefix != "" {
		path := csvPrefix + suffix + ".csv"
		f, err := os.Create(path)
		if err != nil {
			log.Error("write csv", "path", path, "err", err)
			os.Exit(1)
		}
		experiment.WriteCSV(f, "nodes", series, experiment.PaperMetrics)
		f.Close()
		fmt.Printf("wrote %s\n", path)
	}
}

// figure2 reproduces the six-protocol comparison. The (protocol × nodes)
// grid expands through experiment.SweepSpec — one code path with dtnd's
// /v1/sweeps — so cells carry content addresses: with -cache, points any
// prior sweep, figures run or daemon job computed are read from disk,
// and the rest run as one flattened batch over the worker pool.
func figure2(base experiment.ScenarioSpec, counts []int, seeds int, csvPrefix string, store *resultcache.Store) {
	protos := make([]string, len(experiment.AllPaperProtocols))
	for i, p := range experiment.AllPaperProtocols {
		protos[i] = string(p)
	}
	sw := experiment.SweepSpec{Base: base, Protocols: protos, Nodes: counts}
	log.Info("figure starting", "figure", "2", "cells", len(protos)*len(counts), "seeds", seeds)
	results, err := experiment.RunSweep(context.Background(), sw, store)
	if err != nil && results == nil {
		log.Error("figure failed", "figure", "2", "err", err)
		os.Exit(1)
	}
	if err != nil {
		log.Warn("cache write failed; results are complete", "figure", "2", "err", err)
	}
	series := make([]experiment.Series, len(protos))
	for i, p := range protos {
		se := experiment.Series{Name: p}
		for j, n := range counts {
			se.Points = append(se.Points, experiment.Point{X: float64(n), Summary: results[i*len(counts)+j].Mean})
		}
		series[i] = se
	}
	tally := experiment.Tally(results)
	log.Info("figure done", "figure", "2", "cells", len(results), "simulated", tally.Simulated,
		"runs", tally.Runs, "shared", tally.Shared, "cached", tally.Cached)
	// The protocol axis shares one recorded world per (nodes, seed): with
	// -cache, mobility simulates once and the other protocols replay.
	if rec, rep := experiment.TraceRecordings(), experiment.TraceReplays(); rec > 0 || rep > 0 {
		log.Info("trace fast path", "figure", "2", "recorded_worlds", rec, "replayed_runs", rep)
	}
	emit("Figure 2 — protocol comparison (λ=10)", series, csvPrefix, "2")
}

// figureLambda reproduces the λ sensitivity figures (3 for EER, 4 for CR).
func figureLambda(base experiment.Scenario, p experiment.Protocol, title string, counts []int, seeds int, csvPrefix string) {
	lambdas := []int{6, 8, 10, 12}
	bases := make([]experiment.Scenario, 0, len(lambdas))
	for _, lambda := range lambdas {
		s := base
		s.Protocol = p
		s.Lambda = lambda
		bases = append(bases, s)
	}
	log.Info("figure starting", "figure", title, "simulations", len(bases)*len(counts)*seeds)
	series := experiment.NodeSweepMulti(bases, counts, seeds)
	for i, lambda := range lambdas {
		series[i].Name = fmt.Sprintf("λ=%d", lambda)
	}
	suffix := "3"
	if p == experiment.CR {
		suffix = "4"
	}
	emit(title+" — effect of λ", series, csvPrefix, suffix)
}

// ablation compares EER against one of its ablated variants.
func ablation(base experiment.Scenario, title string, ps []experiment.Protocol, counts []int, seeds int, csvPrefix string) {
	bases := make([]experiment.Scenario, 0, len(ps))
	for _, p := range ps {
		s := base
		s.Protocol = p
		bases = append(bases, s)
	}
	log.Info("figure starting", "figure", title, "simulations", len(bases)*len(counts)*seeds)
	series := experiment.NodeSweepMulti(bases, counts, seeds)
	emit(title, series, csvPrefix, "_"+string(ps[len(ps)-1]))
}

// hysteresis sweeps the single-copy forwarding hysteresis (A3), using the
// middle node count.
func hysteresis(base experiment.Scenario, counts []int, seeds int, csvPrefix string) {
	n := counts[len(counts)/2]
	var series []experiment.Series
	se := experiment.Sweep1D("EER", withNodes(base, n), []float64{0, 30, 60, 120, 300}, func(s *experiment.Scenario, v float64) {
		s.ForwardHysteresis = v
	}, seeds)
	series = append(series, se)
	for _, m := range experiment.PaperMetrics {
		experiment.RenderTable(os.Stdout, fmt.Sprintf("Ablation A3 — forwarding hysteresis (n=%d)", n), "hysteresis (s)", series, m)
	}
	reportTiming("Ablation A3", series)
	if csvPrefix != "" {
		path := csvPrefix + "_a3.csv"
		f, err := os.Create(path)
		if err != nil {
			log.Error("write csv", "path", path, "err", err)
			os.Exit(1)
		}
		experiment.WriteCSV(f, "hysteresis_s", series, experiment.PaperMetrics)
		f.Close()
		fmt.Printf("wrote %s\n", path)
	}
}

func withNodes(s experiment.Scenario, n int) experiment.Scenario {
	s.Nodes = n
	return s
}
