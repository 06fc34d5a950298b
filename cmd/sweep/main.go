// Command sweep explores the parameters the paper omitted "due to the
// space limitation" (Section V-B): the horizon scale α, the message TTL,
// the buffer size and the history window, each as a 1-D sweep at a fixed
// node count. -spec and -set edit the base scenario, as they do for
// dtnsim:
//
//	sweep -param ttl -set protocol=CR -set nodes=60 -set 'seeds=[1,2]'
//
// The sweep expands through experiment.SweepSpec — the same declarative
// path the dtnd daemon's /v1/sweeps endpoint uses — so every cell is
// content-addressed. Point -cache at a dtnd cache directory (or any
// shared directory) and cells computed by a previous sweep, a figures
// run or the daemon are read from disk instead of re-simulated, and
// fresh cells are persisted back for them.
//
// Result tables go to stdout; diagnostics are structured log lines
// (log/slog, same logfmt text as dtnd) on stderr, tunable with
// -log-level.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"time"

	"repro/internal/experiment"
	"repro/internal/resultcache"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command body: it parses args, writes the tables to stdout and
// log lines to stderr, and returns the exit status — 2 for usage errors
// such as an unknown protocol or a scenario the spec validation rejects.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var scenario experiment.SpecFlags
	scenario.Register(fs)
	var (
		param    = fs.String("param", "alpha", "parameter to sweep: alpha, ttl, buffer, window, lambda")
		workers  = fs.Int("workers", 0, "cap simulation workers (0 = all cores)")
		cache    = fs.String("cache", "", "content-addressed result cache directory shared with dtnd (empty disables)")
		logLevel = fs.String("log-level", "info", "log verbosity: debug, info, warn or error")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(stderr, "sweep: bad -log-level %q: %v\n", *logLevel, err)
		return 2
	}
	log := slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: level}))
	// The base is EER at 120 nodes, 3 seeds of 6000 s, edited by -spec
	// and -set. Resolve it before any cell runs: an unknown protocol or a
	// value beyond the job ceilings is a usage error.
	base, s, err := scenario.Resolve(experiment.ScenarioSpec{
		Protocol: experiment.Ptr(string(experiment.EER)),
		Nodes:    experiment.Ptr(120),
		Duration: experiment.Ptr(6000.0),
		Seeds:    experiment.Seeds(3),
	})
	if err != nil {
		log.Error("bad spec", "err", err)
		return 2
	}

	sw := experiment.SweepSpec{Base: base}
	var (
		values []float64 // table x-values (display units)
		label  string
	)
	switch *param {
	case "alpha":
		values = []float64{0.1, 0.2, 0.28, 0.4, 0.6, 0.8, 1.0}
		sw.Alpha = values
		label = "alpha"
	case "ttl":
		values = []float64{300, 600, 1200, 2400, 3600}
		sw.TTL = values
		label = "TTL (s)"
	case "buffer":
		values = []float64{128, 256, 512, 1024, 2048} // KB
		for _, v := range values {
			sw.BufBytes = append(sw.BufBytes, int(v)*1024)
		}
		label = "buffer (KB)"
	case "window":
		values = []float64{4, 8, 16, 32, 64}
		for _, v := range values {
			sw.Window = append(sw.Window, int(v))
		}
		label = "window"
	case "lambda":
		values = []float64{2, 4, 6, 8, 10, 12, 16}
		for _, v := range values {
			sw.Lambda = append(sw.Lambda, int(v))
		}
		label = "lambda"
	default:
		log.Error("unknown parameter", "param", *param)
		return 2
	}

	if field := scenario.Swept(sw); field != "" {
		log.Error("spec field overridden by the swept axis", "field", field, "axis", field, "param", *param)
		return 2
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
	log.Info("sweep starting", "param", *param, "protocol", s.Protocol, "nodes", s.Nodes,
		"cells", len(values), "seeds", len(base.SeedList()), "workers", runtime.GOMAXPROCS(0))
	results, err := experiment.RunSweep(context.Background(), sw, store)
	if err != nil && results == nil {
		log.Error("sweep failed", "param", *param, "err", err)
		return 1
	}
	if err != nil {
		log.Warn("cache write failed; results are complete", "err", err)
	}
	se := experiment.Series{Name: string(s.Protocol)}
	for i, res := range results {
		se.Points = append(se.Points, experiment.Point{X: values[i], Summary: res.Mean})
	}
	// A cell whose protocol ignores the swept field (Epidemic over lambda)
	// shares the first such cell's simulation instead of running again.
	tally := experiment.Tally(results)
	log.Info("sweep done", "param", *param, "cells", len(results), "simulated", tally.Simulated,
		"runs", tally.Runs, "shared", tally.Shared, "cached", tally.Cached, "cache", *cache)
	// Routing/traffic-only axes share one recorded world per seed, so with
	// -cache most cells replay the contact script instead of re-simulating
	// mobility (see DESIGN.md "Trace record/replay").
	if rec, rep := experiment.TraceRecordings(), experiment.TraceReplays(); rec > 0 || rep > 0 {
		log.Info("trace fast path", "param", *param, "recorded_worlds", rec, "replayed_runs", rep)
	}

	title := fmt.Sprintf("Sweep %s (%s, n=%d)", label, s.Protocol, s.Nodes)
	for _, m := range experiment.PaperMetrics {
		experiment.RenderTable(stdout, title, label, []experiment.Series{se}, m)
	}
	fmt.Fprintf(stdout, "total wall time: %s\n", time.Since(start).Round(time.Second))
	return 0
}
