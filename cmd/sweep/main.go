// Command sweep explores the parameters the paper omitted "due to the
// space limitation" (Section V-B): the horizon scale α, the message TTL,
// the buffer size and the history window, each as a 1-D sweep at a fixed
// node count.
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
// such as an unknown protocol.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		param    = fs.String("param", "alpha", "parameter to sweep: alpha, ttl, buffer, window, lambda")
		protocol = fs.String("protocol", "EER", "protocol under test")
		nodes    = fs.Int("nodes", 120, "node count")
		seeds    = fs.Int("seeds", 3, "seeds per point")
		duration = fs.Float64("duration", 6000, "simulated seconds")
		workers  = fs.Int("workers", 0, "cap simulation workers (0 = all cores)")
		shards   = fs.String("shards", "0", "per-world tick shards: a count or \"auto\" (0 = serial; summaries identical)")
		sparse   = fs.Bool("sparse", false, "force the sparse estimator core (auto at >= 1000 nodes; summaries identical)")
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
	// Reject an unknown protocol before any cell runs.
	if err := experiment.CheckProtocol(experiment.Protocol(*protocol)); err != nil {
		log.Error("bad -protocol", "err", err)
		return 2
	}

	shardCount, err := experiment.ParseShards(*shards)
	if err != nil {
		log.Error("bad -shards", "err", err)
		return 2
	}
	base := experiment.ScenarioSpec{
		Protocol:         experiment.Ptr(*protocol),
		Nodes:            experiment.Ptr(*nodes),
		Duration:         experiment.Ptr(*duration),
		Shards:           experiment.Ptr(experiment.ShardCount(shardCount)),
		SparseEstimators: experiment.Ptr(*sparse),
		Seeds:            experiment.Seeds(*seeds),
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
	log.Info("sweep starting", "param", *param, "protocol", *protocol, "nodes", *nodes,
		"simulations", len(values)**seeds, "workers", runtime.GOMAXPROCS(0))
	results, err := experiment.RunSweep(context.Background(), sw, store)
	if err != nil && results == nil {
		log.Error("sweep failed", "param", *param, "err", err)
		return 1
	}
	if err != nil {
		log.Warn("cache write failed; results are complete", "err", err)
	}
	cached := 0
	se := experiment.Series{Name: *protocol}
	for i, res := range results {
		if res.Cached {
			cached++
		}
		se.Points = append(se.Points, experiment.Point{X: values[i], Summary: res.Mean})
	}
	if cached > 0 {
		log.Info("cells served from cache", "param", *param, "cached", cached, "total", len(results), "cache", *cache)
	}
	// Routing/traffic-only axes share one recorded world per seed, so with
	// -cache most cells replay the contact script instead of re-simulating
	// mobility (see DESIGN.md "Trace record/replay").
	if rec, rep := experiment.TraceRecordings(), experiment.TraceReplays(); rec > 0 || rep > 0 {
		log.Info("trace fast path", "param", *param, "recorded_worlds", rec, "replayed_runs", rep)
	}

	title := fmt.Sprintf("Sweep %s (%s, n=%d)", label, *protocol, *nodes)
	for _, m := range experiment.PaperMetrics {
		experiment.RenderTable(stdout, title, label, []experiment.Series{se}, m)
	}
	fmt.Fprintf(stdout, "total wall time: %s\n", time.Since(start).Round(time.Second))
	return 0
}
