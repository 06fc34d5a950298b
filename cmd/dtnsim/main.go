// Command dtnsim runs one DTN scenario and prints a full metrics report.
//
// Example:
//
//	dtnsim -protocol EER -nodes 120 -duration 10000 -lambda 10 -seeds 5
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command body: it parses args, writes the report to stdout and
// diagnostics to stderr, and returns the exit status — 2 for usage errors
// such as an unknown protocol or mobility model.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dtnsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		protocol = fs.String("protocol", "EER", "protocol: EER, CR, EBR, MaxProp, SprayAndWait, SprayAndFocus, Epidemic, Prophet, Direct, FirstContact, EER-fixedEV, EER-meanMD")
		nodes    = fs.Int("nodes", 120, "number of nodes")
		duration = fs.Float64("duration", 10000, "simulated seconds")
		lambda   = fs.Int("lambda", 10, "initial replica quota λ")
		alpha    = fs.Float64("alpha", 0.28, "EEV/ENEC horizon scale α")
		ttl      = fs.Float64("ttl", 1200, "message TTL in seconds")
		bufKB    = fs.Int("buffer", 1024, "buffer size in KB")
		msgKB    = fs.Int("msgsize", 25, "message size in KB")
		tick     = fs.Float64("tick", 0.25, "simulation tick in seconds")
		seeds    = fs.Int("seeds", 1, "number of seeds to average")
		seed     = fs.Int64("seed", 1, "base seed (used when -seeds 1)")
		mobility = fs.String("mobility", "bus", "mobility model: bus, rwp or city")
		shards   = fs.String("shards", "0", "per-world tick shards: a count or \"auto\" (0 = serial; results identical)")
		sparse   = fs.Bool("sparse", false, "force the sparse estimator core for EER/CR/MaxProp (auto at >= 1000 nodes; summaries identical)")
		gossip   = fs.String("gossip", "", "estimator exchange metering for EER/CR/MaxProp: fresher (default), flood or delta (summaries identical except gossip volume)")
		city     = fs.Bool("city", false, "start from the 10k-node CityScale preset instead of the paper defaults")
		metro    = fs.Bool("metro", false, "start from the 100k-node MetroScale preset (auto shards, delta gossip) instead of the paper defaults")
		timing   = fs.Bool("timing", false, "profile the engine and print a per-tick phase breakdown after the report (results stay bit-identical)")
		verbose  = fs.Bool("v", false, "print per-seed summaries")
		serve    = fs.String("serve", "", "instead of running one scenario, serve the dtnd simulation API on this address (e.g. :8080)")
		cacheDir = fs.String("cache", "dtnd-cache", "result cache directory for -serve (empty disables)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *serve != "" {
		// Same daemon as cmd/dtnd: dtnsim -serve exists so a single
		// installed binary covers both one-shot runs and the service.
		// Scenario flags configure one-shot runs only — jobs arrive as
		// specs — so flag them as ignored rather than silently dropping.
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "serve", "cache":
			default:
				fmt.Fprintf(stderr, "dtnsim -serve: ignoring -%s (scenarios are submitted as specs)\n", f.Name)
			}
		})
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		go func() {
			<-ctx.Done()
			stop() // second signal force-exits
			fmt.Fprintln(stderr, "dtnsim -serve: draining (signal again to force exit)")
		}()
		err := server.ListenAndServe(ctx, *serve, server.Config{CacheDir: *cacheDir}, func(bound string) {
			fmt.Fprintf(stdout, "dtnsim serving dtnd API on %s (cache %q)\n", bound, *cacheDir)
		})
		if err != nil {
			fmt.Fprintln(stderr, "dtnsim -serve:", err)
			return 1
		}
		return 0
	}

	s := experiment.Default()
	preset := *city || *metro
	if *city {
		// Preset first; explicitly-set flags below still override it.
		s = experiment.CityScale()
	}
	if *metro {
		s = experiment.MetroScale()
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	apply := func(name string, f func()) {
		if set[name] || !preset {
			f()
		}
	}
	apply("protocol", func() { s.Protocol = experiment.Protocol(*protocol) })
	apply("nodes", func() { s.Nodes = *nodes })
	apply("duration", func() { s.Duration = *duration })
	apply("lambda", func() { s.Lambda = *lambda })
	apply("alpha", func() { s.Alpha = *alpha })
	apply("ttl", func() { s.TTL = *ttl })
	apply("buffer", func() { s.BufBytes = *bufKB * 1024 })
	apply("msgsize", func() { s.MsgSize = *msgKB * 1024 })
	apply("tick", func() { s.Tick = *tick })
	apply("mobility", func() { s.Mobility = *mobility })
	var shardsErr error
	apply("shards", func() { s.Shards, shardsErr = experiment.ParseShards(*shards) })
	apply("gossip", func() { s.Gossip = *gossip })
	apply("sparse", func() { s.SparseEstimators = *sparse })
	s.Seed = *seed
	s.Profile = *timing
	// Reject unknown names here: the engine panics on them mid-build.
	if err := errors.Join(shardsErr, experiment.CheckProtocol(s.Protocol), experiment.CheckMobility(s.Mobility)); err != nil {
		fmt.Fprintln(stderr, "dtnsim:", err)
		return 2
	}

	start := time.Now()
	var sums []metrics.Summary
	if *seeds <= 1 {
		sums = []metrics.Summary{s.Run()}
	} else {
		sums = experiment.RunSeeds(s, experiment.Seeds(*seeds))
	}
	elapsed := time.Since(start)

	if *verbose {
		for i, sum := range sums {
			fmt.Fprintf(stdout, "seed %d: %s\n", i+1, sum)
		}
	}
	mean := metrics.Mean(sums)
	fmt.Fprintf(stdout, "protocol=%s nodes=%d duration=%.0fs lambda=%d alpha=%.2f seeds=%d\n",
		s.Protocol, s.Nodes, s.Duration, s.Lambda, s.Alpha, len(sums))
	fmt.Fprintln(stdout, strings.Repeat("-", 64))
	fmt.Fprintf(stdout, "delivery ratio   %.3f\n", mean.DeliveryRatio)
	fmt.Fprintf(stdout, "avg latency      %.1f s (median %.1f s)\n", mean.AvgLatency, mean.MedianLatency)
	fmt.Fprintf(stdout, "goodput          %.4f\n", mean.Goodput)
	fmt.Fprintf(stdout, "overhead ratio   %.2f\n", mean.OverheadRatio)
	fmt.Fprintf(stdout, "avg hops         %.2f\n", mean.AvgHops)
	fmt.Fprintf(stdout, "generated        %d\n", mean.Generated)
	fmt.Fprintf(stdout, "delivered        %d\n", mean.Delivered)
	fmt.Fprintf(stdout, "relays           %d\n", mean.Relays)
	fmt.Fprintf(stdout, "drops            %d  aborts %d  expiries %d\n", mean.Drops, mean.Aborts, mean.Expired)
	fmt.Fprintf(stdout, "contacts         %d\n", mean.Contacts)
	fmt.Fprintf(stdout, "gossip           %d rows / %d entries / %.1f KB\n",
		mean.GossipRows, mean.GossipEntries, float64(mean.GossipBytes)/1024)
	if mean.GossipDigestBytes > 0 {
		fmt.Fprintf(stdout, "  digest volume  %.1f KB (included above)\n", float64(mean.GossipDigestBytes)/1024)
	}
	fmt.Fprintf(stdout, "wall time        %s\n", elapsed.Round(time.Millisecond))
	if *timing {
		// Mean folds the per-seed timing blocks into one (sums, not means),
		// so this is the whole run's engine-phase breakdown.
		fmt.Fprintln(stdout, strings.Repeat("-", 64))
		mean.Timing.Report(stdout)
	}
	if mean.Generated == 0 {
		fmt.Fprintln(stderr, "warning: no messages generated")
		return 1
	}
	return 0
}
