// Command dtnsim runs one DTN scenario and prints a full metrics report.
// The scenario is a spec: the paper's Section V-A defaults with seed 1,
// overlaid by a -spec document and edited field by field with -set.
//
// Example:
//
//	dtnsim -set protocol=CR -set nodes=120 -set lambda=10 -set 'seeds=[1,2,3,4,5]'
//	echo '{"preset": "cityscale", "duration": 60}' | dtnsim -spec - -set shards=2
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command body: it parses args, writes the report to stdout and
// diagnostics to stderr, and returns the exit status — 2 for usage errors
// such as an unknown protocol or mobility model, or any value the spec
// validation rejects.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dtnsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var scenario experiment.SpecFlags
	scenario.Register(fs)
	var (
		timing  = fs.Bool("timing", false, "profile the engine and print a per-tick phase breakdown after the report (results stay bit-identical)")
		verbose = fs.Bool("v", false, "print per-seed summaries")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Spec validation rejects unknown names and values beyond the job
	// ceilings before any world is built.
	sp, s, err := scenario.Resolve(experiment.ScenarioSpec{})
	if err != nil {
		fmt.Fprintln(stderr, "dtnsim:", err)
		return 2
	}
	if *timing {
		sp.Profile = experiment.Ptr(true)
	}

	start := time.Now()
	sums, err := experiment.RunSpecStore(nil, sp, nil, nil)
	if err != nil {
		fmt.Fprintln(stderr, "dtnsim:", err)
		return 1
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
