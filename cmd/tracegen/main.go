// Command tracegen pre-records contact traces through the declarative
// spec path — the same ScenarioSpec document dtnd and the sweep CLIs
// accept, read with -spec and edited with -set — and persists them
// content-addressed into the shared result store:
//
//	tracegen -set preset=quick -set nodes=30 -set 'seeds=[1,2]' -store cache
//
// A sweep or daemon job over the same world then replays the recorded
// contact script instead of re-simulating mobility (see DESIGN.md "Trace
// record/replay"). Per-seed trace keys and contact statistics (rate,
// duration quantiles) print to stderr; -o additionally writes one seed's
// binary script to a file for offline inspection.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/experiment"
	"repro/internal/resultcache"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var scenario experiment.SpecFlags
	scenario.Register(fs)
	var (
		storeDir = fs.String("store", "", "content-addressed store directory shared with dtnd/sweep/figures; recorded traces land there under their trace key")
		out      = fs.String("o", "", "also write the binary contact script to this file (single-seed runs only)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *storeDir == "" && *out == "" {
		fmt.Fprintln(stderr, "tracegen: nothing to do: set -store (shared replay store) and/or -o (script file)")
		return 2
	}

	sp, s, err := scenario.Resolve(experiment.ScenarioSpec{})
	if err != nil {
		fmt.Fprintf(stderr, "tracegen: %v\n", err)
		return 2
	}
	seedList := sp.SeedList()
	if *out != "" && len(seedList) != 1 {
		fmt.Fprintf(stderr, "tracegen: -o needs exactly one seed, spec has %d\n", len(seedList))
		return 2
	}

	var store *resultcache.Store
	if *storeDir != "" {
		st, err := resultcache.Open(*storeDir, 0)
		if err != nil {
			fmt.Fprintf(stderr, "tracegen: store: %v\n", err)
			return 1
		}
		store = st
	}

	for _, seed := range seedList {
		sc := s
		sc.Seed = seed
		script, key, err := experiment.RecordTrace(context.Background(), sc, store)
		if err != nil {
			fmt.Fprintf(stderr, "tracegen: seed %d: %v\n", seed, err)
			return 1
		}
		fmt.Fprintf(stderr, "seed %d: trace %s (%d nodes, %d events)\n", seed, key, script.N, len(script.Events))
		printStats(stderr, script, sc.Tick, sc.Duration)
		if *out != "" {
			if err := os.WriteFile(*out, script.Encode(), 0o644); err != nil {
				fmt.Fprintf(stderr, "tracegen: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "wrote %s\n", *out)
		}
	}
	return 0
}

// printStats reports the contact rate and duration quantiles from the
// script's up/down events; contacts still up at the end close there.
func printStats(w io.Writer, sc *trace.Script, tick, duration float64) {
	up := make(map[[2]int32]uint64) // open contacts' up ticks
	var durs []float64
	for _, e := range sc.Events {
		pair := [2]int32{e.A, e.B}
		if e.Up {
			up[pair] = e.Tick
			continue
		}
		durs = append(durs, float64(e.Tick-up[pair])*tick)
		delete(up, pair)
	}
	for _, start := range up {
		durs = append(durs, duration-float64(start)*tick)
	}
	if len(durs) == 0 {
		fmt.Fprintln(w, "no contacts recorded")
		return
	}
	sort.Float64s(durs)
	sum := 0.0
	for _, d := range durs {
		sum += d
	}
	q := func(p float64) float64 { return durs[int(p*float64(len(durs)-1))] }
	fmt.Fprintf(w, "contacts: %d over %.0fs, %.2f per node-hour\n",
		len(durs), duration, float64(len(durs))*2*3600/(float64(sc.N)*duration))
	fmt.Fprintf(w, "contact duration: mean %.1fs median %.1fs p90 %.1fs\n",
		sum/float64(len(durs)), q(0.5), q(0.9))
}
