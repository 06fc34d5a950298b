// Tracereplay: record the contact script of one bus-scenario world, then
// replay the *identical* contact sequence under three protocols — a
// paired comparison with mobility variance removed, which is sharper than
// comparing independent runs. Every replay must see exactly the recorded
// contacts; the example exits 1 if one does not.
//
//	go run ./examples/tracereplay
package main

import (
	"context"
	"fmt"
	"os"

	repro "repro"
	"repro/internal/experiment"
)

func main() {
	s := repro.QuickScenario()
	s.Nodes = 40
	s.Duration = 2000

	// Step 1: record the world's contact script (mobility only).
	fmt.Fprintf(os.Stderr, "recording contact trace (%d nodes, %.0fs)...\n", s.Nodes, s.Duration)
	script, _, err := experiment.RecordTrace(context.Background(), s, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	recorded := 0
	for _, e := range script.Events {
		if e.Up {
			recorded++
		}
	}
	fmt.Printf("recorded %d contacts\n", recorded)

	// Step 2: replay the script under each protocol. Traffic derives from
	// the scenario seed, so every protocol also sees the same messages.
	sums := map[repro.Protocol]repro.Summary{}
	for _, p := range []repro.Protocol{repro.Epidemic, repro.EER, repro.SprayAndWait} {
		sc := s
		sc.Protocol = p
		w, runner := sc.BuildReplay(script)
		runner.Run(sc.Duration)
		sum := w.Metrics.Summary()
		fmt.Printf("%-14s contacts=%d/%d delivery=%.3f latency=%.1fs goodput=%.4f relays=%d\n",
			p, sum.Contacts, recorded, sum.DeliveryRatio, sum.AvgLatency, sum.Goodput, sum.Relays)
		if sum.Contacts != recorded {
			fmt.Fprintf(os.Stderr, "%s replayed %d contacts, recorded %d\n", p, sum.Contacts, recorded)
			os.Exit(1)
		}
		sums[p] = sum
	}

	epi, eer, swt := sums[repro.Epidemic], sums[repro.EER], sums[repro.SprayAndWait]
	fmt.Println("\npaired on identical contacts and traffic:")
	fmt.Printf("  epidemic relays %.1fx EER's; spray-and-wait delivers %.0f%% of epidemic\n",
		float64(epi.Relays)/float64(max(eer.Relays, 1)),
		100*float64(swt.Delivered)/float64(max(epi.Delivered, 1)))
}
