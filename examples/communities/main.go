// Communities: the paper's Figure-1 motivation made concrete. Six nodes in
// three communities follow a scripted contact schedule; the example shows
// (1) the contact-expectation estimators a node builds from its history —
// EEV, EMD and ENEC — and (2) CR beating naive first-contact forwarding on
// exactly the A→D situation of Figure 1.
//
//	go run ./examples/communities
package main

import (
	"fmt"

	repro "repro"
	"repro/internal/buffer"
	"repro/internal/community"
	"repro/internal/mobility"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/trace"
)

// tick is the schedule's world tick interval in seconds.
const tick = 0.5

// Figure 1: communities C1 = {A, B}, C2 = {C, E}, C3 = {D, F}.
// Node ids:              A=0, B=1,        C=2, E=3,       D=4, F=5.
// Periodic schedule (one period = 100 s), mirroring the t1..t4 snapshots:
// A-B touch constantly inside C1; A-E touch at t≈20; E-F at t≈50;
// F-D constantly inside C3. The useful path A→D is A→E→F→D. The script
// holds each contact's up and down at its tick index; no two contacts
// overlap, so appending them in time order is already the engine's
// firing order.
func figure1Script(periods int) *trace.Script {
	sc := &trace.Script{N: 6}
	contact := func(start, end float64, a, b int32) {
		sc.Events = append(sc.Events,
			trace.Event{Tick: uint64(start / tick), Up: true, A: a, B: b},
			trace.Event{Tick: uint64(end / tick), A: a, B: b})
	}
	for k := 0; k < periods; k++ {
		base := float64(k) * 100
		contact(base+5, base+15, 0, 1)  // A-B (C1)
		contact(base+20, base+28, 0, 3) // A-E (bridge C1-C2)
		contact(base+35, base+43, 2, 3) // C-E (C2)
		contact(base+50, base+58, 3, 5) // E-F (bridge C2-C3)
		contact(base+70, base+80, 4, 5) // F-D (C3)
	}
	return sc
}

func run(mk func() network.Router, periods int, sendAt float64, ttl float64) repro.Summary {
	sc := figure1Script(periods)
	runner := sim.NewRunner(tick)
	w := network.New(network.Config{Range: 10, Bandwidth: 1e6}, runner)
	w.SetContactScript(sc.Events)
	for i := 0; i < sc.N; i++ {
		w.AddNode(&mobility.Stationary{}, buffer.New(0), mk())
	}
	w.Start()
	runner.Events.Schedule(sendAt, func(t float64) {
		w.CreateMessage(t, 0, 4, 1000, ttl) // A → D
	})
	runner.Run(float64(sc.Events[len(sc.Events)-1].Tick)*tick + 1)
	return w.Metrics.Summary()
}

func main() {
	names := []string{"A", "B", "C", "E", "D", "F"}
	reg := community.New([]int{0, 0, 1, 1, 2, 2})

	// Part 1: what node A's history knows after three schedule periods.
	fmt.Println("== contact-expectation estimators at node A ==")
	h := repro.NewHistory(0, 6, 0)
	for k := 0; k < 3; k++ {
		base := float64(k) * 100
		h.RecordContact(1, base+5)  // B
		h.RecordContact(3, base+20) // E
	}
	now, tau := 310.0, 50.0
	fmt.Printf("t=%.0f, horizon τ=%.0f s\n", now, tau)
	for _, peer := range []int{1, 3, 4} {
		p := h.EncounterProb(peer, now, tau)
		emd, ok := h.EMD(peer, now)
		if ok {
			fmt.Printf("  P(meet %s within τ) = %.2f, EMD = %.1f s\n", names[peer], p, emd)
		} else {
			fmt.Printf("  P(meet %s within τ) = %.2f, EMD = unknown (never met)\n", names[peer], p)
		}
	}
	fmt.Printf("  EEV(t, τ)  = %.2f expected encounters\n", h.EEV(now, tau))
	fmt.Printf("  ENEC(t, τ) = %.2f expected foreign communities\n",
		h.ENEC(now, tau, reg.Communities(), reg.Of(0)))

	// Part 2: the Figure-1 routing story. First-contact ("best effort to
	// B first", as the paper's introduction warns) wastes the copy inside
	// C1; CR pushes it along A→E→F→D using community expectations.
	fmt.Println("\n== Figure-1 scenario: message A → D, TTL 300 s ==")
	crFactory := routing.CRFactory(routing.DefaultCRConfig(2), reg)
	cr := run(func() network.Router { return crFactory() }, 8, 100, 300)
	fc := run(func() network.Router { return routing.NewFirstContact() }, 8, 100, 300)
	fmt.Printf("  CR:            delivered=%d latency=%.0fs relays=%d\n", cr.Delivered, cr.AvgLatency, cr.Relays)
	fmt.Printf("  FirstContact:  delivered=%d latency=%.0fs relays=%d\n", fc.Delivered, fc.AvgLatency, fc.Relays)
	if cr.Delivered > 0 {
		fmt.Println("  -> CR routes across communities via the E/F bridges.")
	}
}
