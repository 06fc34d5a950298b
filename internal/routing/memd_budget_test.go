package routing_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/routing"
)

// TestMEMDSettleBudget: on the 240-node, 1000 s Default world, the
// decision-driven MEMD settles at most a protocol's budget of the vertices
// that full runs over the same frozen inputs settle — one full run per
// contact side that made a single-replica decision, which is what the
// meeting layer ran before its searches stopped at what a decision needs.
func TestMEMDSettleBudget(t *testing.T) {
	for _, tc := range []struct {
		protocol experiment.Protocol
		budget   float64
	}{{experiment.EER, 0.85}, {experiment.CR, 0.70}} {
		for seed := int64(1); seed <= 4; seed++ {
			s := experiment.Default()
			s.Protocol = tc.protocol
			s.Nodes = 240
			s.Duration = 1000
			s.Seed = seed
			w, runner := s.Build()
			full := core.NewMEMD(s.Nodes)
			r := w.Node(0).Router
			routing.OnMEMDStart(r, func(self int, t0 float64, h *core.History, mi *core.MeetingMatrix) {
				full.Compute(self, t0, h, mi)
			})
			runner.Run(s.Duration)
			got, want := routing.MEMDSettles(r), full.Settles()
			if want == 0 {
				t.Fatalf("%s seed %d: no MEMD ran", tc.protocol, seed)
			}
			ratio := float64(got) / float64(want)
			t.Logf("%s seed %d: %d settled, full runs %d (%.3fx)", tc.protocol, seed, got, want, ratio)
			if ratio > tc.budget {
				t.Errorf("%s seed %d: settled %.3fx of the full runs' vertices, budget %.2fx", tc.protocol, seed, ratio, tc.budget)
			}
		}
	}
}
