package core_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/routing"
)

// benchEER is the end state of a short Figure-2 EER run at the paper's
// largest fleet (240 nodes, 1000 simulated s, seed 1): 16 evenly spaced
// routers with their histories and gossiped MI, built once per binary.
var benchEER = sync.OnceValues(func() ([]*routing.EER, float64) {
	s := experiment.Default()
	s.Protocol = experiment.EER
	s.Nodes = 240
	s.Duration = 1000
	w, runner := s.Build()
	runner.Run(s.Duration)
	var rs []*routing.EER
	for k := 0; k < 16; k++ {
		rs = append(rs, w.Node(k*s.Nodes/16).Router.(*routing.EER))
	}
	return rs, w.Now()
})

// BenchmarkMEMDCompute measures one full Theorem-3 computation — own
// Theorem-2 row plus the radix-queue Dijkstra over the gossiped MI, every
// reachable vertex settled — on real 240-node link state, cycling over the
// sampled nodes. Steady state allocates nothing.
func BenchmarkMEMDCompute(b *testing.B) {
	rs, now := benchEER()
	calc := core.NewMEMD(240)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rs[i%len(rs)]
		calc.Compute(r.Self.ID, now, r.History(), r.MI().(*core.MeetingMatrix))
	}
}

// decideDsts are the destinations BenchmarkMEMDDecide resolves per contact,
// none of them a sampled node: two, about the single-replica decisions a
// Figure-2 EER contact makes (1.3 MEMD queries per started side on the
// 240-node, 1000 s world, seeds 1–4).
var decideDsts = []int{37, 157}

// BenchmarkMEMDDecide measures the decision path on the same state: per op,
// one contact between two sampled nodes freezes both sides' MEMD inputs
// and resolves the single-replica rule for every destination of
// decideDsts, the peer's delay first and then whether the holder's
// exceeds it — settling each side only as far as the decisions need.
// Steady state allocates nothing.
func BenchmarkMEMDDecide(b *testing.B) {
	rs, now := benchEER()
	calc := core.NewMEMD(240)
	var holder, peer core.MEMDRun
	forwards := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, p := rs[i%len(rs)], rs[(i+1+i/len(rs)%(len(rs)-1))%len(rs)]
		calc.Start(&holder, h.Self.ID, now, h.History(), h.MI().(*core.MeetingMatrix))
		calc.Start(&peer, p.Self.ID, now, p.History(), p.MI().(*core.MeetingMatrix))
		for _, dst := range decideDsts {
			if d := calc.DelayTo(&peer, dst); d <= math.MaxFloat64 && calc.Exceeds(&holder, dst, d) {
				forwards++
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(forwards)/float64(b.N), "forwards/op")
}
