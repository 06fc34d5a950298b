package core_test

import (
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

// BenchmarkMEMDCompute measures one Theorem-3 computation — own Theorem-2
// row plus the indexed heap Dijkstra over the gossiped MI — on real
// 240-node link state, cycling over the sampled nodes. Steady state
// allocates nothing.
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
