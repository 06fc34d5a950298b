package routing_test

import (
	"sync"
	"testing"

	"repro/internal/experiment"
	"repro/internal/routing"
)

// benchMaxProp is the end state of a short Figure-2 MaxProp run at the
// paper's largest fleet (240 nodes, 1000 simulated s, seed 1): 16 evenly
// spaced dense routers with their flooded probability vectors, built once
// per binary.
var benchMaxProp = sync.OnceValue(func() []*routing.MaxProp {
	s := experiment.Default()
	s.Protocol = experiment.MaxProp
	s.Nodes = 240
	s.Duration = 1000
	w, runner := s.Build()
	runner.Run(s.Duration)
	var rs []*routing.MaxProp
	for k := 0; k < 16; k++ {
		rs = append(rs, w.Node(k*s.Nodes/16).Router.(*routing.MaxProp))
	}
	return rs
})

// BenchmarkMaxPropRefreshCost measures one Σ(1−p) path-cost recomputation
// — the indexed heap Dijkstra over the positive probabilities — on real
// 240-node state, cycling over the sampled routers. Steady state allocates
// nothing.
func BenchmarkMaxPropRefreshCost(b *testing.B) {
	rs := benchMaxProp()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs[i%len(rs)].RefreshCost()
	}
}
