package repro

// One benchmark per table/figure of the paper plus micro-benchmarks of the
// core estimators. Figure benchmarks run a reduced but shape-preserving
// configuration (80 nodes, 2000 simulated seconds, one seed) so that
// `go test -bench=.` completes in minutes; cmd/figures regenerates the
// full sweeps. Each figure benchmark reports the three paper metrics as
// custom benchmark outputs (delivery, latency-s, goodput).

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/xrand"
)

// benchScenario is the reduced per-iteration configuration.
func benchScenario(p experiment.Protocol, lambda int) experiment.Scenario {
	s := experiment.Default()
	s.Protocol = p
	s.Nodes = 80
	s.Duration = 2000
	s.Tick = 0.5
	s.Lambda = lambda
	return s
}

func runFigureBench(b *testing.B, s experiment.Scenario) {
	b.Helper()
	last := experiment.RunAveraged(s, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Seed = int64(i + 1)
		last = s.Run()
	}
	b.StopTimer()
	b.ReportMetric(last.DeliveryRatio, "delivery")
	b.ReportMetric(last.AvgLatency, "latency-s")
	b.ReportMetric(last.Goodput*1000, "goodput-m") // milli-goodput for readability
}

// Figure 2 — the six-protocol comparison (one benchmark per curve).

func BenchmarkFigure2_EER(b *testing.B)     { runFigureBench(b, benchScenario(experiment.EER, 10)) }
func BenchmarkFigure2_CR(b *testing.B)      { runFigureBench(b, benchScenario(experiment.CR, 10)) }
func BenchmarkFigure2_EBR(b *testing.B)     { runFigureBench(b, benchScenario(experiment.EBR, 10)) }
func BenchmarkFigure2_MaxProp(b *testing.B) { runFigureBench(b, benchScenario(experiment.MaxProp, 10)) }
func BenchmarkFigure2_SprayAndWait(b *testing.B) {
	runFigureBench(b, benchScenario(experiment.SprayAndWait, 10))
}
func BenchmarkFigure2_SprayAndFocus(b *testing.B) {
	runFigureBench(b, benchScenario(experiment.SprayAndFocus, 10))
}

// Figure 3 — EER λ sensitivity.

func BenchmarkFigure3_EER_Lambda6(b *testing.B) { runFigureBench(b, benchScenario(experiment.EER, 6)) }
func BenchmarkFigure3_EER_Lambda8(b *testing.B) { runFigureBench(b, benchScenario(experiment.EER, 8)) }
func BenchmarkFigure3_EER_Lambda10(b *testing.B) {
	runFigureBench(b, benchScenario(experiment.EER, 10))
}
func BenchmarkFigure3_EER_Lambda12(b *testing.B) {
	runFigureBench(b, benchScenario(experiment.EER, 12))
}

// Figure 4 — CR λ sensitivity.

func BenchmarkFigure4_CR_Lambda6(b *testing.B)  { runFigureBench(b, benchScenario(experiment.CR, 6)) }
func BenchmarkFigure4_CR_Lambda8(b *testing.B)  { runFigureBench(b, benchScenario(experiment.CR, 8)) }
func BenchmarkFigure4_CR_Lambda10(b *testing.B) { runFigureBench(b, benchScenario(experiment.CR, 10)) }
func BenchmarkFigure4_CR_Lambda12(b *testing.B) { runFigureBench(b, benchScenario(experiment.CR, 12)) }

// Ablations — the design choices DESIGN.md calls out.

// BenchmarkAblationA1_TTLIndependentEEV removes the paper's TTL scaling
// from the EEV horizon (EBR-style estimation).
func BenchmarkAblationA1_TTLIndependentEEV(b *testing.B) {
	runFigureBench(b, benchScenario(experiment.EERFixedEV, 10))
}

// BenchmarkAblationA2_MeanIntervalMD replaces Theorem-2 elapsed-time
// conditioning with plain mean intervals (MEED-style).
func BenchmarkAblationA2_MeanIntervalMD(b *testing.B) {
	runFigureBench(b, benchScenario(experiment.EERMeanMD, 10))
}

// BenchmarkAblationA3_ForwardHysteresis adds a 60 s forwarding hysteresis
// to quantify estimator-noise ping-pong in the single-replica phase.
func BenchmarkAblationA3_ForwardHysteresis(b *testing.B) {
	s := benchScenario(experiment.EER, 10)
	s.ForwardHysteresis = 60
	runFigureBench(b, s)
}

// --- micro-benchmarks of the simulation engine ---

// BenchmarkEngineTicks measures the raw tick rate of the contact engine
// under the paper's vehicular mobility with no traffic: movement,
// incremental grid maintenance, re-check scheduling and contact churn.
// One iteration is one simulated tick. internal/network/bench_test.go
// holds finer-grained engine benchmarks (static fleets, contact rates)
// and the zero-allocation assertions.
func BenchmarkEngineTicks(b *testing.B) {
	s := experiment.Quick()
	s.Nodes = 120
	w, runner := experiment.BuildBare(s, func(int) network.Router { return routing.NewDirect() })
	runner.Run(64 * s.Tick) // warm up grid, wheel and scratch buffers
	start := runner.Now()
	b.ResetTimer()
	runner.Run(start + float64(b.N)*s.Tick)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ticks/s")
	b.ReportMetric(float64(w.Metrics.Summary().Contacts)/b.Elapsed().Seconds(), "contacts/s")
}

// --- micro-benchmarks of the paper's estimators ---

func benchHistory(n, contacts int) *core.History {
	h := core.NewHistory(0, n, 0)
	rng := xrand.New(1)
	for j := 1; j < n; j++ {
		t := rng.Uniform(0, 50)
		for k := 0; k < contacts; k++ {
			h.RecordContact(j, t)
			t += rng.Uniform(10, 300)
		}
	}
	return h
}

// BenchmarkEEV measures the direct Theorem-1 computation over 240 peers.
func BenchmarkEEV(b *testing.B) {
	h := benchHistory(240, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.EEV(6000, 300)
	}
}

// BenchmarkSnapshotEEV measures snapshot construction plus 40 horizon
// queries — one contact's worth of Algorithm-1 decisions.
func BenchmarkSnapshotEEV(b *testing.B) {
	h := benchHistory(240, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := h.SnapshotEEV(6000)
		for k := 0; k < 40; k++ {
			_ = s.EEV(float64(30 * (k + 1)))
		}
	}
}

// BenchmarkMEMD measures one Theorem-3 computation (own row + indexed
// heap Dijkstra) at the paper's largest scale, 240 nodes, on synthetic
// link state; internal/core's BenchmarkMEMDCompute uses a real run's.
func BenchmarkMEMD(b *testing.B) {
	const n = 240
	h := benchHistory(n, 20)
	mi := core.NewFullMeetingMatrix(n)
	mi.UpdateOwnRow(0, 6000, h)
	// Fill remaining rows with plausible averages so Dijkstra has work.
	rng := xrand.New(2)
	for j := 1; j < n; j++ {
		hj := core.NewHistory(j, n, 0)
		for k := 0; k < n; k += 7 {
			if k == j {
				continue
			}
			t0 := rng.Uniform(0, 100)
			hj.RecordContact(k, t0)
			hj.RecordContact(k, t0+rng.Uniform(50, 400))
		}
		mi.UpdateOwnRow(j, 6000, hj)
	}
	calc := core.NewMEMD(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		calc.Compute(0, 6100, h, mi)
		_ = calc.Delay(n - 1)
	}
}

// BenchmarkMIMerge measures the freshness-based MI exchange of Algorithm 1
// line 4 at 240 nodes.
func BenchmarkMIMerge(b *testing.B) {
	const n = 240
	a := core.NewFullMeetingMatrix(n)
	c := core.NewFullMeetingMatrix(n)
	h := benchHistory(n, 4)
	for j := 0; j < n; j += 2 {
		hj := core.NewHistory(j, n, 0)
		hj.RecordContact((j+1)%n, 1)
		hj.RecordContact((j+1)%n, 100)
		a.UpdateOwnRow(j, float64(j), hj)
		c.UpdateOwnRow(j, float64(j+1), hj)
	}
	_ = h
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Sync(a, c)
	}
}

// BenchmarkENEC measures Theorem 4 with 4 communities over 240 nodes.
func BenchmarkENEC(b *testing.B) {
	const n = 240
	h := benchHistory(n, 20)
	communities := make([][]int, 4)
	for i := 0; i < n; i++ {
		communities[i%4] = append(communities[i%4], i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.ENEC(6000, 300, communities, 0)
	}
}
