package main

import (
	"testing"
	"time"
)

// toyScale runs every workload's full code path in about a second.
var toyScale = scale{
	paperNodes: 30, paperDuration: 200, paperWarmup: 20, paperWorlds: 2, paperMinRounds: 2,
	cityNodes: 300, cityDuration: 20, cityWarmup: 5, cityMinReps: 2,
	sweepNodes: 20, sweepDuration: 100, sweepWarmup: 10, sweepSeeds: 2, sweepMinPasses: 2,
	dtndRate: 400, dtndLadder: []float64{800}, dtndWarmReqs: 10,
}

// TestWorkloadsEmitEveryDeclaredMetric runs each workload at toy size,
// untraced and traced, and checks that it passes its own correctness
// checks and emits exactly the metrics BENCHMARK.json declares for the
// mode (execute rejects a missing or undeclared name).
func TestWorkloadsEmitEveryDeclaredMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the tool runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the tool runs %q", i, spec.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			opts := runOpts{seed: 7, seconds: time.Second, traced: traced, out: t.TempDir()}
			rf, err := execute(spec, w, opts, toyScale)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			defs := spec.EndToEnd
			if traced {
				defs = spec.PerLayer
			}
			if len(rf.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(rf.Metrics), len(defs))
			}
			if !rf.Correct || rf.Failed != 0 || rf.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d errors=%v",
					w.name, traced, rf.Correct, rf.Failed, rf.Attempted, rf.Errors)
			}
			if !traced {
				for _, d := range defs {
					if rf.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, d.Name, rf.Metrics[d.Name].Value)
					}
				}
				continue
			}
			// Each workload exercises the layer it was chosen for.
			m := func(name string) float64 { return rf.Metrics[name].Value }
			switch w.name {
			case "paper-live":
				if m("core.memd_per_s") <= 0 || m("cell.EER") <= 0 || m("network.contacts") <= 0 {
					t.Errorf("paper-live: core probe or cell shares missing: %v", rf.Metrics)
				}
			case "city-live":
				if m("network.rebucket") <= 0 || m("network.scan") <= 0 {
					t.Errorf("city-live: engine phases missing")
				}
			case "sweep-replay":
				if m("network.script") <= 0 || m("experiment.trace_replays") <= 0 || m("resultcache.hits") <= 0 {
					t.Errorf("sweep-replay: replay path not measured")
				}
				for _, ph := range []string{"network.mobility", "network.rebucket", "network.scan"} {
					if m(ph) != 0 {
						t.Errorf("sweep-replay: %s = %g, want 0 (replays skip it)", ph, m(ph))
					}
				}
			case "dtnd-mixed":
				if m("server.hit_ratio") <= 0 || m("op.samples") <= 0 {
					t.Errorf("dtnd-mixed: server metrics missing")
				}
			}
		}
	}
}
