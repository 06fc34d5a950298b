package main

import (
	"fmt"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
)

// runCity measures the engine-bound case: the CityScale preset (10k nodes,
// buses and district walkers, SprayAndWait, serial tick path), where
// mobility, re-bucketing and the neighbourhood scan dominate and the
// router is about 1% of the time. One op is a rep: Build the world, then
// run it; throughput is engine ticks per second.
func runCity(e *env, sc scale) (*result, error) {
	scen := func(duration float64) experiment.Scenario {
		s := experiment.CityScale()
		if sc.cityNodes > 0 {
			s.Nodes = sc.cityNodes
		}
		s.Seed = e.seed
		s.Duration = duration
		return s
	}
	// Set-up: build the world and run its first ticks, which loads the
	// city map and faults in the engine's per-node state.
	err := e.setup(func(bool) error {
		scen(sc.cityWarmup).Run()
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := newResult()
	L := &res.layers
	name := fmt.Sprintf("city-live/seed%d", e.seed)
	untraced, traced, err := e.loop(sc.cityMinReps, func(i int, tr bool) (time.Duration, error) {
		s := scen(sc.cityDuration)
		rep := e.spans.begin("rep", e.root)
		t0 := time.Now()
		b := e.spans.begin("Build", rep)
		w, runner := s.Build()
		e.spans.end(b)
		var prof *obs.EngineProf
		if tr {
			prof = &obs.EngineProf{}
			w.SetProfiler(prof)
			runner.Prof = prof
		}
		r := e.spans.begin("Run", rep)
		runner.Run(s.Duration)
		e.spans.end(r)
		d := time.Since(t0)
		e.spans.end(rep)

		sum := w.Metrics.Summary()
		res.output(name, stripped(sum))
		res.attempted++
		if tr {
			L.ops++
			L.timing = obs.MergeTiming(L.timing, prof.Timing())
			L.work.add(sum)
		} else {
			res.rates = append(res.rates, s.Duration/s.Tick/d.Seconds())
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	res.opMs, res.tracedOpMs = untraced, traced
	return res, nil
}
