package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/mapgen"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/routing"
)

// paperProtocols are the cells of one paper-live round, in run order: the
// paper's router, the estimator-heavy baseline and the community variant.
var paperProtocols = []experiment.Protocol{experiment.EER, experiment.MaxProp, experiment.CR}

// probeNodes is how many nodes the core probe samples.
const probeNodes = 16

// runPaper measures the router- and estimator-bound case: Figure-2 cells at
// the paper's largest fleet, each run serially as Build then Run. One op is
// a round of the three protocols on one world; rounds cycle over a few
// world seeds so that one unusual world does not set the run's median.
// Throughput is contacts handled per second, summed over the cells.
func runPaper(e *env, sc scale) (*result, error) {
	cell := func(p experiment.Protocol, world int64, duration float64) experiment.Scenario {
		s := experiment.Default()
		s.Protocol = p
		s.Nodes = sc.paperNodes
		s.Duration = duration
		s.Seed = world
		return s
	}
	// Set-up: generate the road map and run a short cell per protocol,
	// which fills the map's shared path cache and warms the allocator.
	err := e.setup(func(bool) error {
		s := cell(experiment.EER, e.seed, sc.paperWarmup)
		mapgen.Generate(s.Map, s.MapSeed)
		for _, p := range paperProtocols {
			cell(p, e.seed, sc.paperWarmup).Run()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := newResult()
	L := &res.layers
	L.cellSecs = map[string]float64{}
	untraced, traced, err := e.loop(sc.paperMinRounds, func(i int, tr bool) (time.Duration, error) {
		world := e.seed + int64(i%sc.paperWorlds)
		round := e.spans.begin(fmt.Sprintf("round world=%d", world), e.root)
		defer e.spans.end(round)
		var took time.Duration
		contacts := 0.0
		for _, p := range paperProtocols {
			s := cell(p, world, sc.paperDuration)
			sp := e.spans.begin("cell "+string(p), round)
			t0 := time.Now()
			b := e.spans.begin("Build", sp)
			w, runner := s.Build()
			e.spans.end(b)
			var prof *obs.EngineProf
			if tr {
				prof = &obs.EngineProf{}
				w.SetProfiler(prof)
				runner.Prof = prof
			}
			r := e.spans.begin("Run", sp)
			runner.Run(s.Duration)
			e.spans.end(r)
			d := time.Since(t0)
			e.spans.end(sp)
			took += d

			sum := w.Metrics.Summary()
			res.output(fmt.Sprintf("paper-live/%s/seed%d", p, world), stripped(sum))
			contacts += float64(sum.Contacts)
			if tr {
				L.timing = obs.MergeTiming(L.timing, prof.Timing())
				L.work.add(sum)
				L.cellSecs[string(p)] += d.Seconds()
				if p == experiment.EER {
					ps := e.spans.begin("probe core", sp)
					L.core = probeCore(w)
					e.spans.end(ps)
				}
			}
		}
		res.attempted++
		if tr {
			L.ops++
		} else {
			res.rates = append(res.rates, contacts/took.Seconds())
		}
		return took, nil
	})
	if err != nil {
		return nil, err
	}
	res.opMs, res.tracedOpMs = untraced, traced
	return res, nil
}

// probeCore times the estimator core on an EER world's end-of-run state:
// a from-scratch MEMD (Theorem 3, dense Dijkstra), an EEV snapshot and an
// MI exchange between two nodes, on probeNodes sampled nodes. The MI
// exchange mutates both sides, so it runs on clones.
func probeCore(w *network.World) *coreProbe {
	nodes := w.Nodes()
	now := w.Now()
	var p coreProbe
	var memd, snap, sync time.Duration
	var calls, rows int
	for k := 0; k < probeNodes; k++ {
		i := k * len(nodes) / probeNodes
		r, ok := nodes[i].Router.(*routing.EER)
		peer, okp := nodes[(i+1)%len(nodes)].Router.(*routing.EER)
		if !ok || !okp {
			return nil
		}
		mi, ok1 := r.MI().(*core.MeetingMatrix)
		pmi, ok2 := peer.MI().(*core.MeetingMatrix)
		if !ok1 || !ok2 {
			return nil // sparse estimators: the dense probe does not apply
		}
		m := core.NewMEMD(mi.Size())
		t0 := time.Now()
		m.Compute(nodes[i].ID, now, r.History(), mi)
		memd += time.Since(t0)

		t0 = time.Now()
		r.History().SnapshotEEV(now)
		snap += time.Since(t0)

		a, b := mi.Clone(), pmi.Clone()
		t0 = time.Now()
		core.Sync(a, b)
		sync += time.Since(t0)

		calls++
		rows += mi.KnownRows()
	}
	rate := func(d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(calls) / d.Seconds()
	}
	p.memdPerS, p.snapshotPerS, p.syncPerS = rate(memd), rate(snap), rate(sync)
	p.knownRows = float64(rows) / float64(calls)
	return &p
}
