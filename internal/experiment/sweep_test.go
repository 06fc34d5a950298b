package experiment

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/resultcache"
)

// sweepTestBase is a small, fast cell base shared by the sweep tests:
// resolved through the same spec path dtnd submissions use.
func sweepTestBase(seeds []int64) ScenarioSpec {
	return ScenarioSpec{
		Preset:   "quick",
		Protocol: ptr(string(EER)),
		Nodes:    ptr(16),
		Duration: ptr(400.0),
		Seeds:    seeds,
	}
}

func TestSweepExpansionOrderAndAxes(t *testing.T) {
	sw := SweepSpec{
		Base:      sweepTestBase(nil),
		Protocols: []string{"EER", "CR"},
		Nodes:     []int{20, 40, 60},
		Alpha:     []float64{0.2, 0.8},
	}
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*3*2 {
		t.Fatalf("expanded to %d cells, want 12", len(cells))
	}
	// Canonical order: protocol outermost, then nodes, then alpha.
	want := [][3]string{
		{"EER", "20", "0.2"}, {"EER", "20", "0.8"},
		{"EER", "40", "0.2"}, {"EER", "40", "0.8"},
		{"EER", "60", "0.2"}, {"EER", "60", "0.8"},
		{"CR", "20", "0.2"}, {"CR", "20", "0.8"},
		{"CR", "40", "0.2"}, {"CR", "40", "0.8"},
		{"CR", "60", "0.2"}, {"CR", "60", "0.8"},
	}
	keys := map[string]bool{}
	for i, c := range cells {
		if len(c.Axes) != 3 {
			t.Fatalf("cell %d has %d axes", i, len(c.Axes))
		}
		got := [3]string{c.Axes[0].Value, c.Axes[1].Value, c.Axes[2].Value}
		if got != want[i] {
			t.Errorf("cell %d axes = %v, want %v", i, got, want[i])
		}
		if c.Axes[0].Axis != "protocol" || c.Axes[1].Axis != "nodes" || c.Axes[2].Axis != "alpha" {
			t.Errorf("cell %d axis names %v", i, c.Axes)
		}
		if keys[c.Key] {
			t.Errorf("cell %d repeats key %s", i, c.Key)
		}
		keys[c.Key] = true
		// The cell's key is the same content address a direct job
		// submission of the cell spec would compute — what makes CLI
		// sweeps, daemon sweeps and single jobs share cache entries.
		if k, err := c.Spec.CacheKey(); err != nil || k != c.Key {
			t.Errorf("cell %d key %s != spec key %s (%v)", i, c.Key, k, err)
		}
		// Axis overrides landed on the spec.
		if *c.Spec.Protocol != want[i][0] {
			t.Errorf("cell %d protocol %s", i, *c.Spec.Protocol)
		}
	}
	// Expansion is deterministic: a second expansion is identical.
	again, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if cells[i].Key != again[i].Key {
			t.Fatalf("expansion not deterministic at cell %d", i)
		}
	}
}

func TestSweepExpansionEmptyAxesIsBase(t *testing.T) {
	sw := SweepSpec{Base: sweepTestBase(nil)}
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || len(cells[0].Axes) != 0 {
		t.Fatalf("axis-free sweep expanded to %+v", cells)
	}
	baseKey, err := sw.Base.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Key != baseKey {
		t.Error("axis-free cell key differs from base key")
	}
}

func TestSweepExpansionRejectsBadCellsAndBlowups(t *testing.T) {
	sw := SweepSpec{Base: sweepTestBase(nil), Protocols: []string{"EER", "NoSuchProtocol"}}
	if _, err := sw.Cells(); err == nil {
		t.Error("unknown protocol cell accepted")
	}
	big := SweepSpec{Base: sweepTestBase(nil)}
	for i := 0; i < 100; i++ {
		big.Nodes = append(big.Nodes, 10+i)
		big.Lambda = append(big.Lambda, 1+i)
	}
	if _, err := big.Cells(); err == nil {
		t.Error("10000-cell sweep accepted over the cell limit")
	}
}

func TestParseSweepSpecStrict(t *testing.T) {
	if _, err := ParseSweepSpec([]byte(`{"base": {"preset": "quick"}, "protocls": ["EER"]}`)); err == nil {
		t.Error("unknown field accepted")
	}
	sw, err := ParseSweepSpec([]byte(`{"base": {"preset": "quick"}, "alpha": [0.2, 0.4]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Alpha) != 2 || sw.Base.Preset != "quick" {
		t.Fatalf("parsed %+v", sw)
	}
}

// FuzzParseSweepSpec: any sweep ParseSweepSpec and Cells accept — the
// way dtnd takes POST /v1/sweeps — resolves every cell and builds and runs
// its first ticks without panicking, for size-bounded sweeps (at most
// fuzzSweepCells cells, each fuzzSized). Seeds are the presets and the
// engine crashers as sweep bases, the Figure-2 sweep, and a sweep that
// writes every axis.
func FuzzParseSweepSpec(f *testing.F) {
	add := func(sw SweepSpec) {
		b, err := json.Marshal(sw)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, sp := range PresetSpecs() {
		add(SweepSpec{Base: sp})
	}
	for _, c := range engineCrashers {
		f.Add([]byte(`{"base":` + c.spec + `,"lambda":[2,4]}`))
	}
	protos := make([]string, len(AllPaperProtocols))
	for i, p := range AllPaperProtocols {
		protos[i] = string(p)
	}
	add(SweepSpec{Base: ScenarioSpec{Preset: "figure2"}, Protocols: protos, Nodes: []int{40, 80, 120, 160, 200, 240}})
	f.Add([]byte(`{"base":{"preset":"quick","nodes":12,"duration":60},"protocols":["EER","CR"],` +
		`"nodes":[8,16],"alpha":[0.5],"ttl":[30],"buf_bytes":[0,9000],"window":[2],"lambda":[1,3]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			return
		}
		sw, err := ParseSweepSpec(data)
		if err != nil {
			return
		}
		cells, err := sw.Cells()
		if err != nil || len(cells) > fuzzSweepCells {
			return
		}
		for _, c := range cells {
			s, err := c.Spec.Scenario()
			if err != nil {
				t.Fatalf("cell %v passed Cells but does not resolve: %v", c.Axes, err)
			}
			until := min(s.Duration, 3*s.Tick)
			if !fuzzSized(s, until) {
				continue
			}
			_, runner := s.Build()
			runner.Run(until)
		}
	})
}

// fuzzSweepCells bounds the sweeps FuzzParseSweepSpec runs; the Figure-2
// sweep (36 cells) is the largest seed.
const fuzzSweepCells = 36

// TestRunSweepMatchesRunSeeds is the per-cell oracle check of the sweep
// path: every cell's mean equals metrics.Mean over RunSeeds of the
// scenario with the cell's axis value set directly on it — the
// hand-built Scenario path with no spec, plan, cache or sharing.
func TestRunSweepMatchesRunSeeds(t *testing.T) {
	const nSeeds = 2
	// The routing parameters only move results once contacts have built
	// up estimates: 40 nodes over 1200 s is the smallest quick world tried
	// where each axis's two values give different summaries.
	base := sweepTestBase(Seeds(nSeeds))
	base.Nodes, base.Duration = ptr(40), ptr(1200.0)
	alphas := []float64{0.2, 0.6}
	hysteresis := []float64{0, 120}
	for _, c := range []struct {
		name string
		sw   SweepSpec
		set  func(s *Scenario, i int)
	}{
		{"alpha", SweepSpec{Base: base, Alpha: alphas}, func(s *Scenario, i int) { s.Alpha = alphas[i] }},
		{"forward_hysteresis", SweepSpec{Base: base, ForwardHysteresis: hysteresis},
			func(s *Scenario, i int) { s.ForwardHysteresis = hysteresis[i] }},
	} {
		t.Run(c.name, func(t *testing.T) {
			results, err := RunSweep(nil, c.sw, nil)
			if err != nil {
				t.Fatal(err)
			}
			scenario, err := c.sw.Base.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range results {
				if got := res.Cell.Axes; len(got) != 1 || got[0].Axis != c.name {
					t.Fatalf("cell %d axes %v, want one %s axis", i, got, c.name)
				}
				s := scenario
				c.set(&s, i)
				if want := metrics.Mean(RunSeeds(s, Seeds(nSeeds))); res.Mean != want {
					t.Errorf("cell %d (%s=%s) diverged:\n  sweep   %+v\n  oracle  %+v",
						i, c.name, res.Cell.Axes[0].Value, res.Mean, want)
				}
				if res.Cached || res.Shared {
					t.Errorf("cell %d cached=%v shared=%v without a store or a shared run", i, res.Cached, res.Shared)
				}
			}
			// The axis must reach the run, or the oracle check is vacuous.
			if results[0].Mean == results[1].Mean {
				t.Errorf("both %s cells ran the same simulation", c.name)
			}
		})
	}
}

// TestRunSweepCacheReuse: a repeated sweep over the same store simulates
// nothing and returns identical summaries; an overlapping sweep only
// simulates its new cells.
func TestRunSweepCacheReuse(t *testing.T) {
	store, err := resultcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	base := sweepTestBase(Seeds(2))
	first, err := RunSweep(nil, SweepSpec{Base: base, Alpha: []float64{0.2, 0.6}}, store)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunSweep(nil, SweepSpec{Base: base, Alpha: []float64{0.2, 0.6}}, store)
	if err != nil {
		t.Fatal(err)
	}
	for i := range second {
		if !second[i].Cached {
			t.Errorf("cell %d not served from cache on resubmission", i)
		}
		if second[i].Mean != first[i].Mean {
			t.Errorf("cell %d cached mean diverged", i)
		}
		if len(second[i].PerSeed) != len(first[i].PerSeed) {
			t.Errorf("cell %d per-seed shape changed", i)
		}
	}
	// Overlap: one old alpha, one new — only the new cell simulates.
	third, err := RunSweep(nil, SweepSpec{Base: base, Alpha: []float64{0.6, 0.9}}, store)
	if err != nil {
		t.Fatal(err)
	}
	if !third[0].Cached {
		t.Error("overlapping cell re-simulated")
	}
	if third[1].Cached {
		t.Error("new cell claims cached")
	}
	if third[0].Mean != first[1].Mean {
		t.Error("overlapping cell mean diverged")
	}
}

func TestRunSpecsStoreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := RunSpecsStore(ctx, []ScenarioSpec{sweepTestBase(Seeds(2))}, nil, nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled run still took %v", elapsed)
	}
}

// TestRunSpecStoreCancelMidRun: cancelling during a run stops the
// remaining simulation work and reports context.Canceled.
func TestRunSpecStoreCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	_, err := RunSpecStore(ctx, sweepTestBase(Seeds(2)), nil, func(metrics.Progress) {
		once.Do(cancel) // cancel on the first progress event
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
