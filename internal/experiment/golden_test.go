package experiment

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// Golden-metrics regression: a committed fixture of Figure 2 results at
// one sweep point × 3 seeds. The determinism contract makes the figures
// bit-reproducible, so any drift in a protocol's delivery ratio, latency
// or goodput — an engine change leaking into simulation semantics, a
// router behaviour change — fails here before it silently reshapes the
// paper's figures. Refresh intentionally with:
//
//	go test ./internal/experiment -run TestGoldenFigure2 -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden fixtures in testdata from the current engine")

const goldenPath = "testdata/golden_figure2.json"

// goldenPoint holds the paper's three figures of merit for one run.
type goldenPoint struct {
	Delivery float64 `json:"delivery"`
	Latency  float64 `json:"latency"`
	Goodput  float64 `json:"goodput"`
}

// goldenScenario is the fixture's sweep point: the 40-node Figure 2
// column at reduced duration, heavy enough to exercise every protocol's
// full pipeline, light enough for every `go test` run.
func goldenScenario() Scenario {
	s := Default()
	s.Nodes = 40
	s.Duration = 2000
	s.Tick = 0.5
	return s
}

const goldenSeeds = 3

// computeGolden runs the fixture's sweep point as the Figure-2 sweep
// does: a protocol axis over the point's base spec, through RunSweep.
func computeGolden(t *testing.T) map[string][]goldenPoint {
	g := goldenScenario()
	sw := SweepSpec{
		Base: ScenarioSpec{Nodes: ptr(g.Nodes), Duration: ptr(g.Duration), Tick: ptr(g.Tick), Seeds: Seeds(goldenSeeds)},
	}
	for _, p := range AllPaperProtocols {
		sw.Protocols = append(sw.Protocols, string(p))
	}
	res, err := RunSweep(nil, sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]goldenPoint, len(AllPaperProtocols))
	for i, p := range AllPaperProtocols {
		for _, sum := range res[i].PerSeed {
			out[string(p)] = append(out[string(p)], goldenPoint{
				Delivery: sum.DeliveryRatio,
				Latency:  sum.AvgLatency,
				Goodput:  sum.Goodput,
			})
		}
	}
	return out
}

func TestGoldenFigure2(t *testing.T) {
	if testing.Short() {
		t.Skip("18 simulations in -short mode")
	}
	got := computeGolden(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update-golden to create): %v", err)
	}
	var want map[string][]goldenPoint
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden fixture: %v", err)
	}
	for _, p := range AllPaperProtocols {
		w, g := want[string(p)], got[string(p)]
		if len(w) != goldenSeeds || len(g) != goldenSeeds {
			t.Fatalf("%s: fixture has %d seeds, run produced %d (want %d)", p, len(w), len(g), goldenSeeds)
		}
		for seed := range w {
			// Exact equality: runs are bit-deterministic, and JSON
			// round-trips float64 exactly. Any mismatch is a real
			// behaviour change — regenerate only if it is intentional.
			if w[seed] != g[seed] {
				t.Errorf("%s seed %d drifted:\n  golden %+v\n  now    %+v\n(if intentional: go test ./internal/experiment -run TestGoldenFigure2 -update-golden)",
					p, seed+1, w[seed], g[seed])
			}
		}
	}
}
