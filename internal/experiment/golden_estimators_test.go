package experiment

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/metrics"
)

// Golden summaries for the EER/CR estimator paths the Figure-2 fixture
// does not reach: the A1 fixed horizon, the A2 store-only MD, flood and
// delta gossip metering, and a capped MI store. Every summary field is
// pinned, so the gossip counters (the only thing flood and delta change)
// are covered too. Refresh intentionally with:
//
//	go test ./internal/experiment -run TestGoldenEstimators -update-golden

const goldenEstimatorsPath = "testdata/golden_estimators.json"

// goldenEstimatorCase is one pinned spec of the estimator fixture.
type goldenEstimatorCase struct {
	name string
	spec ScenarioSpec
}

// goldenEstimatorCases returns the fixture's specs: small 40-node worlds
// at reduced duration, two seeds each.
func goldenEstimatorCases() []goldenEstimatorCase {
	base := func(p Protocol) ScenarioSpec {
		return ScenarioSpec{
			Protocol: ptr(string(p)),
			Nodes:    ptr(40),
			Duration: ptr(4000.0),
			Tick:     ptr(0.5),
			Seeds:    Seeds(2),
		}
	}
	flood := base(EER)
	flood.Gossip = ptr("flood")
	capped := base(EER)
	capped.Gossip = ptr("delta")
	capped.MaxSparseRows = ptr(16)
	crDelta := base(CR)
	crDelta.Gossip = ptr("delta")
	return []goldenEstimatorCase{
		{"EER-fixedEV", base(EERFixedEV)},
		{"EER-meanMD", base(EERMeanMD)},
		{"EER/flood", flood},
		{"EER/delta/max_sparse_rows=16", capped},
		{"CR/delta", crDelta},
	}
}

func TestGoldenEstimators(t *testing.T) {
	if testing.Short() {
		t.Skip("10 simulations in -short mode")
	}
	cases := goldenEstimatorCases()
	specs := make([]ScenarioSpec, len(cases))
	for i, c := range cases {
		specs[i] = c.spec
	}
	res, err := RunSpecsStore(nil, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string][]metrics.Summary, len(cases))
	for i, c := range cases {
		got[c.name] = StripTiming(res[i])
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenEstimatorsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenEstimatorsPath)
		return
	}
	data, err := os.ReadFile(goldenEstimatorsPath)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update-golden to create): %v", err)
	}
	var want map[string][]metrics.Summary
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden fixture: %v", err)
	}
	for _, c := range cases {
		w, g := want[c.name], got[c.name]
		if len(w) != len(g) {
			t.Fatalf("%s: fixture has %d seeds, run produced %d", c.name, len(w), len(g))
		}
		for i := range w {
			// Exact equality, as in TestGoldenFigure2.
			if w[i] != g[i] {
				t.Errorf("%s seed %d drifted:\n  golden %+v\n  now    %+v\n(if intentional: go test ./internal/experiment -run TestGoldenEstimators -update-golden)",
					c.name, i+1, w[i], g[i])
			}
		}
	}
}
