package experiment

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// tiny returns a fast scenario for integration tests.
func tiny(p Protocol) Scenario {
	s := Default()
	s.Protocol = p
	s.Nodes = 24
	s.Duration = 1200
	s.Tick = 0.5
	return s
}

func TestRunAllProtocolsEndToEnd(t *testing.T) {
	for _, p := range []Protocol{EER, CR, EBR, MaxProp, SprayAndWait, SprayAndFocus,
		Epidemic, Prophet, Direct, FirstContact, EERFixedEV, EERMeanMD} {
		p := p
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			sum := tiny(p).Run()
			if sum.Generated == 0 {
				t.Fatal("no traffic generated")
			}
			if sum.Contacts == 0 {
				t.Fatal("no contacts in the bus scenario")
			}
			if sum.DeliveryRatio < 0 || sum.DeliveryRatio > 1 {
				t.Fatalf("delivery ratio out of range: %g", sum.DeliveryRatio)
			}
			if sum.Delivered > 0 && sum.AvgLatency <= 0 {
				t.Fatalf("deliveries without latency: %+v", sum)
			}
			if sum.Relays < sum.Delivered {
				t.Fatalf("fewer relays than deliveries: %+v", sum)
			}
		})
	}
}

// TestDeterministicScenario: the headline reproducibility guarantee — one
// (config, seed) pair yields bit-identical metrics.
func TestDeterministicScenario(t *testing.T) {
	s := tiny(EER)
	a, b := s.Run(), s.Run()
	if a != b {
		t.Fatalf("identical runs diverged:\n%+v\n%+v", a, b)
	}
	s.Seed = 99
	c := s.Run()
	if a == c {
		t.Error("different seeds produced identical metrics (suspicious)")
	}
}

func TestRWPScenario(t *testing.T) {
	s := tiny(Epidemic)
	s.Mobility = "rwp"
	s.Range = 50 // RWP over the full map needs a bigger range for contacts
	sum := s.Run()
	if sum.Contacts == 0 {
		t.Fatal("no contacts under random waypoint")
	}
}

func TestEpidemicDominatesDirectDelivery(t *testing.T) {
	// Sanity cross-protocol ordering: epidemic must deliver at least as
	// much as direct delivery on the same scenario and seeds.
	epi := RunAveraged(tiny(Epidemic), 2)
	dir := RunAveraged(tiny(Direct), 2)
	if epi.DeliveryRatio < dir.DeliveryRatio {
		t.Errorf("epidemic (%g) below direct delivery (%g)", epi.DeliveryRatio, dir.DeliveryRatio)
	}
	if dir.Relays != dir.Delivered {
		t.Errorf("direct delivery relays (%d) != deliveries (%d)", dir.Relays, dir.Delivered)
	}
}

func TestRunSeedsIndependent(t *testing.T) {
	sums := RunSeeds(tiny(SprayAndWait), Seeds(3))
	if len(sums) != 3 {
		t.Fatalf("got %d summaries", len(sums))
	}
	if sums[0] == sums[1] && sums[1] == sums[2] {
		t.Error("all seeds produced identical results (suspicious)")
	}
	// RunSeeds must match individual runs (parallelism must not leak
	// state).
	s := tiny(SprayAndWait)
	s.Seed = 2
	if got := s.Run(); got != sums[1] {
		t.Error("parallel seed run differs from sequential run")
	}
}

// tinySpec is tiny(p) as a spec, for the sweep path.
func tinySpec(p Protocol) ScenarioSpec {
	return ScenarioSpec{Protocol: ptr(string(p)), Nodes: ptr(24), Duration: ptr(1200.0), Tick: ptr(0.5)}
}

// TestSweepNodeAxisShape: a node axis yields one cell per count, in
// order, each labelled with and running at its count.
func TestSweepNodeAxisShape(t *testing.T) {
	res, err := RunSweep(nil, SweepSpec{Base: tinySpec(Direct), Nodes: []int{10, 20}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d cells, want 2", len(res))
	}
	for i, n := range []int{10, 20} {
		c := res[i].Cell
		if len(c.Axes) != 1 || c.Axes[0] != (AxisValue{Axis: "nodes", Value: strconv.Itoa(n)}) || *c.Spec.Nodes != n {
			t.Errorf("cell %d = %+v, want nodes=%d", i, c, n)
		}
		if len(res[i].PerSeed) != 1 || res[i].Mean.Generated == 0 {
			t.Errorf("cell %d ran nothing: %+v", i, res[i])
		}
	}
}

func TestRenderTableAndCSV(t *testing.T) {
	series := []Series{
		{Name: "A", Points: []Point{{X: 40, Summary: metrics.Summary{DeliveryRatio: 0.5, AvgLatency: 100, Goodput: 0.05}}}},
		{Name: "B", Points: []Point{{X: 40, Summary: metrics.Summary{DeliveryRatio: 0.7, AvgLatency: 90, Goodput: 0.02}}, {X: 80, Summary: metrics.Summary{DeliveryRatio: 0.8}}}},
	}
	var sb strings.Builder
	RenderTable(&sb, "Figure 2", "nodes", series, MetricDeliveryRatio)
	out := sb.String()
	for _, want := range []string{"Figure 2", "Delivery Ratio", "nodes", "A", "B", "0.500", "0.700", "40", "80", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	WriteCSV(&sb, "nodes", series, PaperMetrics)
	csv := sb.String()
	if !strings.Contains(csv, "40,A,Delivery_Ratio,0.500") {
		t.Errorf("csv missing rows:\n%s", csv)
	}
	if !strings.Contains(csv, "80,B,Goodput,0.0000") {
		t.Errorf("csv missing goodput row:\n%s", csv)
	}
}

func TestSweepLambdaRelays(t *testing.T) {
	res, err := RunSweep(nil, SweepSpec{Base: tinySpec(SprayAndWait), Lambda: []int{2, 6}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("cells = %d", len(res))
	}
	// More replicas must not reduce relays on identical traffic.
	if res[1].Mean.Relays < res[0].Mean.Relays {
		t.Error("λ=6 produced fewer relays than λ=2")
	}
}

func TestUnknownProtocolPanics(t *testing.T) {
	s := tiny("nope")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Run()
}

func TestQuickAndDefaultValid(t *testing.T) {
	if Default().Nodes < 2 || Quick().Nodes < 2 {
		t.Fatal("configs invalid")
	}
	if Default().Alpha != 0.28 || Default().Lambda != 10 {
		t.Error("paper defaults wrong")
	}
	if Default().TTL != 1200 || Default().BufBytes != 1<<20 {
		t.Error("paper defaults wrong")
	}
}
