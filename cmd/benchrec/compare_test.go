package main

import (
	"bytes"
	"strings"
	"testing"
)

// synthetic returns n runs evenly spread over base·(1 ± spread/2).
func synthetic(base, spread float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = base * (1 + spread*(float64(i)/float64(n-1)-0.5))
	}
	return xs
}

func pairsOf(a, b []float64) [][2]float64 {
	p := make([][2]float64, len(a))
	for i := range a {
		p[i] = [2]float64{a[i], b[i]}
	}
	return p
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_ms", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "throughput", Better: "higher", Bound: 0.1}
	// rotate reorders B so that pairs are not trivially sorted alike.
	rotate := func(xs []float64) []float64 { return append(append([]float64(nil), xs[3:]...), xs[:3]...) }
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"faster", lower, synthetic(100, 0.02, 10), synthetic(80, 0.02, 10), verdictBetter},
		{"slower beyond bound", lower, synthetic(100, 0.02, 10), synthetic(120, 0.02, 10), verdictWorse},
		{"slower within bound", lower, synthetic(100, 0.02, 10), rotate(synthetic(104, 0.02, 10)), verdictWithin},
		{"same", lower, synthetic(100, 0.02, 10), rotate(synthetic(100, 0.02, 10)), verdictWithin},
		{"too noisy to tell", lower, synthetic(100, 0.6, 10), rotate(synthetic(103, 0.6, 10)), verdictUnresolved},
		{"noisy but every run better", lower, synthetic(130, 0.3, 10), synthetic(70, 0.3, 10), verdictBetter},
		{"higher is better", higher, synthetic(100, 0.02, 10), synthetic(120, 0.02, 10), verdictBetter},
		{"higher is better, dropped", higher, synthetic(100, 0.02, 10), synthetic(85, 0.02, 10), verdictWorse},
		{"small gain, not 9 in 10 wins", lower, synthetic(100, 0.04, 10), rotate(synthetic(99, 0.04, 10)), verdictWithin},
	} {
		got, _ := verdict(c.def, c.a, c.b, pairsOf(c.a, c.b))
		if got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareReportsVerdictsAndStampDifferences(t *testing.T) {
	spec, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed int64, opMs float64, cpu string) *runFile {
		st := envStamp()
		st.CPUModel = cpu
		return &runFile{Workload: "city-live", Seed: seed, Stamp: st, Correct: true, Attempted: 1,
			Metrics: map[string]metricValue{"op_ms": {Value: opMs, Unit: "ms"}}}
	}
	a := &resultSet{dir: "base"}
	b := &resultSet{dir: "change"}
	for s := int64(1); s <= 10; s++ {
		a.files = append(a.files, mk(s, 100+float64(s), "cpu A"))
		b.files = append(b.files, mk(s, 70+float64(s), "cpu B"))
	}
	var out bytes.Buffer
	if err := compare(spec, a, b, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	var row string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "city-live") && strings.Contains(line, "op_ms") {
			row = line
		}
	}
	if !strings.Contains(row, "100% of 10") || !strings.HasSuffix(strings.TrimSpace(row), verdictBetter) {
		t.Errorf("op_ms row %q: want 10 of 10 pair wins and verdict %q", row, verdictBetter)
	}
	if !strings.Contains(text, "WARNING") || !strings.Contains(text, "cpu_model: cpu A vs cpu B") {
		t.Errorf("differing CPU models not flagged:\n%s", text)
	}
}
