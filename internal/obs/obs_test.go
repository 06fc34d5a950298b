package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// A nil profiler must be inert: every method callable, zero results.
func TestNilProfilerIsSafe(t *testing.T) {
	var p *EngineProf
	st := p.Start()
	if st != 0 {
		t.Fatalf("nil Start = %d, want 0", st)
	}
	if got := p.Lap(PhaseMobility, st); got != 0 {
		t.Fatalf("nil Lap = %d, want 0", got)
	}
	p.TickDone()
	p.Exchange(st)
	p.EnsureShards(4)
	p.AddShardBusy(0, 100)
	if p.Timing() != nil {
		t.Fatal("nil Timing() should be nil")
	}
}

func TestPhaseStrings(t *testing.T) {
	seen := map[string]bool{}
	for ph := Phase(0); ph < NumPhases; ph++ {
		name := ph.String()
		if name == "" || strings.HasPrefix(name, "phase(") {
			t.Fatalf("phase %d has no name", ph)
		}
		if seen[name] {
			t.Fatalf("duplicate phase name %q", name)
		}
		seen[name] = true
	}
	if got := Phase(99).String(); got != "phase(99)" {
		t.Fatalf("out-of-range String = %q", got)
	}
	if n := len(PhaseNames()); n != int(NumPhases) {
		t.Fatalf("PhaseNames len = %d, want %d", n, NumPhases)
	}
}

func TestProfilerAccumulatesAndSnapshots(t *testing.T) {
	p := &EngineProf{}
	p.EnsureShards(2)
	for i := 0; i < 3; i++ {
		st := p.Start()
		st = p.Lap(PhaseMobility, st)
		p.Lap(PhaseScan, st)
		p.TickDone()
	}
	p.Exchange(Now() - 1e6) // book ~1ms of exchange
	p.AddShardBusy(0, 5e6)
	p.AddShardBusy(1, 3e6)
	p.AddShardBusy(7, 1e6) // out of range: dropped

	tm := p.Timing()
	if tm.Runs != 1 || tm.Ticks != 3 {
		t.Fatalf("runs/ticks = %d/%d, want 1/3", tm.Runs, tm.Ticks)
	}
	if len(tm.Phases) != int(NumPhases) {
		t.Fatalf("phases len = %d, want %d", len(tm.Phases), NumPhases)
	}
	if c := tm.Phases[PhaseMobility].Count; c != 3 {
		t.Fatalf("mobility count = %d, want 3", c)
	}
	if tm.ExchangeCount != 1 || tm.ExchangeSeconds <= 0 {
		t.Fatalf("exchange = %d / %v", tm.ExchangeCount, tm.ExchangeSeconds)
	}
	if len(tm.ShardBusySeconds) != 2 || tm.ShardBusySeconds[0] < tm.ShardBusySeconds[1] {
		t.Fatalf("shard busy = %v", tm.ShardBusySeconds)
	}
	var sum float64
	for _, ph := range tm.Phases {
		sum += ph.Seconds
	}
	if math.Abs(sum-tm.Seconds) > 1e-9 {
		t.Fatalf("Seconds %v != phase sum %v", tm.Seconds, sum)
	}
}

func TestMergeTiming(t *testing.T) {
	if MergeTiming(nil, nil) != nil {
		t.Fatal("merge of nils should be nil")
	}
	a := &Timing{Runs: 1, Ticks: 10, Seconds: 2,
		Phases:          []PhaseTiming{{Phase: "mobility", Seconds: 2, Count: 10}},
		ExchangeSeconds: 0.5, ExchangeCount: 4, ShardBusySeconds: []float64{1, 2}}
	b := &Timing{Runs: 2, Ticks: 5, Seconds: 1,
		Phases:          []PhaseTiming{{Phase: "mobility", Seconds: 0.5, Count: 5}, {Phase: "scan", Seconds: 0.5, Count: 5}},
		ExchangeSeconds: 0.25, ExchangeCount: 2, ShardBusySeconds: []float64{1, 1, 1}}
	m := MergeTiming(a, b)
	if m.Runs != 3 || m.Ticks != 15 || m.Seconds != 3 {
		t.Fatalf("merged header = %+v", m)
	}
	if m.PhaseSeconds("mobility") != 2.5 || m.PhaseSeconds("scan") != 0.5 {
		t.Fatalf("merged phases = %+v", m.Phases)
	}
	if m.ExchangeCount != 6 || m.ExchangeSeconds != 0.75 {
		t.Fatalf("merged exchange = %+v", m)
	}
	want := []float64{2, 3, 1}
	for i, s := range m.ShardBusySeconds {
		if s != want[i] {
			t.Fatalf("merged shard busy = %v, want %v", m.ShardBusySeconds, want)
		}
	}
	// One-sided merge copies rather than aliases.
	one := MergeTiming(a, nil)
	one.Phases[0].Seconds = 99
	if a.Phases[0].Seconds == 99 {
		t.Fatal("merge aliased input phase slice")
	}
}

func TestReport(t *testing.T) {
	tm := &Timing{Runs: 2, Ticks: 100, Seconds: 1.5,
		Phases: []PhaseTiming{
			{Phase: "mobility", Seconds: 1.0, Count: 100},
			{Phase: "scan", Seconds: 0.5, Count: 100},
			{Phase: "merge"}, // zero: omitted from the table
		},
		ExchangeSeconds: 0.1, ExchangeCount: 42,
		ShardBusySeconds: []float64{0.7, 0.5}}
	var sb strings.Builder
	tm.Report(&sb)
	out := sb.String()
	for _, want := range []string{"mobility", "scan", "66.7%", "routing exchange", "imbalance"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "merge") {
		t.Fatalf("report should omit zero phases:\n%s", out)
	}
	// One worker has no imbalance: neither a one-entry table nor an
	// all-zero one prints a busy line.
	for _, busy := range [][]float64{{0.7}, {0, 0}} {
		tm.ShardBusySeconds = busy
		var ob strings.Builder
		tm.Report(&ob)
		if strings.Contains(ob.String(), "shard busy") {
			t.Fatalf("busy table %v printed a busy line:\n%s", busy, ob.String())
		}
	}
	var nb strings.Builder
	(*Timing)(nil).Report(&nb)
	if !strings.Contains(nb.String(), "not profiled") {
		t.Fatalf("nil report = %q", nb.String())
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || h.Count() != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	wantCounts := []int64{1, 2, 1, 1}
	for i, c := range s.Counts {
		if c != wantCounts[i] {
			t.Fatalf("counts = %v, want %v", s.Counts, wantCounts)
		}
	}
	if math.Abs(s.Sum-5.605) > 1e-9 {
		t.Fatalf("sum = %v", s.Sum)
	}
	// Boundary value lands in its own bucket (le is inclusive).
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(1)
	if s2 := h2.Snapshot(); s2.Counts[0] != 1 {
		t.Fatalf("boundary obs fell in bucket %v", s2.Counts)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(DefaultDurationBuckets())
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%50) / 1000)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var bucketSum int64
	for _, c := range s.Counts {
		bucketSum += c
	}
	if bucketSum != workers*per {
		t.Fatalf("bucket sum = %d, want %d", bucketSum, workers*per)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{0.1, 0.2, 0.4})
	for i := 0; i < 100; i++ {
		h.Observe(0.15) // all in (0.1, 0.2]
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); q <= 0.1 || q > 0.2 {
		t.Fatalf("p50 = %v, want within (0.1, 0.2]", q)
	}
	h.Observe(9) // +Inf bucket
	if q := h.Snapshot().Quantile(1.0); q != 0.4 {
		t.Fatalf("p100 with overflow = %v, want last bound", q)
	}
	if q := (HistogramSnapshot{Bounds: []float64{1}, Counts: []int64{0, 0}}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
}

func TestNewHistogramValidates(t *testing.T) {
	for _, bad := range [][]float64{{2, 1}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewHistogram(%v) did not panic", bad)
				}
			}()
			NewHistogram(bad)
		}()
	}
}

func BenchmarkDisabledLap(b *testing.B) {
	var p *EngineProf
	st := p.Start()
	for i := 0; i < b.N; i++ {
		st = p.Lap(PhaseMobility, st)
	}
}

func BenchmarkEnabledLap(b *testing.B) {
	p := &EngineProf{}
	st := p.Start()
	for i := 0; i < b.N; i++ {
		st = p.Lap(PhaseMobility, st)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(DefaultDurationBuckets())
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.042)
		}
	})
}
