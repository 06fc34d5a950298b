package experiment

import (
	"runtime"
	"testing"
)

// figureScaleScenario is a Figure-2-scale configuration heavy enough to
// exercise quota splits, single-copy forwarding, MI gossip and ack purges
// in every estimator-backed protocol.
func figureScaleScenario(p Protocol) Scenario {
	s := Default()
	s.Protocol = p
	s.Nodes = 40
	s.Duration = 1500
	s.Tick = 0.5
	return s
}

// TestSparseEstimatorParity is the storage-mode contract: at figure scale
// the sparse estimator core (observed-peer history/MI/probability rows,
// heap MEMD and cost Dijkstras) must produce bit-identical summaries to
// the dense core for every protocol that consumes it, including the A2
// ablation's store-only MD path. Only memory and complexity may differ
// between modes — never a routing decision.
func TestSparseEstimatorParity(t *testing.T) {
	if testing.Short() {
		t.Skip("8 figure-scale simulations in -short mode")
	}
	for _, p := range []Protocol{EER, CR, MaxProp, EERMeanMD} {
		t.Run(string(p), func(t *testing.T) {
			dense := figureScaleScenario(p)
			dense.SparseEstimators = false
			sparse := dense
			sparse.SparseEstimators = true
			want, got := dense.Run(), sparse.Run()
			if want != got {
				t.Fatalf("sparse diverged from dense:\n  dense  %+v\n  sparse %+v", want, got)
			}
		})
	}
}

// TestSparseAutoSelection pins the selection rule: explicit opt-in or the
// node-count threshold turns the sparse core on.
func TestSparseAutoSelection(t *testing.T) {
	s := Default()
	if s.sparseEstimators() {
		t.Error("figure-scale default should use the dense core")
	}
	s.SparseEstimators = true
	if !s.sparseEstimators() {
		t.Error("explicit SparseEstimators ignored")
	}
	s = CityScale()
	if s.Nodes < SparseNodeThreshold || !s.sparseEstimators() {
		t.Errorf("CityScale (%d nodes) must auto-select the sparse core", s.Nodes)
	}
}

// cityScaleShort returns the full 10k-node CityScale world with a short
// simulated window, sized for `go test` budgets.
func cityScaleShort(p Protocol, duration float64) Scenario {
	s := CityScale()
	s.Protocol = p
	s.Duration = duration
	return s
}

// TestCityScaleSmartProtocols is the acceptance gate of the sparse
// estimator core: the paper's contribution protocols (EER, CR) and
// MaxProp, previously unusable beyond a few hundred nodes, must tick a
// 10k-node city world. A short window keeps the test inside `go test`
// budgets; contacts at this density arrive within seconds.
func TestCityScaleSmartProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node worlds in -short mode")
	}
	for _, p := range []Protocol{EER, CR, MaxProp} {
		t.Run(string(p), func(t *testing.T) {
			s := cityScaleShort(p, 40)
			w, runner := s.Build()
			if w.N() < 10000 {
				t.Fatalf("city scale shrank: %d nodes", w.N())
			}
			runner.Run(s.Duration)
			sum := w.Metrics.Summary()
			if sum.Contacts == 0 {
				t.Fatal("no contacts in a 10k-node city window")
			}
			if sum.Generated == 0 {
				t.Fatal("no traffic generated")
			}
		})
	}
}

// TestCityScaleSparseEERMemory is the o(n²) regression gate: a 10k-node
// EER world must not allocate estimator state anywhere near n² entries.
// One dense float64 matrix alone would be 8·10⁸ B (800 MB) — and the dense
// core would need one per node. The bound below (40 KB/node on average)
// is two orders of magnitude under a single shared n² allocation while
// leaving room for the engine, buffers and early contact records.
func TestCityScaleSparseEERMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node world in -short mode")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := cityScaleShort(EER, 20)
	w, runner := s.Build()
	runner.Run(s.Duration) // tick a little so estimator state materialises
	runtime.GC()
	runtime.ReadMemStats(&after)
	delta := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	const limit = 400 << 20
	if delta > limit {
		t.Fatalf("sparse EER city world holds %d MB, over the %d MB o(n²) budget",
			delta>>20, int64(limit)>>20)
	}
	if w.N() < 10000 {
		t.Fatalf("city scale shrank: %d nodes", w.N())
	}
	runtime.KeepAlive(runner)
}

// TestFigureScaleEstimatorMemory is the dense-store memory gate: at the
// paper's 240 nodes, EER's MI matrices and MaxProp's probability rows must
// cost pointers per node, not an n×n float slab per node (~120 MB per
// world when every store copied every row). A Direct world over the same
// map and seed runs first, so the memoised map and its path cache are
// already in the heap before the measurement starts.
func TestFigureScaleEstimatorMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("240-node worlds in -short mode")
	}
	scenario := func(p Protocol) Scenario {
		s := Default()
		s.Protocol = p
		s.Nodes = 240
		s.Duration = 100
		return s
	}
	warm := scenario(Direct)
	_, wr := warm.Build()
	wr.Run(warm.Duration)
	for _, p := range []Protocol{EER, MaxProp} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := scenario(p)
		w, runner := s.Build()
		runner.Run(s.Duration)
		runtime.GC()
		runtime.ReadMemStats(&after)
		delta := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		const limit = 16 << 20
		t.Logf("%s: %d nodes hold %.1f MB after %g s", p, w.N(), float64(delta)/(1<<20), s.Duration)
		if delta > limit {
			t.Errorf("%s world holds %d MB, over the %d MB budget", p, delta>>20, int64(limit)>>20)
		}
		runtime.KeepAlive(runner)
	}
}

// TestFigureScaleCRAllocation is the CR contact-path allocation gate: a
// 240-node CR world (seed 2, 1000 s) must allocate at most 30 MB in
// total, Build included. Pooled contacts keep their EEV snapshot storage
// across recycling; building a fresh n-wide snapshot for each side of
// every contact allocated ~91 MB. The map is warmed by a Direct world
// first, as in TestFigureScaleEstimatorMemory.
func TestFigureScaleCRAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("240-node world in -short mode")
	}
	s := Default()
	s.Nodes = 240
	s.Duration = 1000
	s.Seed = 2
	warm := s
	warm.Protocol = Direct
	warm.Duration = 1
	_, wr := warm.Build()
	wr.Run(warm.Duration)
	s.Protocol = CR
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, runner := s.Build()
	runner.Run(s.Duration)
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	const limit = 30 << 20
	t.Logf("CR world allocated %.1f MB over %g s", float64(alloc)/(1<<20), s.Duration)
	if alloc > limit {
		t.Errorf("CR world allocated %d MB, over the %d MB budget", alloc>>20, limit>>20)
	}
}

// BenchmarkCityScaleSparse measures tick throughput of the 10k-node city
// world under the estimator-backed protocols the sparse core unlocked
// (CityScale's default SprayAndWait is covered by BenchmarkCityScale).
// CI's bench-smoke job runs the EER variant at one iteration so the sparse
// path cannot silently rot.
func BenchmarkCityScaleSparse(b *testing.B) {
	for _, p := range []Protocol{EER, CR, MaxProp} {
		b.Run(string(p), func(b *testing.B) {
			s := CityScale()
			s.Protocol = p
			w, runner := s.Build()
			runner.Run(5) // warm up: first contacts, wheel, scratch sizing
			start := runner.Now()
			b.ResetTimer()
			runner.Run(start + float64(b.N)*s.Tick)
			b.StopTimer()
			if w.N() < 10000 {
				b.Fatalf("city scale shrank: %d nodes", w.N())
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ticks/s")
		})
	}
}

// BenchmarkCityScaleBuild measures world construction, which the
// splitmix64-backed xrand made cheap: deriving one stream per node used to
// dominate 10k-node setup via math/rand's 607-word seeding.
func BenchmarkCityScaleBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := CityScale()
		w, _ := s.Build()
		if w.N() < 10000 {
			b.Fatal("city scale shrank")
		}
	}
}
