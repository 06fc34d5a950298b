package experiment

import "testing"

// TestQuickScenarioDeterminism proves two identical runs of the quick
// scenario produce bit-identical summaries — the invariant the incremental
// contact engine, event freelist and worker pool must all preserve.
func TestQuickScenarioDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full Quick runs in -short mode")
	}
	s := Quick()
	a := s.Run()
	b := s.Run()
	if a != b {
		t.Fatalf("same-seed runs diverged:\n  first  %+v\n  second %+v", a, b)
	}
}

// TestRunSeedsDeterministicOrder proves pooled parallel execution returns
// summaries by input index with per-job results independent of worker
// scheduling.
func TestRunSeedsDeterministicOrder(t *testing.T) {
	s := Quick()
	s.Nodes = 20
	s.Duration = 400
	seeds := []int64{3, 1, 2}
	first := RunSeeds(s, seeds)
	second := RunSeeds(s, seeds)
	if len(first) != len(seeds) {
		t.Fatalf("got %d summaries", len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("seed %d diverged across batches", seeds[i])
		}
	}
	// Seed order in the input must map to output order: running one seed
	// alone must match its batched slot.
	s.Seed = seeds[1]
	solo := s.Run()
	if first[1] != solo {
		t.Fatalf("batched seed %d != solo run", seeds[1])
	}
}
