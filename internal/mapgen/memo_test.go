package mapgen

import (
	"sync"
	"testing"
)

// TestLoadMemoisesAcrossConcurrentCallers proves Load returns one shared
// RoadMap per (Config, seed) even under a thundering herd (run with -race
// in CI), distinct maps for distinct keys, and content identical to a
// fresh Generate.
func TestLoadMemoisesAcrossConcurrentCallers(t *testing.T) {
	cfg := DefaultConfig()
	const seed = 9731 // private to this test so prior Loads can't pre-seed it

	const callers = 16
	got := make([]*RoadMap, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = Load(cfg, seed)
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d received a different RoadMap instance", i)
		}
	}

	if other := Load(cfg, seed+1); other == got[0] {
		t.Fatal("different seed returned the same RoadMap")
	}
	cfg2 := cfg
	cfg2.Lines++
	if other := Load(cfg2, seed); other == got[0] {
		t.Fatal("different config returned the same RoadMap")
	}

	// The memoised map is what Generate would have built.
	fresh := Generate(cfg, seed)
	rm := got[0]
	if fresh == rm {
		t.Fatal("Generate returned the memoised instance")
	}
	if fresh.Graph.N() != rm.Graph.N() || len(fresh.Lines) != len(rm.Lines) || len(fresh.Points) != len(rm.Points) {
		t.Fatalf("memoised map differs from fresh generation: %d/%d vertices, %d/%d lines",
			rm.Graph.N(), fresh.Graph.N(), len(rm.Lines), len(fresh.Lines))
	}
	for i := range fresh.Points {
		if fresh.Points[i] != rm.Points[i] {
			t.Fatalf("vertex %d differs: %v vs %v", i, rm.Points[i], fresh.Points[i])
		}
	}
	for i := range fresh.Lines {
		if len(fresh.Lines[i].Stops) != len(rm.Lines[i].Stops) {
			t.Fatalf("line %d stop count differs", i)
		}
		for j := range fresh.Lines[i].Stops {
			if fresh.Lines[i].Stops[j] != rm.Lines[i].Stops[j] {
				t.Fatalf("line %d stop %d differs", i, j)
			}
		}
	}
}

// TestLoadSharedPathCacheConcurrent drives concurrent LegPath queries on
// one memoised map — the exact access pattern of pooled simulations and
// shard workers sharing a road map.
func TestLoadSharedPathCacheConcurrent(t *testing.T) {
	rm := Load(DefaultConfig(), 9732)
	line := rm.Lines[0]
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				for s := range line.Stops {
					a := line.Stops[s]
					b := line.Stops[(s+1)%len(line.Stops)]
					pts := rm.LegPath(a, b)
					if len(pts) < 1 {
						t.Errorf("empty leg path %d-%d", a, b)
						return
					}
					if pts[0] != rm.Points[a] || pts[len(pts)-1] != rm.Points[b] {
						t.Errorf("leg path %d-%d endpoints wrong", a, b)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestLoadForgetsPastCap: the registry holds at most memoCap maps. Past
// the cap the oldest key is forgotten and regenerated on its next load,
// while recent keys keep their shared instance.
func TestLoadForgetsPastCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GridX, cfg.GridY = 4, 4 // small maps: this test generates many
	const seed = 51000          // private to this test
	first := Load(cfg, seed)
	var last *RoadMap
	for i := 1; i <= memoCap; i++ {
		last = Load(cfg, seed+int64(i))
	}
	memo.mu.Lock()
	size := len(memo.m)
	memo.mu.Unlock()
	if size > memoCap {
		t.Fatalf("memo holds %d maps, cap %d", size, memoCap)
	}
	if Load(cfg, seed+memoCap) != last {
		t.Fatal("most recent map was not kept")
	}
	if again := Load(cfg, seed); again == first {
		t.Fatal("oldest map survived past the cap")
	} else if len(again.Points) != len(first.Points) || again.Lines[0].Stops[0] != first.Lines[0].Stops[0] {
		t.Fatal("regenerated map differs from the forgotten one")
	}
}
