package network

import (
	"fmt"
	"testing"

	"repro/internal/buffer"
	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// randWalk is a bounded random-walk mover: each tick it steps up to
// maxStep metres in a random direction inside a rect that may span
// negative coordinates. Its speed respects maxStep/dt, which lets tests
// exercise the conservative re-check scheduler with a true bound.
type randWalk struct {
	pos     geo.Point
	rect    geo.Rect
	maxStep float64
	rng     *xrand.Source
}

func (m *randWalk) Pos() geo.Point { return m.pos }
func (m *randWalk) Step(dt float64) geo.Point {
	dx := m.rng.Uniform(-m.maxStep, m.maxStep)
	dy := m.rng.Uniform(-m.maxStep, m.maxStep)
	m.pos = m.rect.Clamp(geo.Point{X: m.pos.X + dx, Y: m.pos.Y + dy})
	return m.pos
}

// bruteForcePairs returns the naive O(N²) in-range pair set.
func bruteForcePairs(w *World) map[[2]int32]bool {
	r2 := w.cfg.Range * w.cfg.Range
	want := map[[2]int32]bool{}
	nodes := w.Nodes()
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			if nodes[i].Pos().Dist2(nodes[j].Pos()) <= r2 {
				want[[2]int32{int32(i), int32(j)}] = true
			}
		}
	}
	return want
}

// linkPairs returns the engine's active contact pair set.
func linkPairs(w *World) map[[2]int32]bool {
	got := map[[2]int32]bool{}
	for _, l := range w.linkList {
		got[[2]int32{int32(l.a.ID), int32(l.b.ID)}] = true
	}
	return got
}

func comparePairSets(t *testing.T, tick int, want, got map[[2]int32]bool) {
	t.Helper()
	for p := range want {
		if !got[p] {
			t.Fatalf("tick %d: engine missed in-range pair %v", tick, p)
		}
	}
	for p := range got {
		if !want[p] {
			t.Fatalf("tick %d: engine reports out-of-range pair %v", tick, p)
		}
	}
}

// buildParityWorld places n random walkers in a rect spanning negative
// coordinates, dense enough that contacts constantly form and break.
func buildParityWorld(t *testing.T, cfg Config, n int, maxStep float64, seed int64) (*World, *sim.Runner) {
	t.Helper()
	runner := sim.NewRunner(1)
	w := New(cfg, runner)
	rect := geo.NewRect(geo.Point{X: -120, Y: -90}, geo.Point{X: 140, Y: 110})
	root := xrand.New(seed)
	for i := 0; i < n; i++ {
		rng := root.Derive(fmt.Sprintf("walker-%d", i))
		start := geo.Point{
			X: rng.Uniform(rect.Min.X, rect.Max.X),
			Y: rng.Uniform(rect.Min.Y, rect.Max.Y),
		}
		mv := &randWalk{pos: start, rect: rect, maxStep: maxStep, rng: rng}
		w.AddNode(mv, buffer.New(0), &probe{})
	}
	w.Start()
	return w, runner
}

// TestIncrementalGridParityRandomized proves the incremental grid plus
// re-check scheduler reproduces the naive O(N²) in-range pair set exactly,
// tick by tick, over randomized motion crossing negative coordinates.
func TestIncrementalGridParityRandomized(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		step float64
	}{
		// MaxSpeed 0: every tracked pair re-checked every tick.
		{"noSpeedBound", Config{Range: 10, Bandwidth: 1000}, 9},
		// MaxSpeed set: conservative skips active. maxStep 4 at dt 1 s
		// means per-axis speed <= 4, so euclidean speed <= 4·sqrt(2) < 6.
		{"speedBound", Config{Range: 10, Bandwidth: 1000, MaxSpeed: 6}, 4},
		// Large steps relative to the 10 m cells: nodes hop several cells
		// per tick, stressing discovery via cell-change rescans.
		{"cellHopping", Config{Range: 10, Bandwidth: 1000}, 35},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, runner := buildParityWorld(t, tc.cfg, 60, tc.step, 7)
			for tick := 1; tick <= 400; tick++ {
				runner.Run(float64(tick))
				comparePairSets(t, tick, bruteForcePairs(w), linkPairs(w))
				checkGrid(t, &w.grid)
			}
		})
	}
}

// TestIncrementalGridParityTeleport stresses the scheduler with movers
// that jump arbitrarily far in one tick — the worst case for incremental
// tracking (no speed bound configured, so no skip may be unsafe).
func TestIncrementalGridParityTeleport(t *testing.T) {
	runner := sim.NewRunner(1)
	w := New(Config{Range: 10, Bandwidth: 1000}, runner)
	root := xrand.New(11)
	for i := 0; i < 40; i++ {
		rng := root.Derive(fmt.Sprintf("tp-%d", i))
		mv := &teleporter{rng: rng}
		mv.Step(0)
		w.AddNode(mv, buffer.New(0), &probe{})
	}
	w.Start()
	for tick := 1; tick <= 300; tick++ {
		runner.Run(float64(tick))
		comparePairSets(t, tick, bruteForcePairs(w), linkPairs(w))
		checkGrid(t, &w.grid)
	}
}

// teleporter jumps to a uniformly random point in a small arena each
// tick, so far pairs can be in range one tick later.
type teleporter struct {
	pos geo.Point
	rng *xrand.Source
}

func (m *teleporter) Pos() geo.Point { return m.pos }
func (m *teleporter) Step(float64) geo.Point {
	m.pos = geo.Point{X: m.rng.Uniform(-40, 40), Y: m.rng.Uniform(-40, 40)}
	return m.pos
}

// TestUpdateContactsZeroAllocSteadyState proves the contact path ticks
// with zero steady-state heap allocations, both for a static fleet and for
// one whose nodes cross a cell boundary every tick (each crossing deletes
// a bucket and creates one, so spare node arrays must be recycled). Shards
// 0 and 1 both run the pipeline with one worker inline, which must build
// no per-tick closures or goroutines.
func TestUpdateContactsZeroAllocSteadyState(t *testing.T) {
	fleets := []struct {
		name string
		add  func(w *World)
	}{
		{"static", func(w *World) {
			// A grid of stationary nodes, some in range of each other.
			for i := 0; i < 30; i++ {
				x := float64(i%6) * 7
				y := float64(i/6) * 7
				w.AddNode(fixed(x, y), buffer.New(0), &probe{})
			}
		}},
		{"moving", func(w *World) {
			// Nodes 20 m apart, each hopping ±2 m across a cell boundary
			// every tick (half of them in antiphase): neighbouring cells
			// stay occupied, so pairs are tracked and re-checked, but no
			// two nodes ever come within 16 m, so no link (an allocation)
			// ever forms.
			for i := 0; i < 36; i++ {
				x0 := float64(i%6) * 20
				y0 := float64(i/6)*20 + 5
				phase := float64(i % 2)
				w.AddNode(&scriptMover{at: func(tt float64) geo.Point {
					if int(tt+phase)%2 == 0 {
						return geo.Point{X: x0 - 2, Y: y0}
					}
					return geo.Point{X: x0 + 2, Y: y0}
				}}, buffer.New(0), &probe{})
			}
		}},
	}
	for _, fl := range fleets {
		t.Run(fl.name, func(t *testing.T) {
			for _, shards := range []int{0, 1} {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					w := New(Config{Range: 10, Bandwidth: 1000, Shards: shards}, sim.NewRunner(1))
					fl.add(w)
					w.Start()
					assertZeroAllocTicks(t, w)
					if fl.name == "moving" && w.Metrics.Summary().Contacts != 0 {
						t.Fatalf("fleet formed %d contacts, want none", w.Metrics.Summary().Contacts)
					}
				})
			}
		})
	}
}

// assertZeroAllocTicks warms w up (first ticks insert nodes, establish
// contacts and size the wheel, scratch buffers and spare arrays) and then
// requires ticks to allocate nothing.
func assertZeroAllocTicks(t *testing.T, w *World) {
	t.Helper()
	tick := 0.0
	for i := 0; i < wheelSize*2; i++ {
		tick++
		w.Tick(tick)
	}
	allocs := testing.AllocsPerRun(200, func() {
		tick++
		w.Tick(tick)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Tick allocates %.1f objects per tick, want 0", allocs)
	}
}

// TestPairSetModes exercises both pairSet representations.
func TestPairSetModes(t *testing.T) {
	for _, n := range []int{100, pairSetBitsetLimit + 1} {
		var s pairSet
		s.init(n)
		if !s.add(3, 77) {
			t.Fatal("first add reported duplicate")
		}
		if s.add(3, 77) {
			t.Fatal("duplicate add reported new")
		}
		s.remove(3, 77)
		if !s.add(3, 77) {
			t.Fatal("add after remove reported duplicate")
		}
	}
}

// TestGridGrowthAndReclaim checks that a table sizes to the cells that
// are occupied now, not to every cell ever visited, and that contacts
// survive table growth.
func TestGridGrowthAndReclaim(t *testing.T) {
	t.Run("sweepStaysSmall", func(t *testing.T) {
		// One node visits a fresh distant cell every tick: each visit
		// creates a bucket and deletes the previous one, so the table
		// never holds more than three cells and keeps its initial size.
		runner := sim.NewRunner(1)
		w := New(Config{Range: 10, Bandwidth: 1000}, runner)
		sweepMover := &scriptMover{at: func(tt float64) geo.Point {
			return geo.Point{X: 25 * tt, Y: -60 * tt}
		}}
		w.AddNode(sweepMover, buffer.New(0), &probe{})
		w.AddNode(fixed(3, 3), buffer.New(0), &probe{})
		w.AddNode(fixed(6, 3), buffer.New(0), &probe{})
		w.Start()
		for tick := 1; tick <= 800; tick++ {
			runner.Run(float64(tick))
			if len(w.linkList) != 1 {
				t.Fatalf("tick %d: pinned contact lost (links=%d)", tick, len(w.linkList))
			}
		}
		checkGrid(t, &w.grid)
		if got := len(w.grid.tables[0].slots); got != gridInitialSlots {
			t.Fatalf("table has %d slots after the sweep, want its initial %d", got, gridInitialSlots)
		}
	})
	t.Run("distinctCellsGrow", func(t *testing.T) {
		// 240 nodes on a 15 m lattice, each alone in its cell, drift
		// diagonally: more than a quarter of 256 slots is occupied, so
		// the table must grow while the pinned pair stays in contact.
		runner := sim.NewRunner(1)
		w := New(Config{Range: 10, Bandwidth: 1000}, runner)
		w.AddNode(fixed(-3, -3), buffer.New(0), &probe{})
		w.AddNode(fixed(-6, -3), buffer.New(0), &probe{})
		for i := 0; i < 240; i++ {
			x0 := float64(i%16) * 15
			y0 := float64(i/16) * 15
			w.AddNode(&scriptMover{at: func(tt float64) geo.Point {
				return geo.Point{X: x0 + 0.7*tt, Y: y0 + 0.3*tt}
			}}, buffer.New(0), &probe{})
		}
		w.Start()
		pinned := [2]int32{0, 1}
		for tick := 1; tick <= 60; tick++ {
			runner.Run(float64(tick))
			got := linkPairs(w)
			if !got[pinned] {
				t.Fatalf("tick %d: pinned contact lost", tick)
			}
			comparePairSets(t, tick, bruteForcePairs(w), got)
			checkGrid(t, &w.grid)
		}
		if got := len(w.grid.tables[0].slots); got <= gridInitialSlots {
			t.Fatalf("table never grew: %d slots for %d occupied cells", got, w.grid.tables[0].used)
		}
	})
}

// TestGridMemoryLinearInNodes drives a city-density walker fleet long
// enough for every node to visit dozens of cells and requires the tables
// to stay sized to the fleet (at most 8 slots per node), not to the cells
// the fleet has ever visited. The fleet would derive 40 m cells, in which
// a walker visits only a handful, so the test pins cells of one radio
// range.
func TestGridMemoryLinearInNodes(t *testing.T) {
	const n = 5000
	w, runner := walkerWorld(n, 3)
	forceCell(w, 1)
	runner.Run(150) // 300 ticks of 0.5 s
	slots := 0
	for r := range w.grid.tables {
		slots += len(w.grid.tables[r].slots)
	}
	if slots > 8*n {
		t.Fatalf("grid holds %d slots for %d nodes, want at most %d", slots, n, 8*n)
	}
	checkGrid(t, &w.grid)
}

// checkGrid verifies the grid's structural invariants: every placed node
// sits exactly once in the bucket of its cellOf cell, in that cell's
// region table; every bucket is in the right region, ascending and holds
// only nodes placed in its cell; and each table passes checkSlots.
func checkGrid(t testing.TB, g *cellGrid) {
	t.Helper()
	placed := 0
	for i, key := range g.cellOf {
		if !g.placed[i] {
			continue
		}
		placed++
		seen := 0
		for _, id := range g.tables[g.regionOfKey(key)].lookup(key) {
			if id == int32(i) {
				seen++
			}
		}
		if seen != 1 {
			t.Fatalf("node %d appears %d times in the bucket of its cell %#x", i, seen, key)
		}
	}
	entries := 0
	for r := range g.tables {
		for _, s := range checkSlots(t, &g.tables[r]) {
			entries += len(s.nodes)
			if g.regionOfKey(s.key) != r {
				t.Fatalf("cell %#x bucketed in region %d, belongs to %d", s.key, r, g.regionOfKey(s.key))
			}
			for k, id := range s.nodes {
				if k > 0 && s.nodes[k-1] >= id {
					t.Fatalf("region %d: bucket %#x not ascending: %v", r, s.key, s.nodes)
				}
				if !g.placed[id] || g.cellOf[id] != s.key {
					t.Fatalf("node %d bucketed in cell %#x, recorded in %#x", id, s.key, g.cellOf[id])
				}
			}
		}
	}
	if entries != placed {
		t.Fatalf("buckets hold %d entries for %d placed nodes", entries, placed)
	}
}

// checkSlots verifies one table's own invariants — free slots zeroed,
// every occupied slot reachable by findSlot from its home, used equal to
// the occupied count, spare arrays empty — and returns the occupied slots.
func checkSlots(t testing.TB, tb *gridTable) []gridSlot {
	t.Helper()
	var occupied []gridSlot
	for j, s := range tb.slots {
		if len(s.nodes) == 0 {
			if s.nodes != nil || s.key != 0 {
				t.Fatalf("free slot %d not zeroed", j)
			}
			continue
		}
		occupied = append(occupied, s)
		if got := tb.findSlot(s.key); got != uint32(j) {
			t.Fatalf("cell %#x at slot %d but findSlot reaches %d", s.key, j, got)
		}
	}
	if len(occupied) != tb.used {
		t.Fatalf("used = %d, %d slots occupied", tb.used, len(occupied))
	}
	for _, a := range tb.spare {
		if len(a) != 0 {
			t.Fatalf("spare array holds %v", a)
		}
	}
	return occupied
}

// forceCell sets w's grid cell to mult radio ranges. Like w.grid.stripe,
// it must run before the first tick buckets anything.
func forceCell(w *World, mult float64) {
	w.grid.cell = mult * w.cfg.Range
}

// cellMults are the cell edges, in radio ranges, the enlarged-cell parity
// suite forces: the radio range itself, the smallest enlargement and the
// largest World.cellSize can pick.
var cellMults = []float64{1, 2, 8}

// TestGridParityEnlargedCells runs the naive O(N²) parity check at every
// cell in cellMults for every shard count, on the mixed-motion world (no
// speed bound, teleports) and on the speed-bounded walker world. Larger
// cells must change nothing observable: every run must match the
// one-worker run at c = R in metrics, contact callback order and link
// order.
func TestGridParityEnlargedCells(t *testing.T) {
	worlds := []struct {
		name  string
		build func(shards int) (*World, *sim.Runner, []*probe)
		run   func(t *testing.T, w *World, runner *sim.Runner)
	}{
		{"mixed", func(shards int) (*World, *sim.Runner, []*probe) {
			return buildMixedWorld(Config{Range: 10, Bandwidth: 1000, Shards: shards}, 17)
		}, func(t *testing.T, w *World, runner *sim.Runner) {
			runMixed(t, w, runner, 200)
		}},
		{"speedBound", func(shards int) (*World, *sim.Runner, []*probe) {
			w, runner := buildParityWorld(t, Config{Range: 10, Bandwidth: 1000, MaxSpeed: 6, Shards: shards}, 60, 4, 23)
			var probes []*probe
			for _, n := range w.Nodes() {
				probes = append(probes, n.Router.(*probe))
			}
			return w, runner, probes
		}, func(t *testing.T, w *World, runner *sim.Runner) {
			for tick := 1; tick <= 250; tick++ {
				runner.Run(float64(tick))
				comparePairSets(t, tick, bruteForcePairs(w), linkPairs(w))
				checkGrid(t, &w.grid)
			}
		}},
	}
	for _, wc := range worlds {
		t.Run(wc.name, func(t *testing.T) {
			var ref shardTrace
			for _, mult := range cellMults {
				for _, shards := range shardCounts {
					t.Run(fmt.Sprintf("cell=%gR/shards=%d", mult, shards), func(t *testing.T) {
						w, runner, probes := wc.build(shards)
						forceCell(w, mult)
						wc.run(t, w, runner)
						tr := traceOf(w, probes)
						if mult == 1 && shards == shardCounts[0] {
							ref = tr
							return
						}
						compareTraces(t, shards, ref, tr)
					})
				}
			}
		})
	}
}

// TestCellSizeRule pins World.cellSize: a sparse, speed-bounded fleet
// gets the largest cell, and the radio range stays the cell without a
// speed bound, past the pair bitset, and for a dense cluster — even one
// with a far-away outlier, which would inflate a bounding-box rule.
func TestCellSizeRule(t *testing.T) {
	world := func(maxSpeed float64, pts []geo.Point) *World {
		w := New(Config{Range: 10, Bandwidth: 1000, MaxSpeed: maxSpeed}, sim.NewRunner(1))
		for _, p := range pts {
			w.AddNode(fixed(p.X, p.Y), buffer.New(0), &probe{})
		}
		return w
	}
	lattice := func(n int, spacing float64) []geo.Point {
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Point{X: float64(i%100) * spacing, Y: float64(i/100) * spacing}
		}
		return pts
	}
	cluster := lattice(50, 1) // 50 nodes within 50 m x 1 m
	outlier := append(append([]geo.Point(nil), cluster...), geo.Point{X: 10000, Y: 10000})
	for _, tc := range []struct {
		name     string
		maxSpeed float64
		pts      []geo.Point
		want     float64
	}{
		{"sparse", 10, lattice(100, 500), 80},
		{"noSpeedBound", 0, lattice(100, 500), 10},
		{"pastBitset", 10, lattice(pairSetBitsetLimit+1, 500), 10},
		{"cluster", 10, cluster, 10},
		{"clusterOutlier", 10, outlier, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := world(tc.maxSpeed, tc.pts).cellSize(); got != tc.want {
				t.Fatalf("cellSize = %g m, want %g m", got, tc.want)
			}
		})
	}
}
