package network

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/buffer"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// Shard-count parity: Config.Shards must never change simulation results
// — not the metrics, not the set of contacts, and not the order in which
// contact callbacks fire. These tests rebuild identical randomized worlds
// per shard count, check each one's contact set against the brute-force
// all-pairs oracle every tick, and compare everything observable across
// counts.

// shardCounts are the configurations the parity suite sweeps: one worker
// (0 and 1, both inline on the caller) and two multi-worker counts. Each
// run is compared with the first.
var shardCounts = []int{0, 1, 2, 8}

// shardTrace is everything observable about one run: the final metrics
// snapshot, each node's contact callback sequences, and the final active
// link list in establishment order.
type shardTrace struct {
	summary    string
	ups, downs [][]int
	links      [][2]int32
}

func traceOf(w *World, probes []*probe) shardTrace {
	tr := shardTrace{summary: fmt.Sprintf("%+v", w.Metrics.Summary())}
	for _, p := range probes {
		tr.ups = append(tr.ups, append([]int(nil), p.ups...))
		tr.downs = append(tr.downs, append([]int(nil), p.downs...))
	}
	for _, l := range w.linkList {
		tr.links = append(tr.links, [2]int32{int32(l.a.ID), int32(l.b.ID)})
	}
	return tr
}

// compareTraces fails unless the run with got shards traced exactly what
// the reference run (shardCounts[0] workers) did.
func compareTraces(t *testing.T, shards int, want, got shardTrace) {
	t.Helper()
	ref := fmt.Sprintf("shards=%d", shardCounts[0])
	run := fmt.Sprintf("shards=%d", shards)
	if want.summary != got.summary {
		t.Fatalf("%s: summary diverged\n  %-8s %s\n  %-8s %s", run, ref, want.summary, run, got.summary)
	}
	if len(want.ups) != len(got.ups) {
		t.Fatalf("%s: node count diverged", run)
	}
	for i := range want.ups {
		if !equalInts(want.ups[i], got.ups[i]) {
			t.Fatalf("%s: node %d ContactUp order diverged\n  %-8s %v\n  %-8s %v", run, i, ref, want.ups[i], run, got.ups[i])
		}
		if !equalInts(want.downs[i], got.downs[i]) {
			t.Fatalf("%s: node %d ContactDown order diverged\n  %-8s %v\n  %-8s %v", run, i, ref, want.downs[i], run, got.downs[i])
		}
	}
	if len(want.links) != len(got.links) {
		t.Fatalf("%s: link count diverged: %d vs %d", run, len(want.links), len(got.links))
	}
	for i := range want.links {
		if want.links[i] != got.links[i] {
			t.Fatalf("%s: link list order diverged at %d: %v vs %v", run, i, want.links[i], got.links[i])
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// buildMixedWorld assembles a world of random walkers, teleporters and
// stationary nodes in a rect spanning negative coordinates — the motion
// mix that stresses every discovery path of the broad phase.
func buildMixedWorld(cfg Config, seed int64) (*World, *sim.Runner, []*probe) {
	runner := sim.NewRunner(1)
	w := New(cfg, runner)
	rect := geo.NewRect(geo.Point{X: -130, Y: -70}, geo.Point{X: 110, Y: 90})
	root := xrand.New(seed)
	var probes []*probe
	add := func(mv interface {
		Pos() geo.Point
		Step(float64) geo.Point
	}) {
		p := &probe{}
		probes = append(probes, p)
		w.AddNode(mv, buffer.New(0), p)
	}
	for i := 0; i < 20; i++ {
		rng := root.Derive(fmt.Sprintf("walk-%d", i))
		start := geo.Point{X: rng.Uniform(rect.Min.X, rect.Max.X), Y: rng.Uniform(rect.Min.Y, rect.Max.Y)}
		add(&randWalk{pos: start, rect: rect, maxStep: 8, rng: rng})
	}
	for i := 0; i < 10; i++ {
		rng := root.Derive(fmt.Sprintf("tp-%d", i))
		mv := &teleporter{rng: rng}
		mv.Step(0)
		add(mv)
	}
	for i := 0; i < 10; i++ {
		add(fixed(float64(i%5)*6-15, float64(i/5)*6-12))
	}
	w.Start()
	return w, runner, probes
}

// runMixed drives the mixed world for the given ticks, injecting
// short-TTL messages so the expiry sweep has work, and checks naive
// O(N²) parity along the way. It returns how many region-crossing
// (boundary) re-buckets the ticks took.
func runMixed(t *testing.T, w *World, runner *sim.Runner, ticks int) int {
	t.Helper()
	boundary := 0
	for tick := 1; tick <= ticks; tick++ {
		runner.Run(float64(tick))
		comparePairSets(t, tick, bruteForcePairs(w), linkPairs(w))
		checkGrid(t, &w.grid)
		for _, b := range w.shard.bndW {
			boundary += len(b)
		}
		if tick%10 == 0 {
			from := tick % w.N()
			to := (tick + 7) % w.N()
			if from != to {
				w.CreateMessage(runner.Now(), from, to, 500, 15)
			}
		}
	}
	return boundary
}

// TestShardParityMixedMotion proves Shards ∈ {0,1,2,8} produce identical
// metrics, contact callback order and link order over mixed mobility with
// teleports and negative coordinates (no speed bound: every tracked pair
// re-checks each tick).
func TestShardParityMixedMotion(t *testing.T) {
	for _, seed := range []int64{3, 17, 101} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var ref shardTrace
			for _, shards := range shardCounts {
				cfg := Config{Range: 10, Bandwidth: 1000, Shards: shards}
				w, runner, probes := buildMixedWorld(cfg, seed)
				runMixed(t, w, runner, 250)
				tr := traceOf(w, probes)
				if shards == 0 {
					ref = tr
					continue
				}
				compareTraces(t, shards, ref, tr)
			}
		})
	}
}

// TestShardParityNarrowStripes repeats the mixed-motion sweep with the
// sub-grid stripe width shrunk to the minimum, so nearly every cell sits
// in a stripe's boundary band: teleporters and walkers constantly cross
// region boundaries and almost all re-bucketing funnels through the
// reconcile on the caller instead of the per-region parallel phase.
// Results must not depend on the partition at all. Every multi-worker run
// must take boundary re-buckets at whatever cell its world derives, or it
// would not exercise the path it exists for.
func TestShardParityNarrowStripes(t *testing.T) {
	for _, seed := range []int64{3, 101} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var ref shardTrace
			for _, shards := range shardCounts {
				cfg := Config{Range: 10, Bandwidth: 1000, Shards: shards}
				w, runner, probes := buildMixedWorld(cfg, seed)
				w.grid.stripe = 4 // before the first tick buckets anything
				boundary := runMixed(t, w, runner, 250)
				if shards > 1 && boundary == 0 {
					t.Fatalf("shards=%d at %g m cells: no region crossing in 250 ticks", shards, w.grid.cell)
				}
				tr := traceOf(w, probes)
				if shards == 0 {
					ref = tr
					continue
				}
				compareTraces(t, shards, ref, tr)
			}
		})
	}
}

// TestAutoShards pins the AutoShards sentinel: New resolves it to a
// GOMAXPROCS-derived worker count, and the resolved world still matches
// the one-worker reference bit for bit.
func TestAutoShards(t *testing.T) {
	runner := sim.NewRunner(1)
	w := New(Config{Range: 10, Bandwidth: 1000, Shards: AutoShards}, runner)
	if got, want := w.Config().Shards, runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("AutoShards resolved to %d, want GOMAXPROCS %d", got, want)
	}
	var ref shardTrace
	for _, shards := range []int{0, AutoShards} {
		cfg := Config{Range: 10, Bandwidth: 1000, Shards: shards}
		w, runner, probes := buildMixedWorld(cfg, 17)
		runMixed(t, w, runner, 120)
		tr := traceOf(w, probes)
		if shards == 0 {
			ref = tr
			continue
		}
		compareTraces(t, shards, ref, tr)
	}
}

// TestScriptedWorldRunsOneWorker pins that SetContactScript owns the
// replay shard rule for every caller: whatever Shards the world was built
// with, a scripted world reports Shards 0, allocates no grid tables or
// worker slots, and sizes no profiler busy table.
func TestScriptedWorldRunsOneWorker(t *testing.T) {
	w := New(Config{Range: 10, Bandwidth: 1000, Shards: 4}, sim.NewRunner(1))
	w.SetContactScript(nil)
	w.AddNode(fixed(0, 0), buffer.New(0), &probe{})
	w.Start()
	if got := w.Config().Shards; got != 0 || len(w.grid.tables) != 0 || len(w.shard.regW) != 0 {
		t.Fatalf("scripted world: Shards=%d, %d grid tables, %d region lists; want 0, 0, 0",
			got, len(w.grid.tables), len(w.shard.regW))
	}
	prof := &obs.EngineProf{}
	w.SetProfiler(prof)
	if busy := prof.Timing().ShardBusySeconds; len(busy) != 0 {
		t.Fatalf("scripted world sized a busy table: %v", busy)
	}
}

// TestShardParitySpeedBound repeats the sweep with an active speed bound,
// so the conservative re-check scheduler's parked pairs (and their
// re-park order) are part of what must match.
func TestShardParitySpeedBound(t *testing.T) {
	var ref shardTrace
	for _, shards := range shardCounts {
		cfg := Config{Range: 10, Bandwidth: 1000, MaxSpeed: 6, Shards: shards}
		w, runner := buildParityWorld(t, cfg, 60, 4, 23)
		var probes []*probe
		for _, n := range w.Nodes() {
			probes = append(probes, n.Router.(*probe))
		}
		for tick := 1; tick <= 300; tick++ {
			runner.Run(float64(tick))
			comparePairSets(t, tick, bruteForcePairs(w), linkPairs(w))
		}
		tr := traceOf(w, probes)
		if shards == 0 {
			ref = tr
			continue
		}
		compareTraces(t, shards, ref, tr)
	}
}

// TestShardedTransfersParity exercises the full transfer pipeline for
// every shard count: a stationary relay chain with real message
// forwarding, torn by a teleporter crossing the chain. Shards must not
// perturb delivery accounting.
func TestShardedTransfersParity(t *testing.T) {
	build := func(shards int) (*World, *sim.Runner, []*probe) {
		runner := sim.NewRunner(1)
		w := New(Config{Range: 10, Bandwidth: 1000, Shards: shards}, runner)
		var probes []*probe
		for i := 0; i < 6; i++ {
			p := &probe{quota: 3}
			probes = append(probes, p)
			w.AddNode(fixed(float64(i)*8, 0), buffer.New(0), p)
		}
		rng := xrand.New(5)
		tp := &teleporter{rng: rng}
		tp.Step(0)
		probes = append(probes, &probe{})
		w.AddNode(tp, buffer.New(0), probes[len(probes)-1])
		w.Start()
		return w, runner, probes
	}
	var ref shardTrace
	for _, shards := range shardCounts {
		w, runner, probes := build(shards)
		m := w.CreateMessage(0, 0, 5, 1000, 100)
		probes[0].queue = append(probes[0].queue, &Plan{Msg: m, Give: 1, KeepAfter: -1})
		for tick := 1; tick <= 60; tick++ {
			runner.Run(float64(tick))
			comparePairSets(t, tick, bruteForcePairs(w), linkPairs(w))
		}
		tr := traceOf(w, probes)
		if shards == 0 {
			ref = tr
			continue
		}
		compareTraces(t, shards, ref, tr)
	}
}
