package network

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/buffer"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Expiry-floor tests: a sweep skipped because no buffered copy can have
// expired must be one that would have dropped nothing. The oracle forces
// every sweep tick to sweep every buffer, as the engine did before it
// kept a floor.

// expiryWorld builds 30 replicators (epidemic forwarding) on random
// walkers, live or, given a script, replaying it. Every run gets a fresh
// profiler, whose expiry-phase lap count is the number of sweeps run.
func expiryWorld(shards int, script []trace.Event, replay bool) (*World, *sim.Runner, *obs.EngineProf) {
	runner := sim.NewRunner(1)
	w := New(Config{Range: 10, Bandwidth: 2000, Shards: shards}, runner)
	rect := geo.NewRect(geo.Point{X: -60, Y: -40}, geo.Point{X: 60, Y: 40})
	root := xrand.New(5)
	for i := 0; i < 30; i++ {
		rng := root.Derive(fmt.Sprintf("walk-%d", i))
		start := geo.Point{X: rng.Uniform(rect.Min.X, rect.Max.X), Y: rng.Uniform(rect.Min.Y, rect.Max.Y)}
		w.AddNode(&randWalk{pos: start, rect: rect, maxStep: 6, rng: rng}, buffer.New(0), &replicator{})
	}
	if replay {
		w.SetContactScript(script)
	}
	w.Start()
	prof := &obs.EngineProf{}
	w.SetProfiler(prof)
	return w, runner, prof
}

// runExpiry drives w for ticks ticks with a burst of four messages every
// 50 ticks, each living ttl seconds. It returns the run's summary
// followed by the number of buffered copies after each tick, and how
// many expiry sweeps ran. With oracle set, every sweep tick sweeps.
func runExpiry(w *World, runner *sim.Runner, prof *obs.EngineProf, ticks int, ttl float64, oracle bool) (string, int64) {
	n := w.N()
	held := make([]int, 0, ticks)
	for tick := 1; tick <= ticks; tick++ {
		if tick%50 == 1 {
			for k := 0; k < 4; k++ {
				from := (tick + 3*k) % n
				w.CreateMessage(runner.Now(), from, (from+11)%n, 1000, ttl)
			}
		}
		if oracle {
			w.expiryFloor = math.Inf(-1)
		}
		runner.Run(float64(tick))
		copies := 0
		for _, nd := range w.Nodes() {
			copies += nd.Buf.Len()
		}
		held = append(held, copies)
	}
	return fmt.Sprintf("%+v\nbuffered copies per tick: %v", w.Metrics.Summary(), held), prof.Timing().Phases[obs.PhaseExpiry].Count
}

// TestExpiryFloorMatchesSweepAll: in a short-TTL world, where copies do
// expire, skipping sweeps below the floor leaves the summary bit-identical
// to sweeping on every sweep tick, and the buffers hold the same number
// of copies after every tick — live for one and two workers, and
// replaying the live run's contact script.
func TestExpiryFloorMatchesSweepAll(t *testing.T) {
	const ticks, ttl = 400, 15
	var script []trace.Event
	ref := ""
	for _, tc := range []struct {
		name   string
		shards int
		replay bool
	}{{"live", 0, false}, {"live/shards=2", 2, false}, {"replay", 0, true}} {
		t.Run(tc.name, func(t *testing.T) {
			w, runner, prof := expiryWorld(tc.shards, script, tc.replay)
			if ref == "" {
				w.OnContact(func(tick uint64, up bool, a, b int32) {
					script = append(script, trace.Event{Tick: tick, Up: up, A: a, B: b})
				})
			}
			got, sweeps := runExpiry(w, runner, prof, ticks, ttl, false)
			ow, orunner, oprof := expiryWorld(tc.shards, script, tc.replay)
			want, all := runExpiry(ow, orunner, oprof, ticks, ttl, true)
			if got != want {
				t.Fatalf("summary with the expiry floor diverged from sweeping every time\n  floor  %s\n  oracle %s", got, want)
			}
			if ref == "" {
				ref = want
			} else if got != ref {
				t.Fatalf("summary diverged from the one-worker live run\n  live %s\n  here %s", ref, got)
			}
			if w.Metrics.Summary().Expired == 0 {
				t.Fatal("no copy expired: the world does not exercise expiry")
			}
			if all != ticks/10 || sweeps == 0 || sweeps >= all {
				t.Fatalf("%d sweeps with the floor, %d without; want 0 < floor < %d = every tenth tick", sweeps, all, ticks/10)
			}
		})
	}
}

// TestExpiryFloorSkipsUnexpirable: when every message outlives the run,
// no sweep ever runs (so no buffer's DropExpired is called), live or
// replayed.
func TestExpiryFloorSkipsUnexpirable(t *testing.T) {
	var script []trace.Event
	for _, replay := range []bool{false, true} {
		w, runner, prof := expiryWorld(0, script, replay)
		if !replay {
			w.OnContact(func(tick uint64, up bool, a, b int32) {
				script = append(script, trace.Event{Tick: tick, Up: up, A: a, B: b})
			})
		}
		_, sweeps := runExpiry(w, runner, prof, 300, 1000, false)
		if w.Metrics.Summary().Relays == 0 {
			t.Fatalf("replay=%v: no relays, so no fork ever lowered the floor", replay)
		}
		if sweeps != 0 {
			t.Fatalf("replay=%v: %d expiry sweeps ran, want 0 (TTL 1000 s, 300 s run)", replay, sweeps)
		}
	}
}

// TestExpiryFloorAfterPartialSweep: a sweep that drops some copies and
// keeps others must leave the floor at the earliest kept expiry, so the
// next copy is purged on the first sweep tick after it expires. Two
// isolated nodes hold messages expiring at 5, 25 and 45 s; nothing is
// added after t = 0, so only the sweeps' own floor resets can schedule
// the later purges.
func TestExpiryFloorAfterPartialSweep(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		replay bool
	}{{"live", 0, false}, {"live/shards=2", 2, false}, {"replay", 0, true}} {
		t.Run(tc.name, func(t *testing.T) {
			runner := sim.NewRunner(1)
			w := New(Config{Range: 10, Bandwidth: 1000, Shards: tc.shards}, runner)
			w.AddNode(fixed(0, 0), buffer.New(0), idleRouter{})
			w.AddNode(fixed(1000, 0), buffer.New(0), idleRouter{})
			if tc.replay {
				w.SetContactScript(nil)
			}
			w.Start()
			for k, ttl := range []float64{5, 25, 45} {
				w.CreateMessage(0, k%2, 1-k%2, 100, ttl)
			}
			for _, step := range []struct{ tick, expired int }{{10, 1}, {20, 1}, {30, 2}, {40, 2}, {50, 3}} {
				runner.Run(float64(step.tick))
				if got := w.Metrics.Summary().Expired; got != step.expired {
					t.Fatalf("t=%d: %d copies expired, want %d", step.tick, got, step.expired)
				}
			}
		})
	}
}
