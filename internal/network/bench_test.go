package network

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/buffer"
	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// Engine micro-benchmarks: ticks/sec and contact throughput of the broad
// phase alone (probe routers, no traffic), complementing the whole-figure
// benchmarks at the repository root.

func benchWorld(n int, maxStep float64, maxSpeed float64) (*World, *sim.Runner) {
	runner := sim.NewRunner(1)
	w := New(Config{Range: 10, Bandwidth: 1000, MaxSpeed: maxSpeed}, runner)
	rect := geo.NewRect(geo.Point{X: -500, Y: -500}, geo.Point{X: 500, Y: 500})
	root := xrand.New(1)
	for i := 0; i < n; i++ {
		rng := root.Derive(fmt.Sprintf("b-%d", i))
		start := geo.Point{
			X: rng.Uniform(rect.Min.X, rect.Max.X),
			Y: rng.Uniform(rect.Min.Y, rect.Max.Y),
		}
		w.AddNode(&randWalk{pos: start, rect: rect, maxStep: maxStep, rng: rng}, buffer.New(0), &probe{})
	}
	w.Start()
	return w, runner
}

// benchTicks advances the world b.N ticks and reports tick and contact
// throughput.
func benchTicks(b *testing.B, w *World, runner *sim.Runner) {
	b.Helper()
	runner.Run(64 * runner.Tick) // warm up buffers and the re-check wheel
	before := w.Metrics.Summary().Contacts
	start := runner.Now()
	b.ResetTimer()
	runner.Run(start + float64(b.N)*runner.Tick)
	b.StopTimer()
	contacts := w.Metrics.Summary().Contacts - before
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ticks/s")
	b.ReportMetric(float64(contacts)/b.Elapsed().Seconds(), "contacts/s")
}

// BenchmarkEngineTickMobile measures per-tick cost with every node moving
// (random walk, speed bound active).
func BenchmarkEngineTickMobile400(b *testing.B) {
	w, runner := benchWorld(400, 4, 6)
	benchTicks(b, w, runner)
}

// BenchmarkEngineTickStatic measures the steady-state floor: no node
// moves, so ticks are pure wheel maintenance.
func BenchmarkEngineTickStatic400(b *testing.B) {
	runner := sim.NewRunner(1)
	w := New(Config{Range: 10, Bandwidth: 1000}, runner)
	for i := 0; i < 400; i++ {
		w.AddNode(fixed(float64(i%20)*7, float64(i/20)*7), buffer.New(0), &probe{})
	}
	w.Start()
	benchTicks(b, w, runner)
}

// BenchmarkEngineTickWalkers10k measures the broad phase at CityScale
// density: 10 000 walkers over 12 km × 9 km at a 0.5 s tick, so hundreds
// of nodes change cell every tick.
func BenchmarkEngineTickWalkers10k(b *testing.B) {
	w, runner := walkerWorld(10000, 1)
	benchTicks(b, w, runner)
}

// walker moves in a straight line at a constant speed and reflects off
// the edges of its arena.
type walker struct {
	pos, vel geo.Point
	rect     geo.Rect
}

func (m *walker) Pos() geo.Point { return m.pos }
func (m *walker) Step(dt float64) geo.Point {
	m.pos.X, m.vel.X = bounce(m.pos.X+m.vel.X*dt, m.vel.X, m.rect.Min.X, m.rect.Max.X)
	m.pos.Y, m.vel.Y = bounce(m.pos.Y+m.vel.Y*dt, m.vel.Y, m.rect.Min.Y, m.rect.Max.Y)
	return m.pos
}

func bounce(x, v, lo, hi float64) (float64, float64) {
	switch {
	case x < lo:
		return 2*lo - x, -v
	case x > hi:
		return 2*hi - x, -v
	}
	return x, v
}

// walkerWorld places n walkers (0.5–1.5 m/s, uniform headings) uniformly
// over a 12 km × 9 km arena, CityScale's map, ticking every 0.5 s.
func walkerWorld(n int, seed int64) (*World, *sim.Runner) {
	runner := sim.NewRunner(0.5)
	w := New(Config{Range: 10, Bandwidth: 1000, MaxSpeed: 1.5}, runner)
	rect := geo.NewRect(geo.Point{}, geo.Point{X: 12000, Y: 9000})
	root := xrand.New(seed)
	for i := 0; i < n; i++ {
		rng := root.Derive(fmt.Sprintf("walker-%d", i))
		start := geo.Point{X: rng.Uniform(rect.Min.X, rect.Max.X), Y: rng.Uniform(rect.Min.Y, rect.Max.Y)}
		speed, heading := rng.Uniform(0.5, 1.5), rng.Uniform(0, 2*math.Pi)
		vel := geo.Point{X: speed * math.Cos(heading), Y: speed * math.Sin(heading)}
		w.AddNode(&walker{pos: start, vel: vel, rect: rect}, buffer.New(0), &probe{})
	}
	w.Start()
	return w, runner
}
