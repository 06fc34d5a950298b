package mobility

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/mapgen"
	"repro/internal/xrand"
)

func TestStationary(t *testing.T) {
	s := &Stationary{P: geo.Point{X: 3, Y: 4}}
	if s.Pos() != (geo.Point{X: 3, Y: 4}) {
		t.Fatal("Pos wrong")
	}
	if s.Step(100) != s.Pos() {
		t.Fatal("stationary moved")
	}
}

func TestWaypointReachesTargets(t *testing.T) {
	target := geo.Point{X: 100, Y: 0}
	hits := 0
	w := NewWaypoint(geo.Point{}, 10, 10, 0, 0, xrand.New(1), func() geo.Point {
		hits++
		return target
	})
	// Speed 10, distance 100: ten 1-second steps reach the target.
	for i := 0; i < 10; i++ {
		w.Step(1)
	}
	if w.Pos().Dist(target) > 1e-9 {
		t.Fatalf("position %v, want %v", w.Pos(), target)
	}
}

func TestWaypointSpeedBound(t *testing.T) {
	rng := xrand.New(2)
	rect := geo.NewRect(geo.Point{}, geo.Point{X: 1000, Y: 1000})
	w := NewRandomWaypoint(rect, 2, 14, 0, 0, rng)
	prev := w.Pos()
	for i := 0; i < 1000; i++ {
		next := w.Step(0.5)
		if d := prev.Dist(next); d > 14*0.5+1e-9 {
			t.Fatalf("moved %g m in 0.5 s, exceeds max speed", d)
		}
		prev = next
	}
}

func TestRandomWaypointStaysInRect(t *testing.T) {
	rng := xrand.New(3)
	rect := geo.NewRect(geo.Point{X: 100, Y: 100}, geo.Point{X: 300, Y: 200})
	w := NewRandomWaypoint(rect, 5, 10, 1, 5, rng)
	for i := 0; i < 5000; i++ {
		p := w.Step(0.5)
		if !rect.Contains(p) {
			t.Fatalf("position %v left rect %v", p, rect)
		}
	}
}

func TestWaypointPauses(t *testing.T) {
	// Min and max wait equal: deterministic pause of 10 s at each target.
	w := NewWaypoint(geo.Point{}, 10, 10, 10, 10, xrand.New(4), func() geo.Point {
		return geo.Point{X: 1, Y: 0} // always 1 m away
	})
	w.Step(0.1) // reach the target (0.1 s at 10 m/s)
	p := w.Pos()
	if got := w.Step(5); got != p {
		t.Fatal("moved during pause")
	}
}

func TestWaypointInvalidSpeedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWaypoint(geo.Point{}, 0, 0, 0, 0, xrand.New(1), func() geo.Point { return geo.Point{} })
}

func TestHomeZoneBias(t *testing.T) {
	world := geo.NewRect(geo.Point{}, geo.Point{X: 1000, Y: 1000})
	home := geo.NewRect(geo.Point{}, geo.Point{X: 100, Y: 100})
	frac := func(pHome float64, seed int64) float64 {
		w := NewHomeZone(world, home, pHome, 5, 15, 0, 0, xrand.New(seed))
		inHome := 0
		const steps = 20000
		for i := 0; i < steps; i++ {
			if home.Contains(w.Step(1)) {
				inHome++
			}
		}
		return float64(inHome) / steps
	}
	biased, unbiased := frac(0.9, 5), frac(0, 5)
	if biased < 4*unbiased || biased < 0.15 {
		t.Errorf("home fraction biased=%g unbiased=%g, want a strong home bias", biased, unbiased)
	}
}

func TestBusFollowsLine(t *testing.T) {
	rm := mapgen.Generate(mapgen.DefaultConfig(), 1)
	b := NewBus(rm, rm.Lines[0], 5, 10, 2, 5, xrand.New(6))
	if b.Line().ID != 0 {
		t.Fatal("wrong line")
	}
	prev := b.Pos()
	moved := false
	for i := 0; i < 2000; i++ {
		p := b.Step(0.5)
		if !rm.Bounds.Contains(p) {
			t.Fatalf("bus left the map at %v", p)
		}
		if d := prev.Dist(p); d > 10*0.5+1e-9 {
			t.Fatalf("bus moved %g m in one 0.5 s step", d)
		}
		if p != prev {
			moved = true
		}
		prev = p
	}
	if !moved {
		t.Fatal("bus never moved")
	}
}

func TestBusDeterministic(t *testing.T) {
	rm := mapgen.Generate(mapgen.DefaultConfig(), 1)
	a := NewBus(rm, rm.Lines[1], 5, 10, 2, 5, xrand.New(7))
	b := NewBus(rm, rm.Lines[1], 5, 10, 2, 5, xrand.New(7))
	for i := 0; i < 500; i++ {
		if a.Step(0.5) != b.Step(0.5) {
			t.Fatal("same-seed buses diverged")
		}
	}
	c := NewBus(rm, rm.Lines[1], 5, 10, 2, 5, xrand.New(8))
	diverged := false
	for i := 0; i < 500; i++ {
		if a.Step(0.5) != c.Step(0.5) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("different seeds produced identical bus trajectories")
	}
}

func TestBusVisitsStops(t *testing.T) {
	rm := mapgen.Generate(mapgen.DefaultConfig(), 1)
	line := rm.Lines[0]
	b := NewBus(rm, line, 10, 14, 1, 2, xrand.New(9))
	visited := map[int]bool{}
	for i := 0; i < 200000 && len(visited) < len(line.Stops); i++ {
		p := b.Step(0.5)
		for _, s := range line.Stops {
			if p.Dist(rm.Points[s]) < 1 {
				visited[s] = true
			}
		}
	}
	if len(visited) < len(line.Stops) {
		t.Errorf("bus visited %d of %d stops", len(visited), len(line.Stops))
	}
}
