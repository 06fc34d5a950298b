// Package mobility provides the node movement models: map-route bus
// movement over a generated road map (the paper's vehicular scenario),
// random waypoint, community home-zone movement, and a stationary model
// for tests. Movers are pure state machines advanced by the simulation
// tick; they own no clocks and draw all randomness from injected streams.
package mobility

import (
	"repro/internal/geo"
	"repro/internal/xrand"
)

// Mover advances one node's position.
type Mover interface {
	// Pos returns the current position.
	Pos() geo.Point
	// Step advances the mover by dt seconds and returns the new position.
	Step(dt float64) geo.Point
}

// Stationary is a mover that never moves. Useful for protocol unit tests
// with scripted contacts.
type Stationary struct {
	P geo.Point
}

// Pos implements Mover.
func (s *Stationary) Pos() geo.Point { return s.P }

// Step implements Mover.
func (s *Stationary) Step(float64) geo.Point { return s.P }

// Waypoint is a generic waypoint-walker: it travels in straight lines to
// successive targets at per-leg speeds and pauses between legs. The
// concrete models below differ only in how they choose the next target,
// expressed by the next callback.
type Waypoint struct {
	pos     geo.Point
	target  geo.Point
	speed   float64
	waiting float64 // remaining pause, seconds

	minSpeed, maxSpeed float64
	minWait, maxWait   float64
	rng                *xrand.Source
	next               func() geo.Point
}

// NewWaypoint returns a walker starting at start that picks targets with
// next and draws speeds from [minSpeed, maxSpeed] and pauses from
// [minWait, maxWait].
func NewWaypoint(start geo.Point, minSpeed, maxSpeed, minWait, maxWait float64, rng *xrand.Source, next func() geo.Point) *Waypoint {
	if minSpeed <= 0 || maxSpeed < minSpeed {
		panic("mobility: invalid speed range")
	}
	w := &Waypoint{
		pos:      start,
		minSpeed: minSpeed, maxSpeed: maxSpeed,
		minWait: minWait, maxWait: maxWait,
		rng:  rng,
		next: next,
	}
	w.beginLeg()
	return w
}

func (w *Waypoint) beginLeg() {
	w.target = w.next()
	w.speed = w.rng.Uniform(w.minSpeed, w.maxSpeed)
}

// Pos implements Mover.
func (w *Waypoint) Pos() geo.Point { return w.pos }

// Step implements Mover.
func (w *Waypoint) Step(dt float64) geo.Point {
	for dt > 0 {
		if w.waiting > 0 {
			if w.waiting >= dt {
				w.waiting -= dt
				return w.pos
			}
			dt -= w.waiting
			w.waiting = 0
		}
		remain := w.pos.Dist(w.target)
		travel := w.speed * dt
		if travel < remain {
			w.pos = w.pos.Lerp(w.target, travel/remain)
			return w.pos
		}
		// Reached the target within this step.
		w.pos = w.target
		if remain > 0 {
			dt -= remain / w.speed
		}
		if w.maxWait > 0 {
			w.waiting = w.rng.Uniform(w.minWait, w.maxWait)
		}
		w.beginLeg()
	}
	return w.pos
}

// NewRandomWaypoint returns the classic random-waypoint model inside rect.
func NewRandomWaypoint(rect geo.Rect, minSpeed, maxSpeed, minWait, maxWait float64, rng *xrand.Source) *Waypoint {
	randIn := func() geo.Point {
		return geo.Point{
			X: rng.Uniform(rect.Min.X, rect.Max.X),
			Y: rng.Uniform(rect.Min.Y, rect.Max.Y),
		}
	}
	return NewWaypoint(randIn(), minSpeed, maxSpeed, minWait, maxWait, rng, randIn)
}

// NewHomeZone returns a community mover: with probability pHome the next
// waypoint falls inside the node's home zone, otherwise anywhere in the
// world rect. It produces the strong intra-community / weak
// inter-community contact asymmetry of Section IV-A.
func NewHomeZone(world, home geo.Rect, pHome, minSpeed, maxSpeed, minWait, maxWait float64, rng *xrand.Source) *Waypoint {
	pick := func(r geo.Rect) geo.Point {
		return geo.Point{
			X: rng.Uniform(r.Min.X, r.Max.X),
			Y: rng.Uniform(r.Min.Y, r.Max.Y),
		}
	}
	next := func() geo.Point {
		if rng.Bool(pHome) {
			return pick(home)
		}
		return pick(world)
	}
	return NewWaypoint(pick(home), minSpeed, maxSpeed, minWait, maxWait, rng, next)
}
