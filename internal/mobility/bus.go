package mobility

import (
	"repro/internal/geo"
	"repro/internal/mapgen"
	"repro/internal/xrand"
)

// Bus moves a node along a cyclic bus line over the road map: it follows
// shortest road paths between consecutive stops, drives each leg at a
// per-leg speed and dwells at stops, reproducing the vehicular map-driven
// model of the paper's evaluation (Section V-A).
type Bus struct {
	rm   *mapgen.RoadMap
	line mapgen.BusLine

	stopIdx int // index of the stop the current leg departs from
	leg     *geo.Polyline
	legSeg  int     // segment hint for AtHint: buses advance monotonically
	s       float64 // arc-length progress along leg
	speed   float64
	dwell   float64 // remaining dwell at the last reached stop

	minSpeed, maxSpeed float64
	minDwell, maxDwell float64
	rng                *xrand.Source
	pos                geo.Point
}

// NewBus returns a bus on the given line. Buses start spread around the
// line: the starting stop and the phase within the first leg are drawn from
// rng, so multiple buses on one line do not clump.
func NewBus(rm *mapgen.RoadMap, line mapgen.BusLine, minSpeed, maxSpeed, minDwell, maxDwell float64, rng *xrand.Source) *Bus {
	if minSpeed <= 0 || maxSpeed < minSpeed {
		panic("mobility: invalid bus speed range")
	}
	b := &Bus{
		rm:       rm,
		line:     line,
		minSpeed: minSpeed, maxSpeed: maxSpeed,
		minDwell: minDwell, maxDwell: maxDwell,
		rng: rng,
	}
	b.stopIdx = rng.Intn(len(line.Stops))
	b.beginLeg()
	// Random phase along the first leg.
	b.s = rng.Uniform(0, b.leg.Length())
	b.pos, b.legSeg = b.leg.AtHint(b.s, 0)
	return b
}

// Line returns the bus line this mover follows.
func (b *Bus) Line() mapgen.BusLine { return b.line }

func (b *Bus) beginLeg() {
	from := b.line.Stops[b.stopIdx]
	to := b.line.Stops[(b.stopIdx+1)%len(b.line.Stops)]
	b.leg = geo.NewPolyline(b.rm.LegPath(from, to))
	b.legSeg = 0
	b.s = 0
	b.speed = b.rng.Uniform(b.minSpeed, b.maxSpeed)
}

// Pos implements Mover.
func (b *Bus) Pos() geo.Point { return b.pos }

// Step implements Mover.
func (b *Bus) Step(dt float64) geo.Point {
	for dt > 0 {
		if b.dwell > 0 {
			if b.dwell >= dt {
				b.dwell -= dt
				return b.pos
			}
			dt -= b.dwell
			b.dwell = 0
		}
		remain := b.leg.Length() - b.s
		travel := b.speed * dt
		if travel < remain {
			b.s += travel
			b.pos, b.legSeg = b.leg.AtHint(b.s, b.legSeg)
			return b.pos
		}
		// Arrive at the next stop within this step.
		if b.speed > 0 {
			dt -= remain / b.speed
		}
		b.stopIdx = (b.stopIdx + 1) % len(b.line.Stops)
		b.pos = b.rm.Points[b.line.Stops[b.stopIdx]]
		if b.maxDwell > 0 {
			b.dwell = b.rng.Uniform(b.minDwell, b.maxDwell)
		}
		b.beginLeg()
	}
	return b.pos
}
