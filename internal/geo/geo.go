// Package geo provides the small amount of 2-D geometry the simulator
// needs: points, segments, polylines walked by arc length, and rectangles.
// Distances are in metres throughout the repository.
package geo

import (
	"fmt"
	"math"
)

// Point is a 2-D location in metres.
type Point struct {
	X, Y float64
}

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared distance between p and q. It avoids the sqrt in
// hot contact-detection loops.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Lerp returns the point a fraction t of the way from p to q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Width returns the horizontal extent.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Contains reports whether p lies inside r (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Clamp returns p moved to the nearest point inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Max(r.Min.X, math.Min(r.Max.X, p.X)),
		Y: math.Max(r.Min.Y, math.Min(r.Max.Y, p.Y)),
	}
}

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Polyline is an open chain of points walked by arc length.
type Polyline struct {
	pts   []Point
	cum   []float64 // cumulative length up to each vertex
	total float64
}

// NewPolyline builds a polyline over pts. It panics on fewer than one point.
func NewPolyline(pts []Point) *Polyline {
	if len(pts) == 0 {
		panic("geo: empty polyline")
	}
	pl := &Polyline{pts: append([]Point(nil), pts...)}
	pl.cum = make([]float64, len(pts))
	for i := 1; i < len(pts); i++ {
		pl.cum[i] = pl.cum[i-1] + pts[i-1].Dist(pts[i])
	}
	pl.total = pl.cum[len(pts)-1]
	return pl
}

// Length returns the total arc length.
func (pl *Polyline) Length() float64 { return pl.total }

// Points returns the underlying vertices (shared; do not mutate).
func (pl *Polyline) Points() []Point { return pl.pts }

// At returns the point at arc length s from the start. s is clamped to
// [0, Length].
func (pl *Polyline) At(s float64) Point {
	if s <= 0 || len(pl.pts) == 1 {
		return pl.pts[0]
	}
	if s >= pl.total {
		return pl.pts[len(pl.pts)-1]
	}
	// Binary search for the segment containing s: the largest lo with
	// cum[lo] <= s.
	lo, hi := 0, len(pl.cum)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if pl.cum[mid] <= s {
			lo = mid
		} else {
			hi = mid
		}
	}
	return pl.at(s, lo)
}

// AtHint is At with a caller-kept segment hint: a walker that advances
// monotonically along the line (a bus driving a leg) resolves the
// containing segment in amortised O(1) instead of a binary search per
// tick. It returns the point and the hint to pass to the next call.
// Results are bit-identical to At for every s and any hint.
func (pl *Polyline) AtHint(s float64, hint int) (Point, int) {
	if s <= 0 || len(pl.pts) == 1 {
		return pl.pts[0], 0
	}
	if s >= pl.total {
		return pl.pts[len(pl.pts)-1], len(pl.cum) - 2
	}
	// Walk the hint to the largest lo with cum[lo] <= s — the same
	// segment the binary search in At selects.
	lo := hint
	if lo > len(pl.cum)-2 {
		lo = len(pl.cum) - 2
	}
	if lo < 0 {
		lo = 0
	}
	for lo > 0 && pl.cum[lo] > s {
		lo--
	}
	for lo+1 < len(pl.cum)-1 && pl.cum[lo+1] <= s {
		lo++
	}
	return pl.at(s, lo), lo
}

// at interpolates within segment [lo, lo+1] at arc length s.
func (pl *Polyline) at(s float64, lo int) Point {
	hi := lo + 1
	segLen := pl.cum[hi] - pl.cum[lo]
	if segLen <= 0 {
		return pl.pts[lo]
	}
	t := (s - pl.cum[lo]) / segLen
	return pl.pts[lo].Lerp(pl.pts[hi], t)
}
