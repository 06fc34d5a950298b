// Package mapgen generates the synthetic downtown road network and bus
// lines that substitute for the Helsinki map data used by the paper's ONE
// scenario (see DESIGN.md, "Substitutions"). The generator is deterministic
// given a seed: a Manhattan-style street grid with a few diagonal avenues,
// a set of cyclic bus lines whose stops cluster inside per-line districts,
// and one shared downtown interchange so lines from different districts
// meet. Districts double as the predefined communities of the CR protocol.
package mapgen

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// Config controls map generation. The zero value is unusable; use
// DefaultConfig.
type Config struct {
	// Width and Height of the simulated area in metres.
	Width, Height float64
	// GridX and GridY are the numbers of street columns and rows.
	GridX, GridY int
	// Diagonals is the number of diagonal avenues cut across the grid.
	Diagonals int
	// Jitter displaces intersections by up to this many metres in each
	// axis, so streets are not perfectly straight.
	Jitter float64
	// Lines is the number of bus lines.
	Lines int
	// StopsPerLine is the number of stops of each cyclic line.
	StopsPerLine int
	// Districts is the number of districts (communities). Lines are
	// assigned to districts round-robin.
	Districts int
}

// DefaultConfig mirrors the scale of ONE's Helsinki downtown scenario,
// roughly 4500 m × 3400 m, which reproduces the paper's absolute
// delivery-ratio range across 40–240 nodes.
func DefaultConfig() Config {
	return Config{
		Width:        4500,
		Height:       3400,
		GridX:        15,
		GridY:        11,
		Diagonals:    4,
		Jitter:       25,
		Lines:        8,
		StopsPerLine: 6,
		Districts:    4,
	}
}

// RoadMap is a generated city: a road graph whose vertices are
// intersections, plus the bus lines defined over it.
type RoadMap struct {
	Graph  *graph.Graph
	Points []geo.Point // position of each intersection
	Bounds geo.Rect
	Lines  []BusLine
	// Center is the most central grid vertex (kept for tools that need a
	// reference downtown point; lines do not all pass through it).
	Center int
	// DistrictRects is the home zone of each district in world
	// coordinates (the unjittered extent of its grid tile). Community
	// walkers in city-scale scenarios anchor to these.
	DistrictRects []geo.Rect

	cache *graph.PathCache
}

// BusLine is a cyclic route over road-graph vertices.
type BusLine struct {
	ID       int
	District int   // the district (community) the line belongs to
	Stops    []int // road-graph vertices, visited cyclically
}

// Generate builds a deterministic road map from cfg and seed.
func Generate(cfg Config, seed int64) *RoadMap {
	if cfg.GridX < 2 || cfg.GridY < 2 {
		panic("mapgen: grid must be at least 2x2")
	}
	if cfg.Lines < 1 || cfg.StopsPerLine < 2 {
		panic("mapgen: need at least one line with two stops")
	}
	if cfg.Districts < 1 {
		panic("mapgen: need at least one district")
	}
	rng := xrand.Derive(seed, "mapgen")

	nx, ny := cfg.GridX, cfg.GridY
	n := nx * ny
	g := graph.New(n)
	pts := make([]geo.Point, n)
	dx := cfg.Width / float64(nx-1)
	dy := cfg.Height / float64(ny-1)
	vertex := func(ix, iy int) int { return iy*nx + ix }
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			p := geo.Point{X: float64(ix) * dx, Y: float64(iy) * dy}
			// Interior intersections get jitter; the border stays put so
			// the bounding box is exact.
			if ix > 0 && ix < nx-1 && iy > 0 && iy < ny-1 && cfg.Jitter > 0 {
				p.X += rng.Uniform(-cfg.Jitter, cfg.Jitter)
				p.Y += rng.Uniform(-cfg.Jitter, cfg.Jitter)
			}
			pts[vertex(ix, iy)] = p
		}
	}
	// Grid streets.
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			v := vertex(ix, iy)
			if ix+1 < nx {
				u := vertex(ix+1, iy)
				g.AddEdge(v, u, pts[v].Dist(pts[u]))
			}
			if iy+1 < ny {
				u := vertex(ix, iy+1)
				g.AddEdge(v, u, pts[v].Dist(pts[u]))
			}
		}
	}
	// Diagonal avenues: connect (ix,iy)-(ix+1,iy+1) runs starting from
	// random border cells.
	for d := 0; d < cfg.Diagonals; d++ {
		ix := rng.Intn(nx - 1)
		iy := rng.Intn(ny - 1)
		dir := 1
		if rng.Bool(0.5) {
			dir = -1
			iy = ny - 1 - iy
			if iy == 0 {
				iy = ny - 1
			}
		}
		for ix+1 < nx && iy+dir >= 0 && iy+dir < ny {
			v := vertex(ix, iy)
			u := vertex(ix+1, iy+dir)
			if !g.HasEdge(v, u) {
				g.AddEdge(v, u, pts[v].Dist(pts[u]))
			}
			ix++
			iy += dir
		}
	}

	rm := &RoadMap{
		Graph:  g,
		Points: pts,
		Bounds: geo.NewRect(geo.Point{}, geo.Point{X: cfg.Width, Y: cfg.Height}),
		Center: vertex(nx/2, ny/2),
	}
	rm.cache = graph.NewPathCache(g)
	for d := 0; d < cfg.Districts; d++ {
		x0, x1, y0, y1 := districtRect(d, cfg.Districts, nx, ny)
		rm.DistrictRects = append(rm.DistrictRects, geo.NewRect(
			geo.Point{X: float64(x0) * dx, Y: float64(y0) * dy},
			geo.Point{X: float64(x1) * dx, Y: float64(y1) * dy},
		))
	}
	rm.generateLines(cfg, rng, nx, ny)
	return rm
}

// DistrictsFit reports whether every district of cfg covers at least one
// grid vertex — districtRect's tiling leaves a district empty once there
// are more slabs than grid columns (or, in the two-column layout, more
// district rows than grid rows), and stops cannot be placed in an empty
// district.
func DistrictsFit(cfg Config) bool {
	k := cfg.Districts
	if k >= 4 && k%2 == 0 {
		return cfg.GridX >= 2 && cfg.GridY >= k/2
	}
	return k >= 1 && cfg.GridX >= k
}

// districtRect returns the sub-rectangle of the grid covered by district d
// of k districts, tiling the area in vertical slabs of near-equal width.
func districtRect(d, k, nx, ny int) (x0, x1, y0, y1 int) {
	// Tile districts in a 2-column layout when k >= 4, else slabs.
	if k >= 4 && k%2 == 0 {
		cols := 2
		rows := k / cols
		c := d % cols
		r := d / cols
		x0 = c * nx / cols
		x1 = (c+1)*nx/cols - 1
		y0 = r * ny / rows
		y1 = (r+1)*ny/rows - 1
		return
	}
	x0 = d * nx / k
	x1 = (d+1)*nx/k - 1
	y0, y1 = 0, ny-1
	return
}

// generateLines places cfg.Lines cyclic bus lines. Each line keeps most of
// its stops inside its own district and extends one stop into the next
// district (ring order), the way real suburban lines reach a neighbouring
// terminal. Lines of one district overlap heavily (strong intra-community
// contact), adjacent districts share border stops (weak inter-community
// contact), and the district ring keeps the DTN connected without a single
// global hotspot.
func (rm *RoadMap) generateLines(cfg Config, rng *xrand.Source, nx, ny int) {
	vertex := func(ix, iy int) int { return iy*nx + ix }
	pickIn := func(d int, seen map[int]bool) int {
		x0, x1, y0, y1 := districtRect(d, cfg.Districts, nx, ny)
		for tries := 0; ; tries++ {
			v := vertex(rng.UniformInt(x0, x1), rng.UniformInt(y0, y1))
			if !seen[v] || tries > 64 {
				seen[v] = true
				return v
			}
		}
	}
	for l := 0; l < cfg.Lines; l++ {
		district := l % cfg.Districts
		seen := map[int]bool{}
		var stops []int
		for len(stops) < cfg.StopsPerLine-1 {
			stops = append(stops, pickIn(district, seen))
		}
		if cfg.Districts > 1 {
			// One terminal in the next district around the ring.
			stops = append(stops, pickIn((district+1)%cfg.Districts, seen))
		} else {
			stops = append(stops, pickIn(district, seen))
		}
		// Order the stops by a nearest-neighbour tour, producing plausible
		// routes instead of zig-zags.
		ordered := rm.nearestNeighbourTour(stops)
		rm.Lines = append(rm.Lines, BusLine{ID: l, District: district, Stops: ordered})
	}
}

// nearestNeighbourTour orders stops into a tour beginning at stops[0].
func (rm *RoadMap) nearestNeighbourTour(stops []int) []int {
	remaining := append([]int(nil), stops[1:]...)
	tour := []int{stops[0]}
	cur := stops[0]
	for len(remaining) > 0 {
		best, bestD := 0, rm.Points[cur].Dist(rm.Points[remaining[0]])
		for i := 1; i < len(remaining); i++ {
			if d := rm.Points[cur].Dist(rm.Points[remaining[i]]); d < bestD {
				best, bestD = i, d
			}
		}
		cur = remaining[best]
		tour = append(tour, cur)
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	return tour
}

// LegPath returns the road polyline from stop vertex a to stop vertex b
// (inclusive of both endpoints), following shortest road paths. It panics
// if the vertices are disconnected, which Generate never produces.
func (rm *RoadMap) LegPath(a, b int) []geo.Point {
	vs := rm.cache.Path(a, b)
	if vs == nil {
		panic(fmt.Sprintf("mapgen: no road path between %d and %d", a, b))
	}
	pts := make([]geo.Point, len(vs))
	for i, v := range vs {
		pts[i] = rm.Points[v]
	}
	return pts
}

// LineOfNode assigns node i of nodeCount to a bus line, spreading nodes
// over lines round-robin — the rule the experiment harness and community
// registry share.
func (rm *RoadMap) LineOfNode(i int) BusLine {
	return rm.Lines[i%len(rm.Lines)]
}

// DistrictOfNode returns the district (community) of node i under the
// round-robin line assignment.
func (rm *RoadMap) DistrictOfNode(i int) int {
	return rm.LineOfNode(i).District
}

// Districts returns the number of distinct districts across lines.
func (rm *RoadMap) Districts() int {
	max := -1
	for _, l := range rm.Lines {
		if l.District > max {
			max = l.District
		}
	}
	return max + 1
}
