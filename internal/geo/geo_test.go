package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	a := Point{1, 2}
	b := Point{4, 6}
	if got := a.Add(b); got != (Point{5, 8}) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got != (Point{3, 4}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Dist(b); got != 5 {
		t.Errorf("Dist = %g", got)
	}
	if got := a.Dist2(b); got != 25 {
		t.Errorf("Dist2 = %g", got)
	}
}

func TestLerp(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 20}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := a.Lerp(b, 0.5); got != (Point{5, 10}) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestPropDist2MatchesDist(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		ax, ay = math.Mod(ax, 1e6), math.Mod(ay, 1e6)
		bx, by = math.Mod(bx, 1e6), math.Mod(by, 1e6)
		if math.IsNaN(ax + ay + bx + by) {
			return true
		}
		a, b := Point{ax, ay}, Point{bx, by}
		d := a.Dist(b)
		return math.Abs(d*d-a.Dist2(b)) <= 1e-6*(1+d*d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRect(t *testing.T) {
	r := NewRect(Point{10, 20}, Point{0, 5})
	if r.Min != (Point{0, 5}) || r.Max != (Point{10, 20}) {
		t.Fatalf("NewRect normalisation: %+v", r)
	}
	if r.Width() != 10 || r.Height() != 15 {
		t.Errorf("Width/Height = %g, %g", r.Width(), r.Height())
	}
	if !r.Contains(Point{5, 10}) || r.Contains(Point{11, 10}) {
		t.Error("Contains wrong")
	}
	if got := r.Clamp(Point{-5, 30}); got != (Point{0, 20}) {
		t.Errorf("Clamp = %v", got)
	}
	if got := r.Center(); got != (Point{5, 12.5}) {
		t.Errorf("Center = %v", got)
	}
}

func TestPolylineWalk(t *testing.T) {
	pl := NewPolyline([]Point{{0, 0}, {10, 0}, {10, 10}})
	if pl.Length() != 20 {
		t.Fatalf("Length = %g, want 20", pl.Length())
	}
	cases := []struct {
		s    float64
		want Point
	}{
		{-5, Point{0, 0}},
		{0, Point{0, 0}},
		{5, Point{5, 0}},
		{10, Point{10, 0}},
		{15, Point{10, 5}},
		{20, Point{10, 10}},
		{99, Point{10, 10}},
	}
	for _, c := range cases {
		if got := pl.At(c.s); got.Dist(c.want) > 1e-12 {
			t.Errorf("At(%g) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestPolylineSinglePoint(t *testing.T) {
	pl := NewPolyline([]Point{{3, 4}})
	if pl.Length() != 0 {
		t.Errorf("Length = %g", pl.Length())
	}
	if got := pl.At(5); got != (Point{3, 4}) {
		t.Errorf("At = %v", got)
	}
}

func TestPolylineEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPolyline(nil)
}

// TestPropPolylineAtOnCurve: every sampled point lies within the polyline
// bounding box and arc distances are consistent.
func TestPropPolylineAtOnCurve(t *testing.T) {
	pl := NewPolyline([]Point{{0, 0}, {3, 4}, {10, 4}, {10, 0}})
	f := func(s float64) bool {
		s = math.Mod(math.Abs(s), pl.Length())
		p := pl.At(s)
		return p.X >= -1e-9 && p.X <= 10+1e-9 && p.Y >= -1e-9 && p.Y <= 4+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPolylineAtHintMatchesAt proves the hint-based walk resolves the
// same segment as the binary search for every arc length and any starting
// hint, including zero-length segments and out-of-range hints.
func TestPolylineAtHintMatchesAt(t *testing.T) {
	pls := []*Polyline{
		NewPolyline([]Point{{0, 0}, {3, 4}, {10, 4}, {10, 0}, {-5, 0}}),
		NewPolyline([]Point{{0, 0}, {0, 0}, {2, 0}, {2, 0}, {5, 0}}), // zero-length segments
		NewPolyline([]Point{{1, 1}}),
	}
	for pi, pl := range pls {
		for _, hint := range []int{-3, 0, 1, 2, 50} {
			h := hint
			for i := 0; i <= 200; i++ {
				s := pl.Length() * (float64(i)/200*1.2 - 0.1) // includes < 0 and > Length
				want := pl.At(s)
				var got Point
				got, h = pl.AtHint(s, h)
				if got != want {
					t.Fatalf("polyline %d: AtHint(%g, hint) = %v, At = %v", pi, s, got, want)
				}
			}
		}
	}
}
