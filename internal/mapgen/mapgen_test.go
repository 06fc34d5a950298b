package mapgen

import (
	"testing"
)

func TestGenerateDefault(t *testing.T) {
	rm := Generate(DefaultConfig(), 1)
	if !rm.Graph.Connected() {
		t.Fatal("road graph must be connected")
	}
	cfg := DefaultConfig()
	if rm.Graph.N() != cfg.GridX*cfg.GridY {
		t.Errorf("vertices = %d, want %d", rm.Graph.N(), cfg.GridX*cfg.GridY)
	}
	for v, p := range rm.Points {
		if !rm.Bounds.Contains(p) {
			t.Fatalf("vertex %d at %v outside bounds %v", v, p, rm.Bounds)
		}
	}
	if len(rm.Lines) != cfg.Lines {
		t.Fatalf("lines = %d, want %d", len(rm.Lines), cfg.Lines)
	}
	for _, l := range rm.Lines {
		if len(l.Stops) != cfg.StopsPerLine {
			t.Errorf("line %d has %d stops, want %d", l.ID, len(l.Stops), cfg.StopsPerLine)
		}
		if l.District < 0 || l.District >= cfg.Districts {
			t.Errorf("line %d district %d out of range", l.ID, l.District)
		}
		for _, s := range l.Stops {
			if s < 0 || s >= rm.Graph.N() {
				t.Errorf("line %d stop %d out of range", l.ID, s)
			}
		}
	}
	if rm.Districts() != cfg.Districts {
		t.Errorf("Districts = %d, want %d", rm.Districts(), cfg.Districts)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig(), 7)
	b := Generate(DefaultConfig(), 7)
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatal("points differ for identical seeds")
		}
	}
	for i := range a.Lines {
		if len(a.Lines[i].Stops) != len(b.Lines[i].Stops) {
			t.Fatal("lines differ for identical seeds")
		}
		for j := range a.Lines[i].Stops {
			if a.Lines[i].Stops[j] != b.Lines[i].Stops[j] {
				t.Fatal("stops differ for identical seeds")
			}
		}
	}
	c := Generate(DefaultConfig(), 8)
	same := true
	for i := range a.Points {
		if a.Points[i] != c.Points[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical jitter")
	}
}

func TestLegPathEndpoints(t *testing.T) {
	rm := Generate(DefaultConfig(), 1)
	l := rm.Lines[0]
	for i := 0; i < len(l.Stops); i++ {
		a := l.Stops[i]
		b := l.Stops[(i+1)%len(l.Stops)]
		pts := rm.LegPath(a, b)
		if len(pts) == 0 {
			t.Fatalf("empty leg path %d->%d", a, b)
		}
		if pts[0] != rm.Points[a] || pts[len(pts)-1] != rm.Points[b] {
			t.Fatalf("leg path endpoints wrong for %d->%d", a, b)
		}
	}
}

func TestLineOfNodeRoundRobin(t *testing.T) {
	rm := Generate(DefaultConfig(), 1)
	n := len(rm.Lines)
	for i := 0; i < 3*n; i++ {
		if rm.LineOfNode(i).ID != i%n {
			t.Fatalf("LineOfNode(%d) = %d", i, rm.LineOfNode(i).ID)
		}
		if rm.DistrictOfNode(i) != rm.Lines[i%n].District {
			t.Fatalf("DistrictOfNode(%d) mismatch", i)
		}
	}
}

// TestLinesBridgeDistricts verifies the ring-bridging property that keeps
// the DTN connected: every line (when more than one district exists)
// touches its own district and the next one.
func TestLinesBridgeDistricts(t *testing.T) {
	cfg := DefaultConfig()
	rm := Generate(cfg, 3)
	nx, ny := cfg.GridX, cfg.GridY
	districtOf := func(v int) int {
		ix, iy := v%nx, v/nx
		for d := 0; d < cfg.Districts; d++ {
			x0, x1, y0, y1 := districtRect(d, cfg.Districts, nx, ny)
			if ix >= x0 && ix <= x1 && iy >= y0 && iy <= y1 {
				return d
			}
		}
		return -1
	}
	for _, l := range rm.Lines {
		foundNext := false
		next := (l.District + 1) % cfg.Districts
		for _, s := range l.Stops {
			if districtOf(s) == next {
				foundNext = true
			}
		}
		if !foundNext {
			t.Errorf("line %d (district %d) has no stop in district %d", l.ID, l.District, next)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"tiny grid":  func(c *Config) { c.GridX = 1 },
		"no lines":   func(c *Config) { c.Lines = 0 },
		"one stop":   func(c *Config) { c.StopsPerLine = 1 },
		"no distrct": func(c *Config) { c.Districts = 0 },
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			Generate(cfg, 1)
		}()
	}
}

func TestSingleDistrict(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Districts = 1
	cfg.Lines = 3
	rm := Generate(cfg, 2)
	if rm.Districts() != 1 {
		t.Errorf("Districts = %d", rm.Districts())
	}
}

// TestDistrictsFit checks the closed form against districtRect itself on
// every small grid: a configuration fits exactly when no district's
// rectangle is empty.
func TestDistrictsFit(t *testing.T) {
	for nx := 2; nx <= 12; nx++ {
		for ny := 2; ny <= 12; ny++ {
			for k := 1; k <= 30; k++ {
				want := true
				for d := 0; d < k; d++ {
					if x0, x1, y0, y1 := districtRect(d, k, nx, ny); x1 < x0 || y1 < y0 {
						want = false
					}
				}
				if got := DistrictsFit(Config{GridX: nx, GridY: ny, Districts: k}); got != want {
					t.Fatalf("%dx%d grid, %d districts: DistrictsFit = %v, rectangles say %v", nx, ny, k, got, want)
				}
			}
		}
	}
}
