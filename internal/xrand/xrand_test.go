package xrand

import "testing"

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestDeriveStable(t *testing.T) {
	a := Derive(7, "mobility")
	b := Derive(7, "mobility")
	c := Derive(7, "traffic")
	same, diff := true, false
	for i := 0; i < 50; i++ {
		va, vb, vc := a.Float64(), b.Float64(), c.Float64()
		if va != vb {
			same = false
		}
		if va != vc {
			diff = true
		}
	}
	if !same {
		t.Error("Derive with same name diverged")
	}
	if !diff {
		t.Error("Derive with different names produced identical streams")
	}
}

func TestChildDerive(t *testing.T) {
	p1 := New(1)
	p2 := New(1)
	if p1.Derive("x").Float64() != p2.Derive("x").Float64() {
		t.Error("child streams not reproducible")
	}
}

func TestUniformRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform out of range: %g", v)
		}
	}
}

func TestUniformIntRange(t *testing.T) {
	s := New(3)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.UniformInt(2, 4)
		if v < 2 || v > 4 {
			t.Fatalf("UniformInt out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Errorf("UniformInt did not cover range: %v", seen)
	}
}

func TestUniformIntInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).UniformInt(5, 4)
}

func TestPickWeighted(t *testing.T) {
	s := New(5)
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[s.Pick([]float64{1, 0, 3})]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight option picked %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("weight ratio = %g, want ~3", ratio)
	}
}

func TestPickZeroTotalUniform(t *testing.T) {
	s := New(5)
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		seen[s.Pick([]float64{0, 0, 0})] = true
	}
	if len(seen) != 3 {
		t.Errorf("zero-weight Pick not uniform: %v", seen)
	}
}

func TestPickEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Pick(nil)
}
