package routing

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// adoptSpecials are the float64 values where a merge is easiest to get
// wrong: NaNs (quiet, signalling, negative), signed zeros, infinities,
// subnormals and the extremes.
var adoptSpecials = []float64{
	math.NaN(),
	math.Float64frombits(0x7ff0000000000001), // signalling NaN
	math.Float64frombits(0xfff8000000000000), // negative quiet NaN
	0,
	math.Copysign(0, -1),
	math.Inf(1),
	math.Inf(-1),
	math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), // largest subnormal
	math.MaxFloat64,
	-math.MaxFloat64,
	1,
	-1,
	120,
}

// adoptReader turns fuzz bytes into float64s: a tag byte picks either a
// special value or the next eight bytes as a raw bit pattern (zero-padded
// once the input runs out).
type adoptReader struct{ b []byte }

func (r *adoptReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *adoptReader) float() float64 {
	tag := r.byte()
	if tag%2 == 0 {
		return adoptSpecials[int(tag/2)%len(adoptSpecials)]
	}
	var raw [8]byte
	n := copy(raw[:], r.b)
	r.b = r.b[n:]
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
}

// checkAdoptTimers runs adoptTimers and the Go loop on copies of the same
// inputs and requires bit-equal results over all of seen.
func checkAdoptTimers(t *testing.T, seen, peer []float64, penalty float64) {
	t.Helper()
	got := append([]float64(nil), seen...)
	want := append([]float64(nil), seen...)
	adoptTimers(got, peer, penalty)
	adoptTimersGo(want, peer, penalty)
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("len(seen)=%d len(peer)=%d penalty=%v: seen[%d] = %v (%#x), Go loop %v (%#x)",
				len(seen), len(peer), penalty, k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
		}
	}
}

// FuzzAdoptTimers: for arbitrary timers, penalties and lengths 0-257
// (seen possibly longer than peer), adoptTimers leaves seen bit-equal to
// the Go loop.
func FuzzAdoptTimers(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 0, 2, 4, 6, 8, 10, 12, 14})
	f.Add([]byte{240, 0, 0, 0, 8, 2, 3, 1, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Add([]byte{255, 1, 3, 28, 1, 1, 2, 3, 4, 5, 6, 7, 8, 6, 8, 10, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &adoptReader{b: data}
		n := (int(r.byte()) | int(r.byte()&1)<<8) % 258
		extra := int(r.byte() % 4)
		penalty := r.float()
		peer := make([]float64, n)
		seen := make([]float64, n+extra)
		for k := range peer {
			peer[k] = r.float()
			seen[k] = r.float()
		}
		for k := n; k < len(seen); k++ {
			seen[k] = r.float()
		}
		checkAdoptTimers(t, seen, peer, penalty)
	})
}

// TestAdoptTimersLengths covers odd lengths (a scalar tail after the
// pairs), the paper's 240 nodes, and a seen longer than peer, whose
// entries past len(peer) must stay untouched.
func TestAdoptTimersLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	value := func() float64 {
		if rng.Intn(4) == 0 {
			return adoptSpecials[rng.Intn(len(adoptSpecials))]
		}
		return rng.Float64()*2000 - 500
	}
	for _, c := range []struct{ seen, peer int }{
		{0, 0}, {1, 1}, {2, 2}, {3, 3}, {5, 5}, {7, 7}, {239, 239}, {241, 241},
		{240, 240}, {257, 257},
		{4, 1}, {8, 3}, {241, 240}, {300, 240},
	} {
		for range 20 {
			seen := make([]float64, c.seen)
			peer := make([]float64, c.peer)
			for k := range seen {
				seen[k] = value()
			}
			for k := range peer {
				peer[k] = value()
			}
			checkAdoptTimers(t, seen, peer, []float64{120, 0, math.Copysign(0, -1), math.Inf(1), math.NaN()}[rng.Intn(5)])
		}
		if c.seen > c.peer {
			seen := []float64{}
			for range c.seen {
				seen = append(seen, math.Inf(-1))
			}
			peer := make([]float64, c.peer)
			adoptTimers(seen, peer, 1)
			for k := c.peer; k < c.seen; k++ {
				if !math.IsInf(seen[k], -1) {
					t.Fatalf("seen[%d] = %v past len(peer) = %d, want untouched", k, seen[k], c.peer)
				}
			}
		}
	}
}

// TestAdoptTimersShortSeenPanics: a seen shorter than peer is an index
// error on every architecture, as in the Go loop.
func TestAdoptTimersShortSeenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("adoptTimers accepted a seen shorter than peer")
		}
	}()
	adoptTimers(make([]float64, 2), make([]float64, 3), 1)
}
