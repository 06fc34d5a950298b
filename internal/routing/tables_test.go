package routing

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/network"
)

// fullProphet is the reference PRoPHET table update: the transitive rule
// skips the two contact ends inside the loop.
type fullProphet struct {
	p        []float64
	lastAged float64
}

func (f *fullProphet) age(r *Prophet, t float64) {
	if t <= f.lastAged {
		return
	}
	g := math.Pow(r.Gamma, (t-f.lastAged)/r.AgingUnit)
	for i := range f.p {
		f.p[i] *= g
	}
	f.lastAged = t
}

func (f *fullProphet) contactUp(r *Prophet, t float64, self, peer int, pf *fullProphet) {
	f.age(r, t)
	f.p[peer] += (1 - f.p[peer]) * r.PInit
	pf.age(r, t)
	pij := f.p[peer]
	for k, pjk := range pf.p {
		if k == self || k == peer {
			continue
		}
		if v := pij * pjk * r.Beta; v > f.p[k] {
			f.p[k] = v
		}
	}
}

// fullFocus is the reference Spray-and-Focus timer update, skipping the
// router's own entry inside the loop.
type fullFocus struct{ lastSeen []float64 }

func (f *fullFocus) contactUp(r *SprayAndFocus, t float64, self, peer int, pf *fullFocus) {
	f.lastSeen[peer] = t
	for k, ts := range pf.lastSeen {
		if k == self {
			continue
		}
		if adopted := ts - r.TransitivityPenalty; adopted > f.lastSeen[k] {
			f.lastSeen[k] = adopted
		}
	}
}

// sameBits fails unless got and want are equal bit for bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: entry %d = %v, full loop %v", what, k, got[k], want[k])
		}
	}
}

// TestTableUpdatesMatchFullLoop pins the transitive updates of Prophet
// and SprayAndFocus, which run over every entry and then restore the ones
// the rule skips, against the plain skipping loops. Random contact
// scripts call ContactUp on both sides of each contact; gaps are mostly
// short, sometimes long enough for aging to flush predictabilities to
// exactly zero, and Prophet's P also ages tables between contacts. After
// every contact every table must equal its reference copy bit for bit.
func TestTableUpdatesMatchFullLoop(t *testing.T) {
	const n = 40
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ph := newHarness(t, n, func(int) network.Router { return NewProphet() })
		fh := newHarness(t, n, func(int) network.Router { return NewSprayAndFocus(4) })
		prophet := func(i int) *Prophet { return ph.w.Node(i).Router.(*Prophet) }
		focus := func(i int) *SprayAndFocus { return fh.w.Node(i).Router.(*SprayAndFocus) }
		fullP := make([]*fullProphet, n)
		fullF := make([]*fullFocus, n)
		for i := range fullP {
			fullP[i] = &fullProphet{p: make([]float64, n)}
			fullF[i] = &fullFocus{lastSeen: slices.Repeat([]float64{math.Inf(-1)}, n)}
		}
		everLive := make([]bool, n*n)
		zeroed := false // some entry went live, then aged to exactly 0
		now := 0.0
		for step := 0; step < 300; step++ {
			switch rng.Intn(40) {
			case 0:
				now += 2e6 // 0.98^(2e6/30) underflows: every p ages to 0
			case 1:
				now += 2e4 // deep but non-zero aging
			default:
				now += rng.Float64() * 90
			}
			a, b := rng.Intn(n), rng.Intn(n-1)
			if b >= a {
				b++
			}
			for _, side := range [][2]int{{a, b}, {b, a}} {
				i, j := side[0], side[1]
				prophet(i).ContactUp(now, ph.w.Node(j))
				fullP[i].contactUp(prophet(i), now, i, j, fullP[j])
				focus(i).ContactUp(now, fh.w.Node(j))
				fullF[i].contactUp(focus(i), now, i, j, fullF[j])
			}
			if rng.Intn(4) == 0 { // aging outside a contact
				k := rng.Intn(n)
				prophet(k).P(now, rng.Intn(n))
				fullP[k].age(prophet(k), now)
			}
			for i := range fullP {
				r := prophet(i)
				sameBits(t, "prophet", r.p, fullP[i].p)
				if r.lastAged != fullP[i].lastAged {
					t.Fatalf("prophet %d: aged at %v, full loop %v", i, r.lastAged, fullP[i].lastAged)
				}
				for k, v := range r.p {
					zeroed = zeroed || (v == 0 && everLive[i*n+k])
					everLive[i*n+k] = everLive[i*n+k] || v != 0
				}
				sameBits(t, "focus", focus(i).lastSeen, fullF[i].lastSeen)
			}
		}
		if !zeroed {
			t.Fatalf("seed %d: script never flushed an aged entry", seed)
		}
	}
}
