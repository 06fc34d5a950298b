package routing

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/xrand"
)

// maxPropCostRef is the dense path-cost computation the indexed kernel
// replaced: the full n×n Σ(1−p) weight matrix, then a dense Dijkstra.
func maxPropCostRef(r *MaxProp) []float64 {
	n := len(r.probs)
	w := make([][]float64, n)
	for u := range w {
		w[u] = make([]float64, n)
		for v := range w[u] {
			w[u][v] = math.Inf(1)
			if p := r.probs[u][v]; u != v && r.updated[u] >= 0 && p > 0 {
				w[u][v] = max(1-p, 1e-9)
			}
		}
	}
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	src := r.Self.ID
	dist[src] = 0
	done := make([]bool, n)
	for {
		u, best := -1, math.Inf(1)
		for v := range dist {
			if !done[v] && dist[v] < best {
				u, best = v, dist[v]
			}
		}
		if u < 0 {
			return dist
		}
		done[u] = true
		for v, ew := range w[u] {
			if ew < math.Inf(1) && best+ew < dist[v] {
				dist[v] = best + ew
			}
		}
	}
}

// positiveColumns is the ascending positive-probability column set of a
// row — what its index must hold.
func positiveColumns(row []float64) []int {
	var out []int
	for v, p := range row {
		if p > 0 {
			out = append(out, v)
		}
	}
	return out
}

// TestMaxPropIndexedCostParity drives dense MaxProp worlds through random
// contact sequences under every gossip mode, then checks each router's row
// indexes against its probabilities and its path costs against the dense
// reference, bit for bit. The last node only ever meets node 0, so its own
// row holds a probability of 1 — the edge the 1e-9 cost floor keeps.
func TestMaxPropIndexedCostParity(t *testing.T) {
	const n = 10
	for _, mode := range []core.ExchangeMode{core.ExchangeFresher, core.ExchangeFlood, core.ExchangeDelta} {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%v-seed%d", mode, seed), func(t *testing.T) {
				f := MaxPropFactory(n, false, 0, mode)
				h := newHarness(t, n, func(int) network.Router { return f() })
				rng := xrand.New(seed)
				h.meet(n-1, 0, 1)
				for k := 0; k < 120; k++ {
					a, b := rng.Intn(n-1), rng.Intn(n-2)
					if b >= a {
						b++
					}
					h.meet(a, b, 1)
				}
				for i := 0; i < n; i++ {
					r := h.w.Node(i).Router.(*MaxProp)
					for u, row := range r.probs {
						if got, want := slices.Collect(r.nbrs.Cols(u)), positiveColumns(row); !slices.Equal(got, want) {
							t.Fatalf("node %d row %d: index %v, positive columns %v", i, u, got, want)
						}
						if got := r.nbrs.Len(u); got != len(positiveColumns(row)) {
							t.Fatalf("node %d row %d: index length %d, %d positive entries", i, u, got, len(positiveColumns(row)))
						}
					}
					r.refreshCost()
					want := maxPropCostRef(r)
					for v := range want {
						if math.Float64bits(r.Cost(v)) != math.Float64bits(want[v]) {
							t.Fatalf("node %d: Cost(%d) = %v, dense reference %v", i, v, r.Cost(v), want[v])
						}
					}
				}
			})
		}
	}
}

// TestMaxPropCopyRowClearsStaleEntries: a fresher row with fewer positive
// entries — which one node's growing vector never produces, but the copy
// must not assume — replaces the old row entirely.
func TestMaxPropCopyRowClearsStaleEntries(t *testing.T) {
	router := func(row1 ...float64) *MaxProp {
		r := &MaxProp{probs: [][]float64{{0, 0, 0}, row1, {0, 0, 0}}, nbrs: core.NewRowIndex(3)}
		for v, p := range row1 {
			if p > 0 {
				r.nbrs.Set(1, v)
			}
		}
		return r
	}
	r, o := router(0.5, 0, 0.5), router(0, 0, 1)
	r.copyRow(o, 1)
	if got := slices.Collect(r.nbrs.Cols(1)); !slices.Equal(r.probs[1], o.probs[1]) || !slices.Equal(got, []int{2}) {
		t.Fatalf("copied row %v index %v, want %v index [2]", r.probs[1], got, o.probs[1])
	}
}
