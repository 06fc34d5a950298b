package routing

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// probRow is a row accessor for the oracles below: owner u's probability
// vector as a full n-wide slice (zero where the row holds no entry), and
// whether u ever published it.
func probRow(r *MaxProp, n, u int) (row []float64, published bool) {
	row = make([]float64, n)
	pr := r.rows.Row(u)
	peers, vals := pr.Entries()
	for k, v := range peers {
		row[v] = vals[k]
	}
	return row, pr != nil
}

// maxPropCostRef is the dense path-cost computation the indexed kernel
// replaced: the full n×n Σ(1−p) weight matrix, then a dense Dijkstra.
func maxPropCostRef(r *MaxProp, n int) []float64 {
	w := make([][]float64, n)
	for u := range w {
		probs, published := probRow(r, n, u)
		w[u] = make([]float64, n)
		for v := range w[u] {
			w[u][v] = math.Inf(1)
			if p := probs[v]; u != v && published && p > 0 {
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
// row — exactly the peers a published row must hold.
func positiveColumns(row []float64) []int {
	var out []int
	for v, p := range row {
		if p > 0 {
			out = append(out, v)
		}
	}
	return out
}

// TestMaxPropIndexedCostParity drives MaxProp worlds through random
// contact sequences under every gossip mode, then checks that each
// router's rows hold exactly their positive probabilities and that its
// path costs match the dense reference, bit for bit. The last node only ever meets node 0, so its own
// row holds a probability of 1 — the edge the 1e-9 cost floor keeps.
func TestMaxPropIndexedCostParity(t *testing.T) {
	const n = 10
	for _, mode := range []core.ExchangeMode{core.ExchangeFresher, core.ExchangeFlood, core.ExchangeDelta} {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%v-seed%d", mode, seed), func(t *testing.T) {
				f := MaxPropFactory(n, 0, mode)
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
					for u := 0; u < n; u++ {
						row, _ := probRow(r, n, u)
						peers, _ := r.rows.Row(u).Entries()
						var got []int
						for _, v := range peers {
							got = append(got, int(v))
						}
						if want := positiveColumns(row); !slices.Equal(got, want) {
							t.Fatalf("node %d row %d: entries at %v, positive columns %v", i, u, got, want)
						}
					}
					r.refreshCost()
					want := maxPropCostRef(r, n)
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
// entries — which one node's growing vector never produces, but the
// exchange must not assume — replaces the old row entirely.
func TestMaxPropCopyRowClearsStaleEntries(t *testing.T) {
	r, o := core.NewRowSet(), core.NewRowSet()
	r.Publish(1, core.NewRow(1, []int32{0, 2}, []float64{0.5, 0.5}))
	o.Publish(1, core.NewRow(2, []int32{2}, []float64{1}))
	core.SyncRows(r, o, 0, 2, core.ExchangeFresher)
	peers, vals := r.Row(1).Entries()
	if !slices.Equal(peers, []int32{2}) || !slices.Equal(vals, []float64{1}) {
		t.Fatalf("copied row holds %v %v, want [2] [1]", peers, vals)
	}
}

// TestMaxPropUnderflowMeteringParity: node 0 meets node 2 once, then node 1
// k times, so its probability for node 2 halves at every normalisation
// until it underflows to zero; then it meets node 2 again. A row holds
// only positive probabilities — the entries the exchange meters — so the
// underflowed entry leaves node 0's row, and no router ever holds a zero
// entry.
func TestMaxPropUnderflowMeteringParity(t *testing.T) {
	for _, tc := range []struct {
		k    int
		held []int32 // node 0's own-row peers before meeting node 2 again
	}{{1000, []int32{1, 2}}, {1100, []int32{1}}} {
		f := MaxPropFactory(3, 0, core.ExchangeFresher)
		h := newHarness(t, 3, func(int) network.Router { return f() })
		h.meet(0, 2, 1)
		for range tc.k {
			h.meet(0, 1, 1)
		}
		r0 := h.w.Node(0).Router.(*MaxProp)
		if peers, _ := r0.rows.Row(0).Entries(); !slices.Equal(peers, tc.held) {
			t.Errorf("k=%d: own row holds peers %v, want %v", tc.k, peers, tc.held)
		}
		h.meet(0, 2, 1)
		for i := range 3 {
			r := h.w.Node(i).Router.(*MaxProp)
			for owner := range 3 {
				if _, vals := r.rows.Row(owner).Entries(); slices.ContainsFunc(vals, func(v float64) bool { return !(v > 0) }) {
					t.Fatalf("k=%d: node %d holds row %d with a non-positive entry: %v", tc.k, i, owner, vals)
				}
			}
		}
	}
}

// dropVictimRef is MaxProp's drop order over given path costs: the
// highest-cost copy, hops when its cost is unknown (or no costs at all),
// first index on ties.
func dropVictimRef(copies []*msg.Copy, cost []float64) int {
	best, bestScore := 0, math.Inf(-1)
	for i, c := range copies {
		score := float64(c.Hops)
		if cost != nil && !math.IsInf(cost[c.M.To], 1) {
			score = 1e6 * cost[c.M.To]
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// checkLazyCosts audits every router whose cost cache is validated: each
// pathCost must match the dense reference bit for bit, and the drop policy
// must pick the victim the reference costs pick, whether its reads fill
// the cache (the lazy path) or find it filled (an eager refresh). The
// audit restores the lazy state it found, so the simulation's own reads
// still run the deferred Dijkstras.
func checkLazyCosts(t *testing.T, h *harness, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		r := h.w.Node(i).Router.(*MaxProp)
		copies := r.Self.Buf.All()
		if !r.costValid {
			if got, want := r.dropVictim(0, copies), dropVictimRef(copies, nil); got != want {
				t.Fatalf("node %d cold cache: drop victim %d, reference %d", i, got, want)
			}
			continue
		}
		computed, runs := r.costComputed, r.costRuns
		want := maxPropCostRef(r, n)
		for v := range want {
			r.costComputed = computed
			if got := r.pathCost(v); math.Float64bits(got) != math.Float64bits(want[v]) {
				t.Fatalf("node %d (computed=%v): pathCost(%d) = %v, dense reference %v", i, computed, v, got, want[v])
			}
		}
		if len(copies) > 0 {
			wantVictim := dropVictimRef(copies, want)
			r.costComputed = computed
			if got := r.dropVictim(0, copies); got != wantVictim {
				t.Fatalf("node %d lazy drop victim %d, reference %d", i, got, wantVictim)
			}
			r.refreshCost()
			if got := r.dropVictim(0, copies); got != wantVictim {
				t.Fatalf("node %d eager drop victim %d, reference %d", i, got, wantVictim)
			}
		}
		r.costComputed, r.costRuns = computed, runs
	}
}

// TestMaxPropLazyCostParity drives MaxProp worlds under every gossip mode
// through random meetings with messages in flight, over a dense contact
// graph (any pair meets) and a sparse one (ring neighbours only, so rows
// hold at most two entries and costs follow long chains):
// small buffers force drops, transfers take one tick each so the audit
// runs after every transfer, and hop thresholds 0–2 make the transmission
// sort compare costs. After every meet and transfer, checkLazyCosts holds
// and the deferred path costs did fewer Dijkstras than an eager refresh
// at every validation would have.
func TestMaxPropLazyCostParity(t *testing.T) {
	const n = 10
	for _, sparse := range []bool{false, true} {
		for _, mode := range []core.ExchangeMode{core.ExchangeFresher, core.ExchangeFlood, core.ExchangeDelta} {
			t.Run(fmt.Sprintf("sparse=%v-%v", sparse, mode), func(t *testing.T) {
				f := MaxPropFactory(n, 0, mode)
				runner := sim.NewRunner(1)
				// 1000-byte messages at 1000 B/s: one transfer per tick.
				w := network.New(network.Config{Range: 10, Bandwidth: 1000}, runner)
				h := &harness{t: t, w: w, runner: runner}
				for i := 0; i < n; i++ {
					mv := &switchMover{}
					h.movers = append(h.movers, mv)
					r := f().(*MaxProp)
					r.HopThreshold = i % 3
					w.AddNode(mv, buffer.New(3000), r)
				}
				h.scatter()
				w.Start()
				rng := xrand.New(int64(mode) + 1)
				for k := 0; k < 150; k++ {
					if from, to := rng.Intn(n), rng.Intn(n); from != to {
						h.send(from, to, 5000)
					}
					a, b := rng.Intn(n), rng.Intn(n-1)
					if b >= a {
						b++
					}
					if sparse {
						b = (a + 1 + rng.Intn(2)*(n-2)) % n // a±1
					}
					h.movers[a].moveTo(-500, -500)
					h.movers[b].moveTo(-495, -500)
					for range 4 {
						h.runner.Run(h.runner.Now() + 1)
						checkLazyCosts(t, h, n)
					}
					h.scatter()
					h.runner.Run(h.runner.Now() + 2)
					checkLazyCosts(t, h, n)
				}
				validations, runs := 0, 0
				for i := 0; i < n; i++ {
					r := h.w.Node(i).Router.(*MaxProp)
					validations += r.costValidations
					runs += r.costRuns
				}
				if drops := h.w.Metrics.Drops(); drops == 0 || runs == 0 || runs >= validations {
					t.Fatalf("%d drops, %d Dijkstras for %d validations: the run did not exercise deferred costs", drops, runs, validations)
				}
				t.Logf("%d drops, %d Dijkstras for %d validations", h.w.Metrics.Drops(), runs, validations)
			})
		}
	}
}
