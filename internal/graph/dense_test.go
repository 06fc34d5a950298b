package graph

import "math"

// The fused array Dijkstra below computed the Theorem-3 MEMD and MaxProp's
// path costs over full n×n matrices until the estimators gained per-row
// neighbour indexes (core.IndexDijkstra). It stays as the dense reference
// the graph tests cross-check against the heap Dijkstra.

// DenseDijkstra runs Dijkstra on a dense n×n weight matrix w, where
// w[i][j] is the direct edge weight from i to j (+Inf or <=0 off-diagonal
// meaning "no edge"; the diagonal is ignored). It writes shortest-path
// distances from src into dist, which must have length n.
func DenseDijkstra(w [][]float64, src int, dist []float64) {
	DenseDijkstraScratch(w, src, dist, make([]int32, len(w)+1))
}

// DenseDijkstraScratch is DenseDijkstra with caller-provided scratch of
// length n+1.
func DenseDijkstraScratch(w [][]float64, src int, dist []float64, next []int32) {
	n := len(w)
	if len(dist) != n {
		panic("graph: DenseDijkstra dist length mismatch")
	}
	if len(next) != n+1 {
		panic("graph: DenseDijkstra scratch length mismatch")
	}
	inf := math.Inf(1)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	// Unvisited vertices form an ascending singly-linked list threaded
	// through next (slot n is the head sentinel), so each pass walks only
	// the remaining vertices instead of flag-checking all n. Each
	// iteration settles u and, in one ascending pass, relaxes u's row
	// while selecting the next closest unvisited vertex. The relaxation
	// of v always happens before v is considered for selection, so the
	// selected vertex — ties resolving to the lowest id — and every
	// distance are bit-identical to the classic two-pass formulation.
	prev := int32(n)
	for v := 0; v < n; v++ {
		if v == src {
			continue
		}
		next[prev] = int32(v)
		prev = int32(v)
	}
	next[prev] = -1
	u, best := src, 0.0
	for u >= 0 {
		row := w[u]
		nu, nbest := int32(-1), inf
		bp := int32(n) // predecessor of nu in the list
		pv := int32(n)
		for v := next[n]; v >= 0; v = next[v] {
			// Relax v via u. ew <= 0 or +Inf means "no edge"; nd is then
			// +Inf or worse and never improves dist[v], but skipping it
			// avoids the float work on sparse rows.
			if ew := row[v]; ew > 0 && ew < inf {
				if nd := best + ew; nd < dist[v] {
					dist[v] = nd
				}
			}
			if dist[v] < nbest {
				nu, nbest, bp = v, dist[v], pv
			}
			pv = v
		}
		if nu >= 0 {
			next[bp] = next[nu] // settle nu: unlink it
		}
		u, best = int(nu), nbest
	}
}
