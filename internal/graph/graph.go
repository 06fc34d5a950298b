// Package graph implements the weighted undirected graphs of the road
// networks (mobility substrate): adjacency lists, heap-based Dijkstra and
// a shared shortest-path cache. Meeting-delay Dijkstras run in
// internal/core over the estimators' own neighbour indexes.
package graph

import (
	"container/heap"
	"fmt"
	"math"
	"sync"
)

// Graph is a weighted undirected graph over vertices 0..n-1 with adjacency
// lists. Edge weights must be non-negative.
type Graph struct {
	n   int
	adj [][]Edge
}

// Edge is a weighted half-edge stored in an adjacency list.
type Edge struct {
	To     int
	Weight float64
}

// New returns an empty graph with n vertices.
func New(n int) *Graph {
	return &Graph{n: n, adj: make([][]Edge, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge inserts an undirected edge between u and v. It panics on a
// negative weight or out-of-range vertex.
func (g *Graph) AddEdge(u, v int, w float64) {
	if w < 0 {
		panic(fmt.Sprintf("graph: negative edge weight %g", w))
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	g.adj[u] = append(g.adj[u], Edge{To: v, Weight: w})
	g.adj[v] = append(g.adj[v], Edge{To: u, Weight: w})
}

// Neighbors returns the adjacency list of u (shared; do not mutate).
func (g *Graph) Neighbors(u int) []Edge { return g.adj[u] }

// Degree returns the number of half-edges at u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// HasEdge reports whether an edge u-v exists.
func (g *Graph) HasEdge(u, v int) bool {
	for _, e := range g.adj[u] {
		if e.To == v {
			return true
		}
	}
	return false
}

// item is a priority-queue entry for Dijkstra.
type item struct {
	v    int
	dist float64
}

type pq []item

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(item)) }
func (q *pq) Pop() any          { old := *q; n := len(old); x := old[n-1]; *q = old[:n-1]; return x }

// Dijkstra returns the shortest-path distance from src to every vertex and
// the predecessor array. Unreachable vertices have distance +Inf and
// predecessor -1.
func (g *Graph) Dijkstra(src int) (dist []float64, prev []int) {
	dist = make([]float64, g.n)
	prev = make([]int, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	q := &pq{{v: src, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(item)
		if it.dist > dist[it.v] {
			continue // stale entry
		}
		for _, e := range g.adj[it.v] {
			nd := it.dist + e.Weight
			if nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = it.v
				heap.Push(q, item{v: e.To, dist: nd})
			}
		}
	}
	return dist, prev
}

// Path reconstructs the vertex sequence from src to dst given a predecessor
// array produced by Dijkstra(src). It returns nil if dst is unreachable.
func Path(prev []int, src, dst int) []int {
	if src == dst {
		return []int{src}
	}
	if prev[dst] == -1 {
		return nil
	}
	var rev []int
	for v := dst; v != -1; v = prev[v] {
		rev = append(rev, v)
		if v == src {
			break
		}
	}
	if rev[len(rev)-1] != src {
		return nil
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// ShortestPath returns the vertex sequence and total weight of the shortest
// path from src to dst, or (nil, +Inf) if unreachable.
func (g *Graph) ShortestPath(src, dst int) ([]int, float64) {
	dist, prev := g.Dijkstra(src)
	if math.IsInf(dist[dst], 1) {
		return nil, math.Inf(1)
	}
	return Path(prev, src, dst), dist[dst]
}

// Connected reports whether every vertex is reachable from vertex 0.
// An empty graph is connected.
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[u] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == g.n
}

// PathCache memoises shortest paths on a fixed graph. Bus movement asks
// for the same stop-to-stop paths thousands of times per run. It is safe
// for concurrent use: sharded tick workers and memoised road maps shared
// across pooled simulations all query one cache.
type PathCache struct {
	g  *Graph
	mu sync.RWMutex
	// paths is written once per key under mu; the slices themselves are
	// immutable after insertion.
	paths map[[2]int][]int
}

// NewPathCache returns a cache over g.
func NewPathCache(g *Graph) *PathCache {
	return &PathCache{g: g, paths: make(map[[2]int][]int)}
}

// Path returns the cached shortest path from src to dst (nil if
// unreachable). The returned slice is shared; callers must not mutate it.
// Concurrent callers racing on a miss each compute the (deterministic)
// path outside the lock, but every caller receives the first slice stored,
// so one canonical slice per key circulates.
func (c *PathCache) Path(src, dst int) []int {
	key := [2]int{src, dst}
	c.mu.RLock()
	p, ok := c.paths[key]
	c.mu.RUnlock()
	if ok {
		return p
	}
	p, _ = c.g.ShortestPath(src, dst)
	c.mu.Lock()
	if q, ok := c.paths[key]; ok {
		p = q
	} else {
		c.paths[key] = p
	}
	c.mu.Unlock()
	return p
}
