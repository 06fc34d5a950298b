package core

import "math"

// dijItem is a pending (distance, vertex) heap entry.
type dijItem struct {
	d  float64
	id int32
}

// dijLess orders heap entries by distance, ties by lowest vertex id — the
// same settle order as a dense scan that picks the lowest id among equal
// distances.
func dijLess(a, b dijItem) bool {
	return a.d < b.d || (a.d == b.d && a.id < b.id)
}

// dijHeap is a binary min-heap of dijItems under dijLess. Its backing array
// is retained across runs, so steady-state Dijkstras allocate nothing.
type dijHeap []dijItem

// push inserts an item, maintaining the heap order.
func (h *dijHeap) push(it dijItem) {
	*h = append(*h, it)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !dijLess(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes and returns the minimum item.
func (h *dijHeap) pop() dijItem {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && dijLess(q[l], q[small]) {
			small = l
		}
		if r < n && dijLess(q[r], q[small]) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return top
}

// IndexDijkstra is the heap Dijkstra behind the dense estimators (MEMD
// and MaxProp's Σ(1−p) path costs): vertices are local indices 0..n-1,
// distances live in a dense slice, and the caller feeds each settled
// vertex's edges from its row's entries (see Row) instead of scanning a
// full matrix row. A run costs O(n + E log V) over the stored edges rather than
// the O(n²) of an array Dijkstra, and its distances are bit-identical to
// one: with strictly positive weights every final distance is the minimum
// over settled in-neighbours u of dist[u]+w(u,v), whatever the settle
// order — and the (distance, id) heap order settles ties by lowest id just
// as the array scan does.
//
// Usage: Reset(src), Relax the source's edges with base 0, then Relax each
// vertex Next returns from its distance until Next reports false. All
// scratch is retained across runs.
type IndexDijkstra struct {
	dist []float64
	done []bool
	heap dijHeap
}

// NewIndexDijkstra returns a kernel over n vertices.
func NewIndexDijkstra(n int) *IndexDijkstra {
	return &IndexDijkstra{dist: make([]float64, n), done: make([]bool, n)}
}

// Size returns the number of vertices.
func (d *IndexDijkstra) Size() int { return len(d.dist) }

// Reset starts a run from src: every distance +Inf except src's 0, src
// settled, the heap empty.
func (d *IndexDijkstra) Reset(src int) {
	inf := math.Inf(1)
	for i := range d.dist {
		d.dist[i] = inf
	}
	clear(d.done)
	d.heap = d.heap[:0]
	d.dist[src] = 0
	d.done[src] = true
}

// Relax offers the edge u→v of weight w from a settled vertex u at
// distance base. Non-positive, +Inf and NaN weights are "no edge" — the
// array Dijkstra's edge test — so callers may pass raw matrix entries.
// A settled v needs no check: it settled at a distance <= base, and
// base+w >= base for any positive w. Relax is small enough to inline into
// the callers' row loops; the heap push stays out of line in improve.
func (d *IndexDijkstra) Relax(v int, base, w float64) {
	if w > 0 && w <= math.MaxFloat64 && base+w < d.dist[v] {
		d.improve(v, base+w)
	}
}

// improve lowers v's tentative distance to nd and queues it.
func (d *IndexDijkstra) improve(v int, nd float64) {
	d.dist[v] = nd
	d.heap.push(dijItem{d: nd, id: int32(v)})
}

// Next settles and returns the closest unsettled reached vertex and its
// distance; ok is false once none remains.
func (d *IndexDijkstra) Next() (u int, dist float64, ok bool) {
	for len(d.heap) > 0 {
		it := d.heap.pop()
		if d.done[it.id] {
			continue // stale entry; the vertex settled at a smaller distance
		}
		d.done[it.id] = true
		return int(it.id), it.d, true
	}
	return 0, 0, false
}

// Dist returns the distances of the current run, by vertex (shared; do not
// mutate). Unreached vertices read +Inf.
func (d *IndexDijkstra) Dist() []float64 { return d.dist }
