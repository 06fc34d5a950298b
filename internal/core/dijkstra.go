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

// IndexDijkstra is the heap Dijkstra behind every estimator path search:
// Theorem 3's MEMD (and its A2 ablation) and MaxProp's Σ(1−p) path costs.
// Vertices are global node ids below the kernel's size, and the caller
// feeds each settled vertex's edges from its row's entries (see Row). A
// run costs O(k + E log V) over the k stored rows and E stored edges it
// reaches, never O(n): the next Reset restores only the distances and row
// slots the run touched, so one n-wide kernel per world serves every node.
// (Restoring touched entries rather than stamping each one with a run
// number keeps Relax a single comparison, small enough to inline.)
//
// Its distances are bit-identical to an array Dijkstra's: with strictly
// positive weights every final distance is the minimum over settled
// in-neighbours u of dist[u]+w(u,v), whatever the settle order — and the
// (distance, id) heap order settles ties by lowest id just as the array
// scan does.
//
// Usage: Reset(src, rows), relax the source's edges with base 0, then
// relax RowOf(u) from each vertex Next returns until Next reports false.
// All scratch is retained across runs.
type IndexDijkstra struct {
	dist    []float64 // +Inf outside the vertices the current run reached
	heap    dijHeap
	settled []Reach
	run     uint64 // counts Resets

	// rowOf indexes the rows of the set given to Reset by owner; loaded
	// lists those owners so the next Reset can clear them.
	rowOf  []*Row
	loaded []int32
}

// Reach is one settled vertex of a run and its distance.
type Reach struct {
	ID int32
	D  float64
}

// NewIndexDijkstra returns a kernel over vertices 0..n-1.
func NewIndexDijkstra(n int) *IndexDijkstra {
	d := &IndexDijkstra{}
	d.ensure(n)
	return d
}

// ensure grows the kernel to at least n vertices.
func (d *IndexDijkstra) ensure(n int) {
	for len(d.dist) < n {
		d.dist = append(d.dist, math.Inf(1))
		d.rowOf = append(d.rowOf, nil)
	}
}

// Reset starts a run from src over the rows of rs (nil = none): every
// vertex unreached except src, settled at 0, and RowOf answering from rs
// until the next Reset.
func (d *IndexDijkstra) Reset(src int, rs *RowSet) {
	inf := math.Inf(1)
	// Every vertex the last run reached is settled or still queued.
	for _, r := range d.settled {
		d.dist[r.ID] = inf
	}
	for _, it := range d.heap {
		d.dist[it.id] = inf
	}
	for _, o := range d.loaded {
		d.rowOf[o] = nil
	}
	d.heap = d.heap[:0]
	d.run++
	d.dist[src] = 0
	d.settled = append(d.settled[:0], Reach{ID: int32(src)})
	d.loaded = d.loaded[:0]
	if rs != nil {
		d.loaded = append(d.loaded, rs.owners...)
		for i, o := range rs.owners {
			d.rowOf[o] = rs.slots[i].row
		}
	}
}

// Run identifies the current run: it changes at every Reset, so a caller
// that noted it can tell whether Dist still answers for its own run.
func (d *IndexDijkstra) Run() uint64 { return d.run }

// RowOf returns u's row in the set given to Reset, or nil.
func (d *IndexDijkstra) RowOf(u int) *Row { return d.rowOf[u] }

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
// distance; ok is false once none remains. A queued entry above its
// vertex's distance is stale: the vertex improved after the push, or
// already settled (only the push of its final distance matches it).
func (d *IndexDijkstra) Next() (u int, dist float64, ok bool) {
	for len(d.heap) > 0 {
		it := d.heap.pop()
		if it.d > d.dist[it.id] {
			continue
		}
		d.settled = append(d.settled, Reach{ID: it.id, D: it.d})
		return int(it.id), it.d, true
	}
	return 0, 0, false
}

// Dist returns v's distance in the current run; ok is false when v is
// unreached.
func (d *IndexDijkstra) Dist(v int) (dist float64, ok bool) {
	if v < 0 || v >= len(d.dist) {
		return math.Inf(1), false
	}
	return d.dist[v], d.dist[v] <= math.MaxFloat64
}

// Settled returns the vertices the current run settled so far, the source
// first, in settle order (shared scratch; copy to keep).
func (d *IndexDijkstra) Settled() []Reach { return d.settled }

// DistTo looks dst up in a copy of a run's settled list; unreached
// destinations read +Inf. The scan is linear: a contact's cache answers
// about one lookup per run, less than sorting the copy would cost.
func DistTo(settled []Reach, dst int) float64 {
	for _, r := range settled {
		if int(r.ID) == dst {
			return r.D
		}
	}
	return math.Inf(1)
}
