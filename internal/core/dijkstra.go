package core

import (
	"math"
	"math/bits"
)

// dijItem is a pending (distance, vertex) queue entry.
type dijItem struct {
	d  float64
	id int32
}

// radixQueue is a monotone radix queue of dijItems: it pops them in
// ascending (distance, id) order — ties by lowest vertex id, the same
// settle order as a dense scan that picks the lowest id among equal
// distances — provided no push falls below the last pop or reported
// minimum, which holds for every Dijkstra key: the kernel pushes only the
// edges of the vertex it just popped. Its backing arrays are retained across runs, so
// steady-state Dijkstras allocate nothing.
//
// Distances are non-negative, so their IEEE bit patterns order as
// unsigned integers. An entry lives in bucket bits.Len64(key ^ last),
// where last is the key of the last pop or reported minimum: bucket 0
// holds exactly the entries at that distance, and bucket b > 0 those whose
// highest bit differing from it is b-1. A sign bit never differs, so 64
// buckets cover every key and one word masks the non-empty ones. When
// bucket 0 is empty, a refill scans the lowest non-empty bucket for its
// minimum, makes that the new last and redistributes the bucket, every
// entry into a strictly lower one; each entry thus moves at most 64 times
// in its life, and each move touches only the entries it moves.
type radixQueue struct {
	last    uint64 // key of the last pop or reported minimum
	mask    uint64 // bit b set: buckets[b] is non-empty
	buckets [64][]dijItem
}

// key is the radix key of a non-negative distance.
func key(d float64) uint64 { return math.Float64bits(d) }

// push queues it; its distance must not be below the last pop's or the
// last minimum reported.
func (q *radixQueue) push(it dijItem) {
	b := bits.Len64(key(it.d) ^ q.last)
	q.buckets[b] = append(q.buckets[b], it)
	q.mask |= 1 << b
}

// min returns the smallest queued distance; ok is false when nothing is
// queued. Entries above their vertex's distance in dist are stale (see
// IndexDijkstra.Next), and refills drop them, so min may empty the queue.
func (q *radixQueue) min(dist []float64) (d float64, ok bool) {
	for q.mask&1 == 0 {
		if q.mask == 0 {
			return 0, false
		}
		q.refill(dist)
	}
	return math.Float64frombits(q.last), true
}

// pop removes and returns the entry with the smallest distance, the lowest
// id among ties; min must have reported one.
func (q *radixQueue) pop() dijItem {
	b0 := q.buckets[0]
	k := 0
	for i := 1; i < len(b0); i++ {
		if b0[i].id < b0[k].id {
			k = i
		}
	}
	it := b0[k]
	n := len(b0) - 1
	b0[k] = b0[n]
	q.buckets[0] = b0[:n]
	if n == 0 {
		q.mask &^= 1
	}
	return it
}

// refill empties the lowest non-empty bucket: it drops the stale entries,
// makes the smallest live distance the new last and redistributes the
// live entries, so bucket 0 holds every one at it.
func (q *radixQueue) refill(dist []float64) {
	b := bits.TrailingZeros64(q.mask)
	items := q.buckets[b]
	q.buckets[b] = items[:0]
	q.mask &^= 1 << b
	last := uint64(math.MaxUint64)
	for _, it := range items {
		if it.d <= dist[it.id] {
			last = min(last, key(it.d))
		}
	}
	if last == math.MaxUint64 {
		return
	}
	q.last = last
	for _, it := range items {
		if it.d <= dist[it.id] {
			nb := bits.Len64(key(it.d) ^ last)
			q.buckets[nb] = append(q.buckets[nb], it)
			q.mask |= 1 << nb
		}
	}
}

// drain appends every queued entry to dst, in no particular order, and
// empties the queue; last is kept.
func (q *radixQueue) drain(dst []dijItem) []dijItem {
	for m := q.mask; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		dst = append(dst, q.buckets[b]...)
		q.buckets[b] = q.buckets[b][:0]
	}
	q.mask = 0
	return dst
}

// reset empties the queue.
func (q *radixQueue) reset() {
	for m := q.mask; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		q.buckets[b] = q.buckets[b][:0]
	}
	q.mask = 0
}

// IndexDijkstra is the Dijkstra kernel behind every estimator path search:
// Theorem 3's MEMD (and its A2 ablation) and MaxProp's Σ(1−p) path costs.
// Vertices are global node ids below the kernel's size, and the caller
// feeds each settled vertex's edges from its row's entries (see Row). A
// run costs O(k + E) plus at most 64 moves per queued entry over the k
// stored rows and E stored edges it reaches, never O(n): the next run
// restores only the distances and row slots the run touched, so one
// n-wide kernel per world serves every node. (Restoring touched entries
// rather than stamping each one with a run number keeps Relax a single
// comparison, small enough to inline.)
//
// Its distances are bit-identical to an array Dijkstra's: with strictly
// positive weights every final distance is the minimum over settled
// in-neighbours u of dist[u]+w(u,v), whatever the settle order — and the
// radix queue settles ties by lowest id just as the array scan does.
//
// Usage: Reset(src, rows), relax the source's edges with base 0, then
// relax RowOf(u) from each vertex Next returns until Next reports false.
// MEMD also keeps runs apart from the kernel, as paused runs it resumes.
// All scratch is retained across runs.
type IndexDijkstra struct {
	dist    []float64 // +Inf outside the vertices the current run reached
	queue   radixQueue
	settled []Reach
	run     uint64 // counts Resets and resumes
	settles int64  // counts settled vertices over the kernel's life

	// rowOf indexes the rows of the current run by owner; loaded lists
	// those owners (an immutable RowSet owner list) so that the next run
	// can clear them.
	rowOf  []*Row
	loaded []int32

	// paused is the paused run whose state the kernel holds, or nil;
	// spare keeps the kernel's own settled storage meanwhile.
	paused *pausedRun
	spare  []Reach
}

// Reach is one settled vertex of a run and its distance.
type Reach struct {
	ID int32
	D  float64
}

// pausedRun is a kernel run kept apart from the kernel: its frozen row
// set, its settled list and the entries still queued. Resuming it
// continues exactly where it stopped, whatever ran on the kernel in
// between, over the rows it started with. While a kernel holds it, its
// state lives in the kernel; release takes it back. The zero value is an
// empty run.
type pausedRun struct {
	owners  []int32 // the frozen set's owner list (immutable, shared)
	rows    []*Row  // rows[i] belongs to owners[i]
	queue   []dijItem
	last    uint64 // the queue's last pop or reported minimum
	settled []Reach
	on      *IndexDijkstra // the kernel holding the run, or nil
}

// start makes p a new run from src over the rows of rs as they are now,
// with nothing queued: the caller seeds the source's edges.
func (p *pausedRun) start(src int, rs *RowSet) {
	p.release()
	p.owners, p.rows = rs.owners, p.rows[:0]
	for i := range rs.slots {
		p.rows = append(p.rows, rs.slots[i].row)
	}
	p.queue, p.last = p.queue[:0], 0
	p.settled = append(p.settled[:0], Reach{ID: int32(src)})
}

// seed queues the source's edge to v of weight w under Relax's edge test —
// what Relax does from the source of a new run, given that v is not the
// source and is seeded at most once.
func (p *pausedRun) seed(v int, w float64) {
	if w > 0 && w <= math.MaxFloat64 {
		p.queue = append(p.queue, dijItem{d: w, id: int32(v)})
	}
}

// release takes p's state back from the kernel holding it, if any.
func (p *pausedRun) release() {
	if p.on != nil {
		p.on.release()
	}
}

// clear forgets p's run, dropping its row pointers so that a run kept for
// its storage pins no superseded rows.
func (p *pausedRun) clear() {
	p.release()
	clear(p.rows)
	p.owners, p.rows = nil, p.rows[:0]
	p.queue, p.settled = p.queue[:0], p.settled[:0]
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

// release restores every distance and row slot the current run touched
// and empties the queue; a paused run the kernel held gets its state back.
func (d *IndexDijkstra) release() {
	inf := math.Inf(1)
	// Every vertex the run reached is settled or still queued.
	for _, r := range d.settled {
		d.dist[r.ID] = inf
	}
	for m := d.queue.mask; m != 0; m &= m - 1 {
		for _, it := range d.queue.buckets[bits.TrailingZeros64(m)] {
			d.dist[it.id] = inf
		}
	}
	for _, o := range d.loaded {
		d.rowOf[o] = nil
	}
	d.loaded = nil
	p := d.paused
	if p == nil {
		d.queue.reset()
		return
	}
	p.queue = d.queue.drain(p.queue[:0])
	p.last = d.queue.last
	p.settled, d.settled = d.settled, d.spare
	d.spare = nil
	p.on, d.paused = nil, nil
}

// Reset starts a run from src over the rows of rs (nil = none): every
// vertex unreached except src, settled at 0, and RowOf answering from rs
// until the next run. A paused run the kernel held is released first.
func (d *IndexDijkstra) Reset(src int, rs *RowSet) {
	d.release()
	d.queue.last = 0
	d.run++
	d.dist[src] = 0
	d.settled = append(d.settled[:0], Reach{ID: int32(src)})
	if rs != nil {
		d.loaded = rs.owners
		for i, o := range rs.owners {
			d.rowOf[o] = rs.slots[i].row
		}
	}
}

// resume makes p the kernel's current run, from where it stopped: Next,
// Relax, RowOf and Dist answer for it, over the rows it started with. A
// run the kernel already holds resumes at no cost.
func (d *IndexDijkstra) resume(p *pausedRun) {
	if p.on == d {
		return
	}
	p.release()
	d.release()
	d.run++
	d.paused, p.on = p, d
	d.spare, d.settled = d.settled, p.settled
	for _, r := range p.settled {
		d.dist[r.ID] = r.D
	}
	d.queue.last = p.last
	for _, it := range p.queue {
		d.dist[it.id] = min(d.dist[it.id], it.d)
		d.queue.push(it)
	}
	d.loaded = p.owners
	for i, o := range p.owners {
		d.rowOf[o] = p.rows[i]
	}
}

// Run identifies the current run: it changes at every Reset and resume, so
// a caller that noted it can tell whether Dist still answers for its own
// run.
func (d *IndexDijkstra) Run() uint64 { return d.run }

// RowOf returns u's row in the current run's row set, or nil.
func (d *IndexDijkstra) RowOf(u int) *Row { return d.rowOf[u] }

// Relax offers the edge u→v of weight w from a settled vertex u at
// distance base. Non-positive, +Inf and NaN weights are "no edge" — the
// array Dijkstra's edge test — so callers may pass raw matrix entries.
// A settled v needs no check: it settled at a distance <= base, and
// base+w >= base for any positive w. Relax is small enough to inline into
// the callers' row loops; the queue push stays out of line in improve.
func (d *IndexDijkstra) Relax(v int, base, w float64) {
	if w > 0 && w <= math.MaxFloat64 && base+w < d.dist[v] {
		d.improve(v, base+w)
	}
}

// improve lowers v's tentative distance to nd and queues it.
func (d *IndexDijkstra) improve(v int, nd float64) {
	d.dist[v] = nd
	d.queue.push(dijItem{d: nd, id: int32(v)})
}

// Next settles and returns the closest unsettled reached vertex and its
// distance; ok is false once none remains. A queued entry above its
// vertex's distance is stale: the vertex improved after the push, or
// already settled (only the push of its final distance matches it).
func (d *IndexDijkstra) Next() (u int, dist float64, ok bool) {
	for {
		if _, ok := d.queue.min(d.dist); !ok {
			return 0, 0, false
		}
		it := d.queue.pop()
		if it.d > d.dist[it.id] {
			continue
		}
		d.settled = append(d.settled, Reach{ID: it.id, D: it.d})
		d.settles++
		return int(it.id), it.d, true
	}
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
