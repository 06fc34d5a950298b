package core

import (
	"fmt"
	"math"
)

// This file holds the sparse half of the estimator core: city-scale
// implementations of the MeetingStore contract and the MEMD computation
// whose state grows with the number of *observed* peers instead of the
// network size. Real urban contact graphs are sparse — each node ever meets
// a tiny fraction of the population — so per-row storage proportional to
// recorded meetings recovers the paper's protocols at 10⁴+ nodes where the
// dense n×n matrices cannot even be allocated.

// SparseRows is a row set keyed by owner id that holds only the rows its
// store ever published or learned — the sparse RowSet. The sparse MI store
// and MaxProp's sparse probability vectors both build on it. Each slot
// keeps the shared row pointer plus the store-local version of the slot's
// last mutation for delta digests.
//
// An optional MaxRows cap (SetCap) bounds the set for long-horizon runs:
// when a merge would grow the set past the cap, the rows with the oldest
// freshness timestamps — the stalest link state, least likely to still
// describe the network — are evicted first, except the pinned own row,
// which always survives. Evicted knowledge can always be re-learned from a
// fresher gossip; capping trades a little routing accuracy for a hard
// memory bound.
type SparseRows struct {
	rows    map[int]sparseSlot
	maxRows int // 0 = unbounded
	pin     int // owner id never evicted; -1 = none
	gossipMarks
}

// sparseSlot is one owner's entry in a SparseRows.
type sparseSlot struct {
	row *Row
	ver uint64
}

// NewSparseRows returns an empty, unbounded row set.
func NewSparseRows() *SparseRows {
	return &SparseRows{rows: make(map[int]sparseSlot), pin: -1}
}

// SetCap bounds the set to maxRows rows (0 = unbounded), never evicting
// the row owned by pin (-1 = none). An over-full set is trimmed
// immediately.
func (s *SparseRows) SetCap(maxRows, pin int) {
	s.maxRows = maxRows
	s.pin = pin
	s.evictOverCap()
}

// Len returns the number of stored rows (published or learned).
func (s *SparseRows) Len() int { return len(s.rows) }

// evictOverCap removes stalest rows until the cap is respected: the victim
// is the row with the smallest (Updated, owner id), never the pinned one.
// The full scan per eviction is fine — evictions are rare (one per
// over-cap merge insertion) and rows are at most maxRows+merge size.
func (s *SparseRows) evictOverCap() {
	if s.maxRows <= 0 {
		return
	}
	for len(s.rows) > s.maxRows {
		victim, vu, found := 0, 0.0, false
		for id, sl := range s.rows {
			if id == s.pin {
				continue
			}
			if u := sl.row.Updated; !found || u < vu || (u == vu && id < victim) {
				victim, vu, found = id, u, true
			}
		}
		if !found {
			return // only the pinned row remains
		}
		delete(s.rows, victim)
		s.evictGen++
	}
}

// Row implements RowSet.
func (s *SparseRows) Row(owner int) *Row { return s.rows[owner].row }

// Publish implements RowSet. Publishing never evicts: a new own row may
// sit one over the cap until the next merge trims the set.
func (s *SparseRows) Publish(owner int, r *Row) {
	s.version++
	s.rows[owner] = sparseSlot{row: r, ver: s.version}
}

// Version implements RowSet.
func (s *SparseRows) Version() uint64 { return s.version }

// clone returns a set holding the same row pointers, stamps and cap;
// delta watermarks are not carried over.
func (s *SparseRows) clone() *SparseRows {
	c := &SparseRows{rows: make(map[int]sparseSlot, len(s.rows)), maxRows: s.maxRows, pin: s.pin}
	for id, sl := range s.rows {
		c.rows[id] = sl
	}
	c.version, c.evictGen = s.version, s.evictGen
	return c
}

// MergeFresher copies into s every row of o that is strictly fresher,
// returning the exchange volume (rows copied, entries carried, serialized
// bytes). Map iteration order is fine here: row copies are independent, so
// no simulation-visible float order depends on it — and the exchange
// counters are order-independent sums. A configured cap (SetCap) is
// enforced after the merge, stalest rows first.
func (s *SparseRows) MergeFresher(o *SparseRows) ExchangeStats {
	return s.mergeFrom(o, 0, true)
}

// mergeFrom is MergeFresher restricted to the rows o advertised: a row
// travels only if o mutated it since the peers' last delta sync
// (slot ver > oSeen), or unconditionally with oFull (a full digest — the
// first sync, an eviction fallback, or plain MergeFresher). Restricting to
// advertised rows loses nothing: a sound watermark means every
// strictly-fresher row is advertised, which deltaEquivalence in
// exchange_test.go pins.
func (s *SparseRows) mergeFrom(other RowSet, oSeen uint64, oFull bool) ExchangeStats {
	o := other.(*SparseRows)
	var st ExchangeStats
	for id, osl := range o.rows {
		if !oFull && osl.ver <= oSeen {
			continue // not advertised: unchanged since the peers last met
		}
		if or := osl.row; or.Updated > updatedOf(s.rows[id].row) {
			s.Publish(id, or)
			st.AddRow(or.Len())
		}
	}
	s.evictOverCap()
	return st
}

func (s *SparseRows) gossip() *gossipMarks { return &s.gossipMarks }

// floodVolume is the cost of transmitting every published row.
func (s *SparseRows) floodVolume() ExchangeStats {
	var st ExchangeStats
	for _, sl := range s.rows {
		st.AddRow(sl.row.Len())
	}
	return st
}

// advertised counts and sizes the rows a delta digest carries: rows
// mutated past the watermark, or all rows for a full digest, each costing
// a varint (owner, stamp) entry.
func (s *SparseRows) advertised(seen uint64, full bool) (rows, payloadBytes int) {
	for id, sl := range s.rows {
		if full || sl.ver > seen {
			rows++
			payloadBytes += DigestEntryLen(id, sl.row.Updated)
		}
	}
	return rows, payloadBytes
}

// SparseMeetingStore implements MeetingStore with per-row storage over
// observed peers only: rows exist once published (own refresh) or learned
// (freshness merge), and each row holds only the finite intervals its owner
// recorded. An optional scope restricts the store to a node subset — CR's
// intra-community MI — exactly like a dense matrix over scoped ids.
type SparseMeetingStore struct {
	size  int
	scope map[int]struct{} // nil = all of 0..size-1
	rows  *SparseRows
}

// NewSparseMeetingStore returns an empty sparse store covering nodes
// 0..n-1.
func NewSparseMeetingStore(n int) *SparseMeetingStore {
	return &SparseMeetingStore{size: n, rows: NewSparseRows()}
}

// NewScopedSparseMeetingStore returns an empty sparse store covering
// exactly the given global node ids.
func NewScopedSparseMeetingStore(ids []int) *SparseMeetingStore {
	return NewSharedScopeSparseMeetingStore(NewScopeSet(ids))
}

// ScopeSet is a prebuilt node-id set for scoped sparse stores. Stores only
// read it, so one set can back every store with the same scope — CR shares
// one per community instead of rebuilding a members map per node, which at
// metro scale (100k nodes, communities of thousands) is the difference
// between an O(n·|community|) and an O(n) world build.
type ScopeSet map[int]struct{}

// NewScopeSet builds the id set for NewSharedScopeSparseMeetingStore,
// rejecting duplicate ids.
func NewScopeSet(ids []int) ScopeSet {
	scope := make(ScopeSet, len(ids))
	for _, id := range ids {
		if _, dup := scope[id]; dup {
			panic(fmt.Sprintf("core: duplicate id %d in sparse meeting store", id))
		}
		scope[id] = struct{}{}
	}
	return scope
}

// NewSharedScopeSparseMeetingStore returns an empty sparse store covering
// exactly the ids in scope. The set may be shared across stores and must
// not be mutated afterwards.
func NewSharedScopeSparseMeetingStore(scope ScopeSet) *SparseMeetingStore {
	return &SparseMeetingStore{size: len(scope), scope: scope, rows: NewSparseRows()}
}

// SetMaxRows bounds the store to maxRows rows (0 = unbounded) with
// stale-row eviction, never evicting self's own row — the long-horizon
// memory cap of Scenario.MaxSparseRows. Capping changes which link state a
// node retains, so it is off by default; summaries remain deterministic
// for any fixed cap.
func (s *SparseMeetingStore) SetMaxRows(maxRows, self int) {
	s.rows.SetCap(maxRows, self)
}

// StoredRows returns the number of rows currently held (published or
// learned) — the quantity MaxRows bounds.
func (s *SparseMeetingStore) StoredRows() int { return s.rows.Len() }

// Size implements MeetingStore.
func (s *SparseMeetingStore) Size() int { return s.size }

// Covers implements MeetingStore.
func (s *SparseMeetingStore) Covers(id int) bool {
	if s.scope == nil {
		return id >= 0 && id < s.size
	}
	_, ok := s.scope[id]
	return ok
}

// Interval implements MeetingStore.
func (s *SparseMeetingStore) Interval(a, b int) float64 {
	if !s.Covers(a) || !s.Covers(b) {
		return Unknown
	}
	if a == b {
		return 0
	}
	if v, ok := s.rows.Row(a).Get(b); ok {
		return v
	}
	return Unknown
}

// RowUpdated implements MeetingStore.
func (s *SparseMeetingStore) RowUpdated(id int) float64 {
	return updatedOf(s.rows.Row(id))
}

// KnownRows implements MeetingStore: every stored row was published.
func (s *SparseMeetingStore) KnownRows() int { return s.rows.Len() }

// UpdateOwnRow implements MeetingStore: rebuild the row owned by self from
// its contact history at time t, covering only in-scope peers with at least
// one recorded interval.
func (s *SparseMeetingStore) UpdateOwnRow(self int, t float64, h *History) {
	if !s.Covers(self) {
		panic(fmt.Sprintf("core: node %d not covered by sparse meeting store", self))
	}
	s.rows.Publish(self, ownMIRow(t, h, func(peer int) (int, bool) { return peer, s.Covers(peer) }))
}

// ForEachKnown implements MeetingStore: every stored entry is a finite
// recorded average, keyed by global id, so the row is visited verbatim.
func (s *SparseMeetingStore) ForEachKnown(owner int, f func(peer int, interval float64)) {
	peers, vals := s.rows.Row(owner).Entries()
	for k, p := range peers {
		f(int(p), vals[k])
	}
}

// Clone returns a copy of the store that shares its (immutable) rows and
// scope.
func (s *SparseMeetingStore) Clone() *SparseMeetingStore {
	return &SparseMeetingStore{size: s.size, scope: s.scope, rows: s.rows.clone()}
}

// SyncSparse merges a and b into the identical element-wise fresher rows,
// the sparse counterpart of SyncPair. It returns the combined exchange
// volume of both directions. With row caps the post-merge stores are no
// longer necessarily identical — each keeps its own freshest cap-full.
func SyncSparse(a, b *SparseMeetingStore) ExchangeStats {
	return SyncRows(a.rows, b.rows, -1, -1, ExchangeFresher)
}

// SparseDijkstra runs heap-based Dijkstra over an implicit sparse graph
// given by an edge callback, with reusable scratch: the distance map and
// the heap persist across runs so steady-state computations allocate only
// on growth. The heap is bounded by the reached vertex set — the recorded
// contact graph — never by the network size.
type SparseDijkstra struct {
	dist map[int]float64
	heap dijHeap
}

// NewSparseDijkstra returns a calculator with empty scratch.
func NewSparseDijkstra() *SparseDijkstra {
	return &SparseDijkstra{dist: make(map[int]float64)}
}

// Run computes shortest-path distances from src. For each settled vertex u,
// edges(u, relax) must invoke relax once per outgoing edge; non-positive
// and +Inf weights are ignored ("no edge"), matching the dense Dijkstra's
// edge test, so callers may pass raw rows. Distances are bit-identical to
// the dense computation over the equivalent matrix: with strictly positive
// weights, every final distance is the minimum over dist[u]+w(u,v) of the
// settled in-neighbours, independent of settle-order tie-breaks.
func (d *SparseDijkstra) Run(src int, edges func(u int, relax func(v int, w float64))) {
	clear(d.dist)
	d.heap = d.heap[:0]
	d.dist[src] = 0
	d.heap.push(dijItem{d: 0, id: int32(src)})
	base := 0.0
	relax := func(v int, w float64) {
		if w <= 0 || math.IsInf(w, 1) {
			return
		}
		nd := base + w
		if cur, ok := d.dist[v]; !ok || nd < cur {
			d.dist[v] = nd
			d.heap.push(dijItem{d: nd, id: int32(v)})
		}
	}
	for len(d.heap) > 0 {
		it := d.heap.pop()
		if it.d > d.dist[int(it.id)] {
			continue // stale entry; the vertex settled at a smaller distance
		}
		base = it.d
		edges(int(it.id), relax)
	}
}

// Dist returns the distance to v from the last Run. ok is false when v was
// not reached.
func (d *SparseDijkstra) Dist(v int) (float64, bool) {
	dist, ok := d.dist[v]
	return dist, ok
}

// ForEachReached visits every vertex reached by the last Run, in map order
// — callers feeding simulation state must store into an order-insensitive
// structure (a map) rather than reduce over the iteration.
func (d *SparseDijkstra) ForEachReached(f func(v int, dist float64)) {
	for v, dist := range d.dist {
		f(v, dist)
	}
}

// SparseMEMD computes minimum expected meeting delays (Theorem 3) over the
// recorded-edge graph of a sparse store: the holder's row comes from its
// Theorem-2 elapsed-conditioned EMDs, every other row from the gossiped MI
// averages, exactly as in the dense MEMD — but the Dijkstra touches only
// recorded edges, so a contact costs O(E log V) over the observed contact
// graph instead of O(n²) over the population.
type SparseMEMD struct {
	dij   *SparseDijkstra
	valid bool
}

// NewSparseMEMD returns a calculator with empty scratch. Unlike the dense
// MEMD it is not sized to a network: one instance serves any store.
func NewSparseMEMD() *SparseMEMD {
	return &SparseMEMD{dij: NewSparseDijkstra()}
}

// Compute runs the Theorem-3 Dijkstra from self at time t. Subsequent
// Delay calls answer from the result.
func (m *SparseMEMD) Compute(self int, t float64, h *History, mi MeetingStore) {
	m.dij.Run(self, func(u int, relax func(v int, w float64)) {
		if u == self {
			// Own row: elapsed-time-conditioned EMDs (Theorem 2), scoped to
			// the store's coverage like a dense row over scoped ids.
			h.forEachMet(func(peer int) {
				if !mi.Covers(peer) {
					return
				}
				if d, ok := h.EMD(peer, t); ok {
					relax(peer, d)
				}
			})
			return
		}
		mi.ForEachKnown(u, relax)
	})
	m.valid = true
}

// ComputeStoreOnly builds every row, including the holder's, from the
// store's published mean intervals — the MEED-style A2 ablation, which the
// dense path implements by filling the whole MD matrix from MI.
func (m *SparseMEMD) ComputeStoreOnly(self int, mi MeetingStore) {
	m.dij.Run(self, func(u int, relax func(v int, w float64)) {
		mi.ForEachKnown(u, relax)
	})
	m.valid = true
}

// Delay returns the minimum expected meeting delay from the node of the
// last Compute to dst: +Inf for unreached destinations, 0 for the holder
// itself. It panics if Compute was never called.
func (m *SparseMEMD) Delay(dst int) float64 {
	if !m.valid {
		panic("core: SparseMEMD.Delay before Compute")
	}
	if d, ok := m.dij.Dist(dst); ok {
		return d
	}
	return math.Inf(1)
}

// ForEachReached visits every destination with a finite delay, in map
// order; see SparseDijkstra.ForEachReached for the determinism caveat.
func (m *SparseMEMD) ForEachReached(f func(dst int, delay float64)) {
	if !m.valid {
		panic("core: SparseMEMD.ForEachReached before Compute")
	}
	m.dij.ForEachReached(f)
}
