package core

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// twinHistories drives a dense and a sparse history through an identical
// pseudo-random contact schedule and returns both.
func twinHistories(t *testing.T, self, n int, contacts int, seed int64) (*History, *History) {
	t.Helper()
	dense := NewHistory(self, n, 0)
	sparse := NewSparseHistory(self, n, 0)
	rng := xrand.New(seed)
	now := 0.0
	for i := 0; i < contacts; i++ {
		now += rng.Uniform(1, 50)
		peer := rng.Intn(n - 1)
		if peer >= self {
			peer++
		}
		dense.RecordContact(peer, now)
		sparse.RecordContact(peer, now)
	}
	return dense, sparse
}

// TestSparseHistoryParity: every estimator of Theorems 1, 2 and 4 must be
// bit-identical between the dense and the sparse storage mode.
func TestSparseHistoryParity(t *testing.T) {
	const n = 24
	dense, sparse := twinHistories(t, 3, n, 400, 7)
	if !sparse.Sparse() || dense.Sparse() {
		t.Fatal("storage modes mislabeled")
	}
	if dense.MetCount() != sparse.MetCount() {
		t.Fatalf("MetCount %d vs %d", dense.MetCount(), sparse.MetCount())
	}
	at := 2100.0
	members := []int{1, 2, 5, 9, 23}
	communities := [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8, 9}, {20, 21, 22, 23}}
	for _, tau := range []float64{0, 5, 60, 600, 1e6} {
		if d, s := dense.EEV(at, tau), sparse.EEV(at, tau); d != s {
			t.Fatalf("EEV(tau=%g): dense %v sparse %v", tau, d, s)
		}
		if d, s := dense.EEVSubset(at, tau, members), sparse.EEVSubset(at, tau, members); d != s {
			t.Fatalf("EEVSubset(tau=%g): dense %v sparse %v", tau, d, s)
		}
		if d, s := dense.CommunityProb(at, tau, members), sparse.CommunityProb(at, tau, members); d != s {
			t.Fatalf("CommunityProb(tau=%g): dense %v sparse %v", tau, d, s)
		}
		if d, s := dense.ENEC(at, tau, communities, 1), sparse.ENEC(at, tau, communities, 1); d != s {
			t.Fatalf("ENEC(tau=%g): dense %v sparse %v", tau, d, s)
		}
	}
	for peer := 0; peer < n; peer++ {
		if peer == 3 {
			continue
		}
		if d, s := dense.Met(peer), sparse.Met(peer); d != s {
			t.Fatalf("Met(%d): dense %v sparse %v", peer, d, s)
		}
		if d, s := dense.IntervalCount(peer), sparse.IntervalCount(peer); d != s {
			t.Fatalf("IntervalCount(%d): dense %v sparse %v", peer, d, s)
		}
		dm, dok := dense.MeanInterval(peer)
		sm, sok := sparse.MeanInterval(peer)
		if dm != sm || dok != sok {
			t.Fatalf("MeanInterval(%d): dense %v,%v sparse %v,%v", peer, dm, dok, sm, sok)
		}
		de, deok := dense.EMD(peer, at)
		se, seok := sparse.EMD(peer, at)
		if de != se || deok != seok {
			t.Fatalf("EMD(%d): dense %v,%v sparse %v,%v", peer, de, deok, se, seok)
		}
		if d, s := dense.EncounterProb(peer, at, 40), sparse.EncounterProb(peer, at, 40); d != s {
			t.Fatalf("EncounterProb(%d): dense %v sparse %v", peer, d, s)
		}
	}
}

// TestSparseSnapshotParity: the meeting-time snapshot must answer exactly
// like the dense one, including the overdue and met-without-interval
// conventions, and recycled sparse snapshots must stay correct.
func TestSparseSnapshotParity(t *testing.T) {
	const n = 16
	dense, sparse := twinHistories(t, 0, n, 250, 11)
	// One extra first-time meeting: met but no interval => probability 0.
	dense.RecordContact(15, 9000)
	sparse.RecordContact(15, 9000)
	var sp EEVSnapshot
	for _, at := range []float64{9001, 9100, 12000} {
		ds := dense.SnapshotEEV(at)
		ss := sparse.SnapshotEEVInto(at, &sp) // recycled across at values
		for _, tau := range []float64{0, 3, 47, 900, 1e5} {
			if d, s := ds.EEV(tau), ss.EEV(tau); d != s {
				t.Fatalf("snapshot EEV(at=%g, tau=%g): dense %v sparse %v", at, tau, d, s)
			}
			for peer := 0; peer < n; peer++ {
				if d, s := ds.Prob(peer, tau), ss.Prob(peer, tau); d != s {
					t.Fatalf("snapshot Prob(%d, tau=%g) at %g: dense %v sparse %v", peer, tau, at, d, s)
				}
			}
			members := []int{2, 3, 7, 15}
			if d, s := ds.CommunityProb(tau, members), ss.CommunityProb(tau, members); d != s {
				t.Fatalf("snapshot CommunityProb: dense %v sparse %v", d, s)
			}
		}
	}
}

// TestSparseMeetingStoreContract mirrors the dense matrix tests against
// the sparse implementation.
func TestSparseMeetingStoreContract(t *testing.T) {
	var m MeetingStore = NewSparseMeetingStore(3)
	if m.Size() != 3 {
		t.Fatalf("Size = %d, want 3", m.Size())
	}
	if v := m.Interval(0, 1); !math.IsInf(v, 1) {
		t.Errorf("fresh interval = %g, want +Inf", v)
	}
	if v := m.Interval(1, 1); v != 0 {
		t.Errorf("diagonal = %g, want 0", v)
	}
	if u := m.RowUpdated(0); u != -1 {
		t.Errorf("fresh RowUpdated = %g, want -1", u)
	}
	h := NewSparseHistory(0, 3, 0)
	h.RecordContact(1, 10)
	h.RecordContact(1, 40) // mean 30
	m.UpdateOwnRow(0, 40, h)
	if v := m.Interval(0, 1); v != 30 {
		t.Errorf("Interval(0,1) = %g, want 30", v)
	}
	if v := m.Interval(0, 2); !math.IsInf(v, 1) {
		t.Errorf("Interval(0,2) = %g, want +Inf", v)
	}
	if u := m.RowUpdated(0); u != 40 {
		t.Errorf("RowUpdated = %g, want 40", u)
	}
	if m.KnownRows() != 1 {
		t.Errorf("KnownRows = %d, want 1", m.KnownRows())
	}
}

// TestSparseScopedStore checks the CR usage: scope restriction and
// out-of-scope peers ignored on row refresh.
func TestSparseScopedStore(t *testing.T) {
	m := NewScopedSparseMeetingStore([]int{3, 7, 9})
	if m.Size() != 3 {
		t.Fatalf("Size = %d, want 3", m.Size())
	}
	if m.Covers(5) {
		t.Error("Covers(5) should be false")
	}
	if v := m.Interval(3, 5); !math.IsInf(v, 1) {
		t.Errorf("uncovered Interval = %g, want +Inf", v)
	}
	h := NewSparseHistory(7, 10, 0)
	h.RecordContact(9, 0)
	h.RecordContact(9, 50)
	h.RecordContact(2, 1) // outside the store scope; must be ignored
	h.RecordContact(2, 2)
	m.UpdateOwnRow(7, 50, h)
	if v := m.Interval(7, 9); v != 50 {
		t.Errorf("Interval(7,9) = %g, want 50", v)
	}
	if v := m.Interval(7, 2); !math.IsInf(v, 1) {
		t.Errorf("out-of-scope entry leaked: %g", v)
	}
}

// TestSyncSparseFreshness mirrors TestMergeFreshness for the sparse store,
// through the interface-level Sync.
func TestSyncSparseFreshness(t *testing.T) {
	a := NewSparseMeetingStore(2)
	b := NewSparseMeetingStore(2)
	ha := NewSparseHistory(0, 2, 0)
	ha.RecordContact(1, 0)
	ha.RecordContact(1, 20)
	a.UpdateOwnRow(0, 20, ha)

	hb := NewSparseHistory(1, 2, 0)
	hb.RecordContact(0, 0)
	hb.RecordContact(0, 30)
	b.UpdateOwnRow(1, 30, hb)

	Sync(a, b)
	if v := a.Interval(1, 0); v != 30 {
		t.Errorf("a learned Interval(1,0) = %g, want 30", v)
	}
	if v := b.Interval(0, 1); v != 20 {
		t.Errorf("b learned Interval(0,1) = %g, want 20", v)
	}
	if a.KnownRows() != 2 || b.KnownRows() != 2 {
		t.Errorf("KnownRows after sync = %d, %d; want 2, 2", a.KnownRows(), b.KnownRows())
	}

	// A staler copy must not overwrite a fresher row.
	stale := NewSparseMeetingStore(2)
	hs := NewSparseHistory(1, 2, 0)
	hs.RecordContact(0, 0)
	hs.RecordContact(0, 5)
	stale.UpdateOwnRow(1, 5, hs)
	Sync(a, stale)
	if v := a.Interval(1, 0); v != 30 {
		t.Errorf("row overwritten by stale merge: %g", v)
	}
}

// denseSparseWorld builds the same gossiped MI state in both storage
// modes from one pseudo-random meeting schedule and returns, per node, the
// histories and stores.
func denseSparseWorld(t *testing.T, n, meetings int, seed int64) (dh, sh []*History, dm []*MeetingMatrix, sm []*SparseMeetingStore, now float64) {
	t.Helper()
	dh = make([]*History, n)
	sh = make([]*History, n)
	dm = make([]*MeetingMatrix, n)
	sm = make([]*SparseMeetingStore, n)
	for i := 0; i < n; i++ {
		dh[i] = NewHistory(i, n, 0)
		sh[i] = NewSparseHistory(i, n, 0)
		dm[i] = NewFullMeetingMatrix(n)
		sm[i] = NewSparseMeetingStore(n)
	}
	rng := xrand.New(seed)
	for k := 0; k < meetings; k++ {
		now += rng.Uniform(1, 30)
		a := rng.Intn(n)
		b := rng.Intn(n - 1)
		if b >= a {
			b++
		}
		for _, p := range [2][2]int{{a, b}, {b, a}} {
			u, v := p[0], p[1]
			dh[u].RecordContact(v, now)
			sh[u].RecordContact(v, now)
			dm[u].UpdateOwnRow(u, now, dh[u])
			sm[u].UpdateOwnRow(u, now, sh[u])
		}
		SyncPair(dm[a], dm[b])
		SyncSparse(sm[a], sm[b])
	}
	return dh, sh, dm, sm, now
}

// TestSparseMEMDMatchesDense: Theorem-3 delays from the sparse heap
// Dijkstra must be bit-identical to the dense fused Dijkstra over the
// equivalent MD matrix, for every source and destination of a gossiped
// random world.
func TestSparseMEMDMatchesDense(t *testing.T) {
	const n = 14
	dh, sh, dm, sm, now := denseSparseWorld(t, n, 300, 5)
	at := now + 13
	denseCalc := NewMEMD(n)
	sparseCalc := NewSparseMEMD()
	for src := 0; src < n; src++ {
		denseCalc.Compute(src, at, dh[src], dm[src])
		sparseCalc.Compute(src, at, sh[src], sm[src])
		for dst := 0; dst < n; dst++ {
			d, s := denseCalc.Delay(dst), sparseCalc.Delay(dst)
			if d != s && !(math.IsInf(d, 1) && math.IsInf(s, 1)) {
				t.Fatalf("MEMD(%d→%d): dense %v sparse %v", src, dst, d, s)
			}
		}
		if got := sparseCalc.Delay(99); !math.IsInf(got, 1) {
			t.Fatalf("uncovered destination delay = %v, want +Inf", got)
		}
	}
}

// TestSparseMEMDStoreOnlyMatchesDenseA2: the MEED-style ablation path
// (every row from MI, including the holder's) must also match the dense
// all-from-MI matrix computation.
func TestSparseMEMDStoreOnlyMatchesDenseA2(t *testing.T) {
	const n = 10
	_, _, dm, sm, _ := denseSparseWorld(t, n, 200, 9)
	sparseCalc := NewSparseMEMD()
	for src := 0; src < n; src++ {
		// Dense A2 reference: dense Dijkstra over w[i][j] = MI(i,j).
		w := make([][]float64, n)
		for i := 0; i < n; i++ {
			w[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				w[i][j] = dm[src].Interval(i, j)
			}
		}
		dist := make([]float64, n)
		denseDijkstraRef(w, src, dist)
		sparseCalc.ComputeStoreOnly(src, sm[src])
		for dst := 0; dst < n; dst++ {
			d, s := dist[dst], sparseCalc.Delay(dst)
			if d != s && !(math.IsInf(d, 1) && math.IsInf(s, 1)) {
				t.Fatalf("A2 MEMD(%d→%d): dense %v sparse %v", src, dst, d, s)
			}
		}
	}
}

// denseDijkstraRef is a plain reference Dijkstra over a dense matrix (no
// dependency on the graph package from core's tests).
func denseDijkstraRef(w [][]float64, src int, dist []float64) {
	n := len(w)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for {
		u, best := -1, math.Inf(1)
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] < best {
				u, best = v, dist[v]
			}
		}
		if u < 0 {
			return
		}
		done[u] = true
		for v := 0; v < n; v++ {
			if ew := w[u][v]; v != u && ew > 0 && !math.IsInf(ew, 1) {
				if nd := best + ew; nd < dist[v] {
					dist[v] = nd
				}
			}
		}
	}
}

// TestSparseRowOps covers the shared row machinery the sparse and dense
// stores and MaxProp build on: ascending lookups, nil rows as empty rows,
// and the ordering contract NewRow enforces.
func TestSparseRowOps(t *testing.T) {
	r := NewRow(5, []int32{2, 7, 11}, []float64{2, 4, 3})
	if r.Len() != 3 || r.Updated != 5 {
		t.Fatalf("Len = %d, Updated = %g; want 3, 5", r.Len(), r.Updated)
	}
	if v, ok := r.Get(7); !ok || v != 4 {
		t.Fatalf("Get(7) = %v,%v want 4,true", v, ok)
	}
	if _, ok := r.Get(3); ok {
		t.Fatal("Get(3) should miss")
	}
	var none *Row
	if peers, vals := none.Entries(); none.Len() != 0 || peers != nil || vals != nil {
		t.Fatal("nil row not empty")
	}
	if _, ok := none.Get(2); ok {
		t.Fatal("nil row Get hit")
	}
	if updatedOf(none) != -1 || updatedOf(r) != 5 {
		t.Fatal("updatedOf wrong")
	}
	for _, bad := range [][]int32{{7, 2}, {3, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRow accepted peers %v", bad)
				}
			}()
			NewRow(0, bad, make([]float64, len(bad)))
		}()
	}
}

// TestSparseDijkstraBoundedHeap sanity-checks that unreached vertices stay
// absent: the result set is bounded by the recorded contact graph, never
// the network size.
func TestSparseDijkstraBoundedHeap(t *testing.T) {
	d := NewSparseDijkstra()
	edges := map[int][][2]float64{ // u -> (v, w)
		0: {{1, 5}, {2, 1}},
		2: {{1, 2}},
	}
	d.Run(0, func(u int, relax func(v int, w float64)) {
		for _, e := range edges[u] {
			relax(int(e[0]), e[1])
		}
	})
	if v, ok := d.Dist(1); !ok || v != 3 {
		t.Fatalf("Dist(1) = %v,%v want 3", v, ok)
	}
	reached := 0
	d.ForEachReached(func(v int, dist float64) { reached++ })
	if reached != 3 { // 0, 1, 2 — nothing else materialised
		t.Fatalf("reached %d vertices, want 3", reached)
	}
}

// fillRow publishes a single-entry row owned by id at freshness t into s.
func fillRow(s *SparseRows, id int, t float64) {
	s.Publish(id, NewRow(t, []int32{int32((id + 1) % 1000)}, []float64{1}))
}

// TestSparseRowsCapEviction: a capped row set evicts the stalest rows
// first, never the pinned own row, and merges respect the cap.
func TestSparseRowsCapEviction(t *testing.T) {
	s := NewSparseRows()
	s.SetCap(3, 7)
	fillRow(s, 7, 5) // own row, pinned despite being stale

	// Learn rows via merge, fresher than the own row.
	o := NewSparseRows()
	for i, tm := range map[int]float64{1: 10, 2: 20, 3: 30} {
		fillRow(o, i, tm)
	}
	st := s.MergeFresher(o)
	if st.Rows != 3 || st.Entries != 3 {
		t.Fatalf("merge stats = %+v, want 3 rows / 3 entries", st)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (cap)", s.Len())
	}
	// The stalest learned row (id 1, t=10) was evicted; the pinned stale
	// own row survived.
	if s.Row(1) != nil {
		t.Error("stalest row 1 not evicted")
	}
	if s.Row(7) == nil {
		t.Error("pinned own row evicted")
	}
	if s.Row(2) == nil || s.Row(3) == nil {
		t.Error("fresher rows evicted")
	}

	// A fresher incoming row displaces the now-stalest resident (id 2).
	o2 := NewSparseRows()
	fillRow(o2, 4, 40)
	s.MergeFresher(o2)
	if s.Row(2) != nil {
		t.Error("stalest row 2 not evicted on over-cap merge")
	}
	if s.Row(4) == nil {
		t.Error("fresh row 4 not retained")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3 after second merge", s.Len())
	}

	// Ties on freshness evict the smaller owner id, deterministically.
	tie := NewSparseRows()
	tie.SetCap(1, -1)
	src := NewSparseRows()
	fillRow(src, 5, 50)
	fillRow(src, 6, 50)
	tie.MergeFresher(src)
	if tie.Len() != 1 || tie.Row(6) == nil {
		t.Errorf("tie eviction kept wrong row (len=%d)", tie.Len())
	}
}

// TestSparseMeetingStoreMaxRows: the MeetingStore-level cap keeps the own
// row queryable and bounds StoredRows.
func TestSparseMeetingStoreMaxRows(t *testing.T) {
	const n = 10
	s := NewSparseMeetingStore(n)
	s.SetMaxRows(2, 0)
	h := NewSparseHistory(0, n, 0)
	h.RecordContact(1, 10)
	h.RecordContact(1, 30)
	s.UpdateOwnRow(0, 30, h)

	o := NewSparseMeetingStore(n)
	oh := NewSparseHistory(3, n, 0)
	oh.RecordContact(4, 5)
	oh.RecordContact(4, 25)
	o.UpdateOwnRow(3, 40, oh)
	oh.RecordContact(5, 45)
	SyncSparse(s, o)
	if s.StoredRows() != 2 {
		t.Fatalf("StoredRows = %d, want 2", s.StoredRows())
	}
	if s.Interval(0, 1) != 20 {
		t.Errorf("own row entry lost: %g", s.Interval(0, 1))
	}
	// A fresher third row evicts node 3's, not the pinned own row.
	o2 := NewSparseMeetingStore(n)
	o2h := NewSparseHistory(6, n, 0)
	o2h.RecordContact(7, 10)
	o2h.RecordContact(7, 20)
	o2.UpdateOwnRow(6, 50, o2h)
	SyncSparse(s, o2)
	if s.Interval(0, 1) != 20 {
		t.Errorf("own row evicted: %g", s.Interval(0, 1))
	}
	if s.RowUpdated(3) != -1 {
		t.Errorf("stale row 3 survived the cap (updated %g)", s.RowUpdated(3))
	}
	if s.RowUpdated(6) != 50 {
		t.Errorf("fresh row 6 missing (updated %g)", s.RowUpdated(6))
	}
}
