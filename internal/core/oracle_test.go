package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// refHistory is the all-peers oracle for History: every contact time per
// peer, with each estimator recomputed from its definition over every
// peer 0..n-1 — never-met peers included — in ascending id order.
type refHistory struct {
	self, n, window int
	times           [][]float64
}

func newRefHistory(self, n int) *refHistory {
	return &refHistory{self: self, n: n, window: DefaultWindow, times: make([][]float64, n)}
}

// intervals returns peer's last r.window meeting intervals, oldest first.
func (r *refHistory) intervals(peer int) []float64 {
	ts := r.times[peer]
	var out []float64
	for k := 1; k < len(ts); k++ {
		out = append(out, ts[k]-ts[k-1])
	}
	return out[max(0, len(out)-r.window):]
}

func (r *refHistory) prob(peer int, t, tau float64) float64 {
	ts := r.times[peer]
	if peer == r.self || tau <= 0 || len(ts) < 2 {
		return 0
	}
	elapsed := max(t-ts[len(ts)-1], 0)
	m, mTau := 0, 0
	for _, dt := range r.intervals(peer) {
		if dt > elapsed {
			m++
			if dt <= elapsed+tau {
				mTau++
			}
		}
	}
	if m == 0 {
		return 1
	}
	return float64(mTau) / float64(m)
}

func (r *refHistory) emd(peer int, t float64) (float64, bool) {
	ts := r.times[peer]
	if peer == r.self || len(ts) < 2 {
		return math.Inf(1), false
	}
	elapsed := max(t-ts[len(ts)-1], 0)
	m, sumM, sum := 0, 0.0, 0.0
	iv := r.intervals(peer)
	for _, dt := range iv {
		sum += dt
		if dt > elapsed {
			m++
			sumM += dt
		}
	}
	if m == 0 {
		return math.Max(sum/float64(len(iv)), MinDelay), true
	}
	return math.Max(sumM/float64(m)-elapsed, MinDelay), true
}

func (r *refHistory) eev(t, tau float64) float64 {
	sum := 0.0
	for j := 0; j < r.n; j++ {
		sum += r.prob(j, t, tau)
	}
	return sum
}

func (r *refHistory) subset(t, tau float64, members []int) float64 {
	sum := 0.0
	for _, j := range members {
		sum += r.prob(j, t, tau)
	}
	return sum
}

func (r *refHistory) communityProb(t, tau float64, members []int) float64 {
	miss := 1.0
	for _, j := range members {
		if j != r.self {
			miss *= 1 - r.prob(j, t, tau)
		}
	}
	if miss == 0 {
		return 1
	}
	return 1 - miss
}

// twinHistories drives a History and its oracle through an identical
// pseudo-random contact schedule and returns both.
func twinHistories(self, n int, contacts int, seed int64) (*History, *refHistory) {
	h, ref := NewHistory(self, n, 0), newRefHistory(self, n)
	rng := xrand.New(seed)
	now := 0.0
	for i := 0; i < contacts; i++ {
		now += rng.Uniform(1, 50)
		peer := rng.Intn(n - 1)
		if peer >= self {
			peer++
		}
		h.RecordContact(peer, now)
		ref.times[peer] = append(ref.times[peer], now)
	}
	return h, ref
}

// sameBits reports whether two floats are identical bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSparseHistoryParity: every estimator of Theorems 1, 2 and 4 over the
// observed-peer History must equal the all-peers oracle bit for bit.
func TestSparseHistoryParity(t *testing.T) {
	const n = 24
	h, ref := twinHistories(3, n, 400, 7)
	met := 0
	for _, ts := range ref.times {
		if len(ts) > 0 {
			met++
		}
	}
	if h.MetCount() != met {
		t.Fatalf("MetCount %d, oracle %d", h.MetCount(), met)
	}
	at := 2100.0
	members := []int{1, 2, 5, 9, 23}
	communities := [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8, 9}, {20, 21, 22, 23}}
	for _, tau := range []float64{0, 5, 60, 600, 1e6} {
		if got, want := h.EEV(at, tau), ref.eev(at, tau); !sameBits(got, want) {
			t.Fatalf("EEV(tau=%g) = %v, oracle %v", tau, got, want)
		}
		if got, want := h.EEVSubset(at, tau, members), ref.subset(at, tau, members); !sameBits(got, want) {
			t.Fatalf("EEVSubset(tau=%g) = %v, oracle %v", tau, got, want)
		}
		if got, want := h.CommunityProb(at, tau, members), ref.communityProb(at, tau, members); !sameBits(got, want) {
			t.Fatalf("CommunityProb(tau=%g) = %v, oracle %v", tau, got, want)
		}
		enec := 0.0
		for k, c := range communities {
			if k != 1 {
				enec += ref.communityProb(at, tau, c)
			}
		}
		if got := h.ENEC(at, tau, communities, 1); !sameBits(got, enec) {
			t.Fatalf("ENEC(tau=%g) = %v, oracle %v", tau, got, enec)
		}
	}
	for peer := 0; peer < n; peer++ {
		if peer == 3 {
			continue
		}
		ts := ref.times[peer]
		if h.Met(peer) != (len(ts) > 0) {
			t.Fatalf("Met(%d) = %v with %d contacts", peer, h.Met(peer), len(ts))
		}
		iv := ref.intervals(peer)
		if got := h.Intervals(peer); !slices.Equal(got, iv) || h.IntervalCount(peer) != len(iv) {
			t.Fatalf("Intervals(%d) = %v, oracle %v", peer, got, iv)
		}
		e, eok := h.EMD(peer, at)
		we, weok := ref.emd(peer, at)
		if !sameBits(e, we) || eok != weok {
			t.Fatalf("EMD(%d) = %v,%v, oracle %v,%v", peer, e, eok, we, weok)
		}
		if got, want := h.EncounterProb(peer, at, 40), ref.prob(peer, at, 40); !sameBits(got, want) {
			t.Fatalf("EncounterProb(%d) = %v, oracle %v", peer, got, want)
		}
	}
}

// TestSparseSnapshotParity: the meeting-time snapshot must answer exactly
// like the oracle, including the overdue and met-without-interval
// conventions and member lists out of ascending order, and recycled
// snapshots must stay correct.
func TestSparseSnapshotParity(t *testing.T) {
	const n = 16
	h, ref := twinHistories(0, n, 250, 11)
	// One extra first-time meeting: met but no interval => probability 0.
	h.RecordContact(15, 9000)
	ref.times[15] = append(ref.times[15], 9000)
	var sp EEVSnapshot
	for _, at := range []float64{9001, 9100, 12000} {
		s := h.SnapshotEEVInto(at, &sp) // recycled across at values
		for _, tau := range []float64{0, 3, 47, 900, 1e5} {
			if got, want := s.EEV(tau), ref.eev(at, tau); !sameBits(got, want) {
				t.Fatalf("snapshot EEV(at=%g, tau=%g) = %v, oracle %v", at, tau, got, want)
			}
			for peer := 0; peer < n; peer++ {
				if got, want := s.Prob(peer, tau), ref.prob(peer, at, tau); !sameBits(got, want) {
					t.Fatalf("snapshot Prob(%d, tau=%g) at %g = %v, oracle %v", peer, tau, at, got, want)
				}
			}
			for _, members := range [][]int{{2, 3, 7, 15}, {0, 1, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14}, {7, 2, 15, 3, 3}} {
				if got, want := s.CommunityProb(tau, members), ref.communityProb(at, tau, members); !sameBits(got, want) {
					t.Fatalf("snapshot CommunityProb(%v) = %v, oracle %v", members, got, want)
				}
				if got, want := s.EEVSubset(tau, members), ref.subset(at, tau, members); !sameBits(got, want) {
					t.Fatalf("snapshot EEVSubset(%v) = %v, oracle %v", members, got, want)
				}
			}
		}
	}
}

// TestSparseMeetingStoreContract checks the MeetingStore contract through
// the interface: a store holds rows for observed owners only.
func TestSparseMeetingStoreContract(t *testing.T) {
	var m MeetingStore = NewFullMeetingMatrix(3)
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
	h := NewHistory(0, 3, 0)
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
	m := NewMeetingMatrix([]int{3, 7, 9})
	if m.Size() != 3 {
		t.Fatalf("Size = %d, want 3", m.Size())
	}
	if m.Covers(5) {
		t.Error("Covers(5) should be false")
	}
	if v := m.Interval(3, 5); !math.IsInf(v, 1) {
		t.Errorf("uncovered Interval = %g, want +Inf", v)
	}
	h := NewHistory(7, 10, 0)
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

// TestSyncSparseFreshness: a sync with a store holding a staler copy of a
// row keeps the fresher one.
func TestSyncSparseFreshness(t *testing.T) {
	a := NewFullMeetingMatrix(2)
	b := NewFullMeetingMatrix(2)
	ha := NewHistory(0, 2, 0)
	ha.RecordContact(1, 0)
	ha.RecordContact(1, 20)
	a.UpdateOwnRow(0, 20, ha)

	hb := NewHistory(1, 2, 0)
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
	stale := NewFullMeetingMatrix(2)
	hs := NewHistory(1, 2, 0)
	hs.RecordContact(0, 0)
	hs.RecordContact(0, 5)
	stale.UpdateOwnRow(1, 5, hs)
	Sync(a, stale)
	if v := a.Interval(1, 0); v != 30 {
		t.Errorf("row overwritten by stale merge: %g", v)
	}
}

// gossipWorld builds gossiped MI state from one pseudo-random meeting
// schedule and returns, per node, the histories and stores.
func gossipWorld(n, meetings int, seed int64) (hs []*History, ms []*MeetingMatrix, now float64) {
	hs = make([]*History, n)
	ms = make([]*MeetingMatrix, n)
	for i := 0; i < n; i++ {
		hs[i] = NewHistory(i, n, 0)
		ms[i] = NewFullMeetingMatrix(n)
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
			hs[u].RecordContact(v, now)
			ms[u].UpdateOwnRow(u, now, hs[u])
		}
		Sync(ms[a], ms[b])
	}
	return hs, ms, now
}

// TestSparseMEMDMatchesDense: Theorem-3 delays from the kernel Dijkstra over
// recorded edges must be bit-identical to the array Dijkstra over the
// materialised MD matrix, for every source and destination of a gossiped
// random world; uncovered destinations read +Inf.
func TestSparseMEMDMatchesDense(t *testing.T) {
	const n = 14
	hs, ms, now := gossipWorld(n, 300, 5)
	at := now + 13
	calc := NewMEMD(n)
	for src := 0; src < n; src++ {
		calc.Compute(src, at, hs[src], ms[src])
		_, want := mdOracle(src, at, hs[src], ms[src], false)
		for dst := 0; dst < n; dst++ {
			if got := calc.Delay(dst); !sameBits(got, want[dst]) {
				t.Fatalf("MEMD(%d→%d) = %v, oracle %v", src, dst, got, want[dst])
			}
		}
		if got := calc.Delay(99); !math.IsInf(got, 1) {
			t.Fatalf("uncovered destination delay = %v, want +Inf", got)
		}
	}
}

// TestSparseMEMDStoreOnlyMatchesDenseA2: the MEED-style ablation path
// (every row from MI, including the holder's) must match the array
// Dijkstra over the all-from-MI matrix.
func TestSparseMEMDStoreOnlyMatchesDenseA2(t *testing.T) {
	const n = 10
	_, ms, _ := gossipWorld(n, 200, 9)
	calc := NewMEMD(n)
	for src := 0; src < n; src++ {
		w := make([][]float64, n)
		for i := 0; i < n; i++ {
			w[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				w[i][j] = ms[src].Interval(i, j)
			}
		}
		dist := make([]float64, n)
		denseDijkstraRef(w, src, dist)
		calc.ComputeStoreOnly(src, ms[src])
		for dst := 0; dst < n; dst++ {
			if got := calc.Delay(dst); !sameBits(got, dist[dst]) {
				t.Fatalf("A2 MEMD(%d→%d) = %v, oracle %v", src, dst, got, dist[dst])
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

// TestSparseRowOps covers the shared row machinery the MI stores and
// MaxProp build on: ascending lookups, nil rows as empty rows,
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

// TestSparseDijkstraBoundedHeap: a run reaches only the recorded contact
// graph, never the network size, and the next run from another source
// starts clean — the kernel restores exactly what the last run touched,
// whether or not it ran to completion.
func TestSparseDijkstraBoundedHeap(t *testing.T) {
	rs := NewRowSet()
	rs.Publish(0, NewRow(1, []int32{1, 2}, []float64{5, 1}))
	rs.Publish(2, NewRow(1, []int32{1}, []float64{2}))
	rs.Publish(700, NewRow(1, []int32{3}, []float64{4}))
	d := NewIndexDijkstra(1000)
	run := func(src int, steps int) {
		d.Reset(src, rs)
		u, base := src, 0.0
		for ok := true; ok && steps != 0; u, base, ok = d.Next() {
			peers, vals := d.RowOf(u).Entries()
			for k, v := range peers {
				d.Relax(int(v), base, vals[k])
			}
			steps--
		}
	}
	run(0, -1)
	if v, ok := d.Dist(1); !ok || v != 3 {
		t.Fatalf("Dist(1) = %v,%v want 3", v, ok)
	}
	if got := d.Settled(); len(got) != 3 { // 0, 2, 1 — nothing else materialised
		t.Fatalf("settled %v, want 3 vertices", got)
	}
	run(700, 1) // stops with vertex 3 still queued
	run(2, -1)
	for v, want := range map[int]float64{2: 0, 1: 2, 0: math.Inf(1), 3: math.Inf(1), 700: math.Inf(1)} {
		if got, _ := d.Dist(v); got != want {
			t.Fatalf("after restarts Dist(%d) = %v, want %v", v, got, want)
		}
	}
	if d.RowOf(0) == nil || d.RowOf(5) != nil {
		t.Fatal("row index does not follow the loaded set")
	}
}

// fillRow publishes a single-entry row owned by id at freshness t into s.
func fillRow(s *RowSet, id int, t float64) {
	s.Publish(id, NewRow(t, []int32{int32((id + 1) % 1000)}, []float64{1}))
}

// TestSparseRowsCapEviction: a capped row set evicts the stalest rows
// first, never the pinned own row, and merges respect the cap.
func TestSparseRowsCapEviction(t *testing.T) {
	s := NewRowSet()
	s.SetCap(3, 7)
	fillRow(s, 7, 5) // own row, pinned despite being stale

	// Learn rows via merge, fresher than the own row.
	o := NewRowSet()
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
	o2 := NewRowSet()
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
	tie := NewRowSet()
	tie.SetCap(1, -1)
	src := NewRowSet()
	fillRow(src, 5, 50)
	fillRow(src, 6, 50)
	tie.MergeFresher(src)
	if tie.Len() != 1 || tie.Row(6) == nil {
		t.Errorf("tie eviction kept wrong row (len=%d)", tie.Len())
	}
}

// TestSparseMeetingStoreMaxRows: the store-level cap keeps the own row
// queryable and bounds the stored rows.
func TestSparseMeetingStoreMaxRows(t *testing.T) {
	const n = 10
	s := NewFullMeetingMatrix(n)
	s.SetMaxRows(2, 0)
	h := NewHistory(0, n, 0)
	h.RecordContact(1, 10)
	h.RecordContact(1, 30)
	s.UpdateOwnRow(0, 30, h)

	o := NewFullMeetingMatrix(n)
	oh := NewHistory(3, n, 0)
	oh.RecordContact(4, 5)
	oh.RecordContact(4, 25)
	o.UpdateOwnRow(3, 40, oh)
	oh.RecordContact(5, 45)
	Sync(s, o)
	if s.KnownRows() != 2 {
		t.Fatalf("KnownRows = %d, want 2", s.KnownRows())
	}
	if s.Interval(0, 1) != 20 {
		t.Errorf("own row entry lost: %g", s.Interval(0, 1))
	}
	// A fresher third row evicts node 3's, not the pinned own row.
	o2 := NewFullMeetingMatrix(n)
	o2h := NewHistory(6, n, 0)
	o2h.RecordContact(7, 10)
	o2h.RecordContact(7, 20)
	o2.UpdateOwnRow(6, 50, o2h)
	Sync(s, o2)
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
