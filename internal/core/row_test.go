package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// This file pins the shared-row store against a deep-copy oracle: MI
// stores driven through a random sequence of own-row refreshes, syncs in
// every gossip mode and clones must hold the oracle's rows after every
// step, meter the rows the oracle's merge takes, and never change a row
// once it is published.

// oracleRow is a deep copy of one published MI row, keyed by global id.
type oracleRow struct {
	updated float64
	peers   []int
	vals    []float64
}

// rowWorld runs the same nodes on two stores each: a MeetingMatrix and
// the oracle, a map of deep-copied rows merged by the plain fresher-wins
// rule.
type rowWorld struct {
	n      int
	ids    []int
	hist   []*History
	store  map[int]*MeetingMatrix
	oracle map[int]map[int]oracleRow
	now    float64

	// published records each row pointer's content hash when a store is
	// first seen holding it.
	published map[*Row]uint64
}

func newRowWorld(n int, ids []int) *rowWorld {
	w := &rowWorld{
		n: n, ids: ids, hist: make([]*History, n),
		store:  map[int]*MeetingMatrix{},
		oracle: map[int]map[int]oracleRow{}, published: map[*Row]uint64{},
	}
	for i := range w.hist {
		w.hist[i] = NewHistory(i, n, 4) // a short window keeps means moving
	}
	for _, id := range ids {
		if len(ids) == n {
			w.store[id] = NewFullMeetingMatrix(n)
		} else {
			w.store[id] = NewMeetingMatrix(ids)
		}
		w.oracle[id] = map[int]oracleRow{}
	}
	return w
}

// refresh publishes a's own row in every store.
func (w *rowWorld) refresh(a int) {
	w.store[a].UpdateOwnRow(a, w.now, w.hist[a])
	row := oracleRow{updated: w.now}
	for _, p := range w.ids {
		if mean, ok := w.hist[a].MeanInterval(p); ok && p != a && !math.IsInf(mean, 1) {
			row.peers = append(row.peers, p)
			row.vals = append(row.vals, mean)
		}
	}
	w.oracle[a][a] = row
}

// oracleMerge copies into dst every row of src that is strictly fresher,
// returning the rows and entries it took.
func oracleMerge(dst, src map[int]oracleRow) (rows, entries int) {
	for id, r := range src {
		if mine, ok := dst[id]; !ok || r.updated > mine.updated {
			dst[id] = oracleRow{r.updated, slices.Clone(r.peers), slices.Clone(r.vals)}
			rows++
			entries += len(r.peers)
		}
	}
	return rows, entries
}

// step applies one op: a contact between covered nodes (record, own-row
// refresh on both sides, a sync in a drawn mode), a contact with an
// uncovered node (history only), a bare own-row refresh, or a clone
// replacing a node's stores. Times advance in coarse steps, often by zero,
// so intervals tie and rows republish at an unchanged timestamp.
func (w *rowWorld) step(t testing.TB, src intn) {
	t.Helper()
	a := w.ids[src.Intn(len(w.ids))]
	switch op := src.Intn(10); {
	case op == 0:
		w.store[a] = w.store[a].Clone()
	case op == 1:
		b := src.Intn(w.n)
		if b == a || w.store[b] != nil {
			return
		}
		w.now += float64(src.Intn(3) * 10)
		w.hist[a].RecordContact(b, w.now)
		w.hist[b].RecordContact(a, w.now)
	case op == 2:
		w.now += float64(src.Intn(3) * 10)
		w.refresh(a)
	default:
		b := w.ids[src.Intn(len(w.ids))]
		if b == a {
			return
		}
		w.now += float64(src.Intn(3) * 10)
		for _, p := range [2][2]int{{a, b}, {b, a}} {
			w.hist[p[0]].RecordContact(p[1], w.now)
			w.refresh(p[0])
		}
		mode := ExchangeMode(src.Intn(3))
		st := SyncMode(w.store[a], w.store[b], a, b, mode)
		fr, fe := oracleMerge(w.oracle[a], w.oracle[b])
		br, be := oracleMerge(w.oracle[b], w.oracle[a])
		if mode != ExchangeFlood && (st.Rows != fr+br || st.Entries != fe+be) {
			t.Fatalf("sync %d<->%d (%v) shipped %d rows/%d entries, oracle took %d/%d",
				a, b, mode, st.Rows, st.Entries, fr+br, fe+be)
		}
	}
}

// rowHash digests a row's freshness and entries (FNV-1a over their bits).
func rowHash(r *Row) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 64; i += 8 {
			h = (h ^ (v >> i & 0xff)) * 1099511628211
		}
	}
	mix(math.Float64bits(r.Updated))
	for k, p := range r.peers {
		mix(uint64(p))
		mix(math.Float64bits(r.vals[k]))
	}
	return h
}

// checkPublished fails if a row pointer some store holds changed content
// since a store was first seen holding it.
func (w *rowWorld) checkPublished(t testing.TB, r *Row) {
	t.Helper()
	if r == nil {
		return
	}
	h := rowHash(r)
	if want, ok := w.published[r]; !ok {
		w.published[r] = h
	} else if h != want {
		t.Fatalf("published row %p changed: hash %x, was %x", r, h, want)
	}
}

// check compares every store with its oracle and audits every row pointer.
func (w *rowWorld) check(t testing.TB) {
	t.Helper()
	var peers []int
	var vals []float64
	collect := func(p int, v float64) {
		peers = append(peers, p)
		vals = append(vals, v)
	}
	for _, self := range w.ids {
		m, want := w.store[self], w.oracle[self]
		if m.KnownRows() != len(want) {
			t.Fatalf("node %d: known rows %d, oracle %d", self, m.KnownRows(), len(want))
		}
		checkRows(t, m)
		checkRows(t, m.Clone())
		for _, owner := range w.ids {
			o, ok := want[owner]
			if !ok {
				o.updated = -1
			}
			peers, vals = peers[:0], vals[:0]
			m.ForEachKnown(owner, collect)
			if m.RowUpdated(owner) != o.updated || !slices.Equal(peers, o.peers) || !slices.Equal(vals, o.vals) {
				t.Fatalf("node %d row %d: @%g %v %v, oracle @%g %v %v",
					self, owner, m.RowUpdated(owner), peers, vals, o.updated, o.peers, o.vals)
			}
		}
		for _, sl := range m.rows.slots {
			w.checkPublished(t, sl.row)
		}
	}
}

// TestPublishedRowsImmutable drives full and scoped stores through random
// refresh / fresher / flood / delta / clone sequences, checking them
// against the oracle, the exchange stats against the oracle's merges, and
// every published row against its publication hash after every op.
func TestPublishedRowsImmutable(t *testing.T) {
	for _, sc := range []struct {
		name string
		n    int
		ids  []int
	}{{"full", 10, fullIDs(10)}, {"scoped", 16, scopedIDs}, {"wide", 140, wideIDs}} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s-seed%d", sc.name, seed), func(t *testing.T) {
				w := newRowWorld(sc.n, sc.ids)
				rng := xrand.New(seed)
				for k := 0; k < 400; k++ {
					w.step(t, rng)
					w.check(t)
				}
			})
		}
	}
}

// FuzzRowStoreParity drives a rowWorld from the fuzzer's bytes — the
// first picks full or scoped coverage — with the same checks after every
// op. Inputs are cut at maxFuzzOps bytes: the checks after every op make
// an execution quadratic in its length, and long schedules add little
// over the property test's.
func FuzzRowStoreParity(f *testing.F) {
	const maxFuzzOps = 128
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 9, 9, 9, 0, 0, 0, 3, 3, 3, 7, 2, 2, 5, 5, 5, 1, 0})
	f.Add([]byte("published rows are shared, never rewritten"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		w := newRowWorld(8, fullIDs(8))
		if data[0]%2 == 1 {
			w = newRowWorld(16, scopedIDs)
		}
		src := &byteSource{b: data[1:min(len(data), maxFuzzOps)]}
		for src.i < len(src.b) {
			w.step(t, src)
			w.check(t)
		}
	})
}
