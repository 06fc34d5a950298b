package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// This file pins the dense store's neighbour index and the indexed MEMD
// Dijkstra: the index must always equal the ascending finite off-diagonal
// set of its row, and every delay must match a dense Dijkstra over the
// materialised MD matrix bit for bit.

// intn is the op source driving an miWorld: a seeded generator in the
// tests, the fuzzer's bytes in FuzzMEMDParity.
type intn interface{ Intn(n int) int }

// byteSource draws ops from fuzz input, reading 0 once exhausted.
type byteSource struct {
	b []byte
	i int
}

func (s *byteSource) Intn(n int) int {
	if s.i >= len(s.b) {
		return 0
	}
	v := int(s.b[s.i]) % n
	s.i++
	return v
}

// miWorld is a set of nodes, each with a dense history over the whole
// network and a dense MI over the covered ids (all nodes, or a CR-style
// community subset).
type miWorld struct {
	n    int
	ids  []int
	hist []*History
	mi   map[int]*MeetingMatrix
	now  float64
}

func newMIWorld(n int, ids []int) *miWorld {
	w := &miWorld{n: n, ids: ids, hist: make([]*History, n), mi: make(map[int]*MeetingMatrix)}
	for i := range w.hist {
		w.hist[i] = NewHistory(i, n, 4) // a short window keeps means moving
	}
	for _, id := range ids {
		w.mi[id] = NewMeetingMatrix(ids)
	}
	return w
}

// step applies one op: a contact between covered nodes (own-row refresh on
// both sides, then a sync in a drawn exchange mode), a contact with an
// uncovered node (history only), or a clone replacing a node's MI. Times
// advance in coarse steps, often by zero, so intervals tie and repeated
// contacts at one instant publish zero-interval (no-edge) entries.
func (w *miWorld) step(src intn) {
	a := w.ids[src.Intn(len(w.ids))]
	switch op := src.Intn(10); {
	case op == 0:
		w.mi[a] = w.mi[a].Clone()
	case op == 1:
		b := src.Intn(w.n)
		if b == a || w.mi[b] != nil {
			return
		}
		w.now += float64(src.Intn(3) * 10)
		w.hist[a].RecordContact(b, w.now)
		w.hist[b].RecordContact(a, w.now)
	default:
		b := w.ids[src.Intn(len(w.ids))]
		if b == a {
			return
		}
		w.now += float64(src.Intn(3) * 10)
		for _, p := range [2][2]int{{a, b}, {b, a}} {
			u, v := p[0], p[1]
			w.hist[u].RecordContact(v, w.now)
			w.mi[u].UpdateOwnRow(u, w.now, w.hist[u])
		}
		SyncPairMode(w.mi[a], w.mi[b], a, b, ExchangeMode(src.Intn(3)))
	}
}

// checkIndex fails unless every row's index is exactly its ascending
// finite off-diagonal column set, the diagonal is 0, and the flood
// metering (index lengths) matches a full-row count.
func checkIndex(t testing.TB, m *MeetingMatrix) {
	t.Helper()
	entries := 0
	for i, row := range m.rows {
		if row[i] != 0 {
			t.Fatalf("row %d: diagonal %v, want 0", i, row[i])
		}
		var want []int
		for j, v := range row {
			if j != i && !math.IsInf(v, 1) {
				want = append(want, j)
			}
		}
		if got := slices.Collect(m.nbrs.Cols(i)); !slices.Equal(got, want) || m.nbrs.Len(i) != len(want) {
			t.Fatalf("row %d: index %v (length %d), want %v", i, got, m.nbrs.Len(i), want)
		}
		if m.updated[i] >= 0 {
			entries += len(want)
		}
	}
	if got := m.floodVolume().Entries; got != entries {
		t.Fatalf("flood metering counts %d entries, rows hold %d", got, entries)
	}
}

// scopedIDs is a community-style subset of a 16-node network.
var scopedIDs = []int{1, 3, 4, 7, 8, 10, 13, 14}

// wideIDs is a 70-node subset of a 140-node network: rows span two
// bitmap words.
var wideIDs = func() []int {
	ids := make([]int, 70)
	for i := range ids {
		ids[i] = 2 * i
	}
	return ids
}()

func fullIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// TestRowIndex covers the bitmap across word boundaries: ascending
// iteration, length, row copies, and clearing the visited column
// mid-iteration.
func TestRowIndex(t *testing.T) {
	const n = 130 // three words per row
	x, y := NewRowIndex(n), NewRowIndex(n)
	cols := []int{0, 5, 63, 64, 100, 127, 128, 129}
	for _, j := range []int{129, 64, 0, 127, 63, 128, 5, 100, 64} {
		x.Set(7, j)
	}
	if got := slices.Collect(x.Cols(7)); !slices.Equal(got, cols) || x.Len(7) != len(cols) {
		t.Fatalf("row 7 = %v (length %d), want %v", got, x.Len(7), cols)
	}
	if x.Len(6) != 0 || x.Len(8) != 0 {
		t.Fatal("neighbouring rows not empty")
	}
	y.CopyRow(7, x)
	for j := range y.Cols(7) {
		if j != 64 {
			y.Clear(7, j)
		}
	}
	if got := slices.Collect(y.Cols(7)); !slices.Equal(got, []int{64}) {
		t.Fatalf("after clearing all but 64: %v", got)
	}
	y.ClearRow(7)
	if y.Len(7) != 0 || x.Len(7) != len(cols) {
		t.Fatal("ClearRow emptied the wrong index")
	}
}

// TestMeetingMatrixIndexInvariant drives full and scoped matrices through
// random refresh / fresher / flood / delta / clone sequences, checking the
// index after every op.
func TestMeetingMatrixIndexInvariant(t *testing.T) {
	for _, sc := range []struct {
		name string
		n    int
		ids  []int
	}{{"full", 10, fullIDs(10)}, {"scoped", 16, scopedIDs}, {"wide", 140, wideIDs}} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s-seed%d", sc.name, seed), func(t *testing.T) {
				w := newMIWorld(sc.n, sc.ids)
				rng := xrand.New(seed)
				for k := 0; k < 400; k++ {
					w.step(rng)
					for _, id := range w.ids {
						checkIndex(t, w.mi[id])
					}
				}
			})
		}
	}
}

// TestRowCopyClearsStaleEntries: a fresher row with fewer known entries —
// unreachable from one monotone history, but legal for the store — must
// not leave the replaced row's extra entries behind, whether it arrives by
// an own-row refresh or by a sync in any exchange mode.
func TestRowCopyClearsStaleEntries(t *testing.T) {
	rich := NewHistory(0, 4, 0)
	for _, p := range []int{1, 2, 3} {
		rich.RecordContact(p, 0)
		rich.RecordContact(p, 10)
	}
	poor := NewHistory(0, 4, 0)
	poor.RecordContact(2, 0)
	poor.RecordContact(2, 30)
	refreshed := NewFullMeetingMatrix(4)
	refreshed.UpdateOwnRow(0, 5, rich)
	refreshed.UpdateOwnRow(0, 9, poor)
	checkIndex(t, refreshed)
	for _, mode := range []ExchangeMode{ExchangeFresher, ExchangeFlood, ExchangeDelta} {
		a, b := NewFullMeetingMatrix(4), NewFullMeetingMatrix(4)
		a.UpdateOwnRow(0, 5, rich)
		b.UpdateOwnRow(0, 9, poor)
		SyncPairMode(a, b, 1, 2, mode)
		for _, m := range []*MeetingMatrix{a, a.Clone()} {
			checkIndex(t, m)
			if v := m.Interval(0, 1); !math.IsInf(v, 1) {
				t.Errorf("mode %v: stale entry (0,1) = %v survived the copy", mode, v)
			}
			if v := m.Interval(0, 2); v != 30 {
				t.Errorf("mode %v: (0,2) = %v, want 30", mode, v)
			}
		}
	}
}

// mdOracle materialises self's MD matrix — the Theorem-2 own row, MI rows
// elsewhere — and runs the reference dense Dijkstra over it.
func mdOracle(self int, t float64, h *History, mi *MeetingMatrix, storeOnly bool) []float64 {
	n := mi.Size()
	src, _ := mi.Index(self)
	w := make([][]float64, n)
	for i := range w {
		w[i] = slices.Clone(mi.rows[i])
	}
	if !storeOnly {
		for j, id := range mi.ids {
			w[src][j] = Unknown
			if j == src {
				w[src][j] = 0
			} else if d, ok := h.EMD(id, t); ok {
				w[src][j] = d
			}
		}
	}
	dist := make([]float64, n)
	denseDijkstraRef(w, src, dist)
	return dist
}

// checkMEMDParity compares both MEMD computations from every covered node
// against the oracle, bit for bit.
func checkMEMDParity(t testing.TB, w *miWorld, at float64) {
	t.Helper()
	calc := NewMEMD(len(w.ids))
	for _, self := range w.ids {
		mi := w.mi[self]
		for _, storeOnly := range []bool{false, true} {
			if storeOnly {
				calc.ComputeStoreOnly(self, mi)
			} else {
				calc.Compute(self, at, w.hist[self], mi)
			}
			want := mdOracle(self, at, w.hist[self], mi, storeOnly)
			for j, d := range calc.Distances() {
				if math.Float64bits(d) != math.Float64bits(want[j]) {
					t.Fatalf("storeOnly=%v MEMD(%d→%d) = %v, oracle %v", storeOnly, self, w.ids[j], d, want[j])
				}
				if got := calc.Delay(w.ids[j]); math.Float64bits(got) != math.Float64bits(d) {
					t.Fatalf("Delay(%d) = %v, Distances %v", w.ids[j], got, d)
				}
			}
		}
	}
}

// TestMEMDMatchesDenseOracle checks the indexed heap MEMD (own-row and
// store-only) against the dense reference at several points of random
// full and scoped worlds, including tied and zero-interval weights.
func TestMEMDMatchesDenseOracle(t *testing.T) {
	for _, sc := range []struct {
		name string
		n    int
		ids  []int
	}{{"full", 12, fullIDs(12)}, {"scoped", 16, scopedIDs}, {"wide", 140, wideIDs}} {
		for _, seed := range []int64{4, 5, 6} {
			t.Run(fmt.Sprintf("%s-seed%d", sc.name, seed), func(t *testing.T) {
				w := newMIWorld(sc.n, sc.ids)
				rng := xrand.New(seed)
				for k := 0; k < 300; k++ {
					w.step(rng)
					if k%50 == 49 {
						checkMEMDParity(t, w, w.now+float64(rng.Intn(40)))
					}
				}
			})
		}
	}
}

// TestMEMDComputeAllocs pins the steady state: a warmed calculator
// allocates nothing per computation.
func TestMEMDComputeAllocs(t *testing.T) {
	w := newMIWorld(12, fullIDs(12))
	rng := xrand.New(7)
	for k := 0; k < 300; k++ {
		w.step(rng)
	}
	calc := NewMEMD(12)
	if a := testing.AllocsPerRun(20, func() { calc.Compute(0, w.now, w.hist[0], w.mi[0]) }); a != 0 {
		t.Errorf("Compute allocates %v times per run, want 0", a)
	}
}

// FuzzMEMDParity drives a world from the fuzzer's bytes — the first picks
// full or scoped coverage — and checks the MEMD against the oracle.
func FuzzMEMDParity(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 9, 9, 9, 0, 0, 0, 3, 3, 3, 7, 2, 2, 5, 5, 5, 1, 0})
	f.Add([]byte("dense MEMD over a neighbour index, bit for bit"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		w := newMIWorld(8, fullIDs(8))
		if data[0]%2 == 1 {
			w = newMIWorld(16, scopedIDs)
		}
		src := &byteSource{b: data[1:]}
		for src.i < len(src.b) {
			w.step(src)
		}
		for _, id := range w.ids {
			checkIndex(t, w.mi[id])
		}
		checkMEMDParity(t, w, w.now+5)
	})
}
