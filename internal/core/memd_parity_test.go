package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// This file pins the MEMD Dijkstra over the store's shared rows: every
// delay must match a dense array Dijkstra over the materialised MD matrix
// bit for bit.

// intn is the op source driving an miWorld or a rowWorld: a seeded
// generator in the tests, the fuzzer's bytes in the fuzz targets.
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

// miWorld is a set of nodes, each with a history over the whole network
// and an MI over the covered ids (all nodes, or a CR-style community
// subset).
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
		if len(ids) == n {
			w.mi[id] = NewFullMeetingMatrix(n)
		} else {
			w.mi[id] = NewMeetingMatrix(ids)
		}
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
		SyncMode(w.mi[a], w.mi[b], a, b, ExchangeMode(src.Intn(3)))
	}
}

// checkRows fails unless the store's owners ascend, every row holds
// ascending, finite, off-diagonal entries — the store's known-entry
// invariant — every slot's inline freshness stamp equals its row's, and
// the flood metering counts exactly those entries.
func checkRows(t testing.TB, m *MeetingMatrix) {
	t.Helper()
	rs := m.rows
	if len(rs.upd) != len(rs.owners) || len(rs.slots) != len(rs.owners) {
		t.Fatalf("%d owners, %d freshness stamps, %d slots", len(rs.owners), len(rs.upd), len(rs.slots))
	}
	entries := 0
	for i, owner := range rs.owners {
		if i > 0 && owner <= rs.owners[i-1] {
			t.Fatalf("owners out of order: %v", rs.owners)
		}
		row := rs.slots[i].row
		if u := rs.upd[i]; math.Float64bits(u) != math.Float64bits(row.Updated) {
			t.Fatalf("owner %d: inline stamp %v, row published at %v", owner, u, row.Updated)
		}
		peers, vals := row.Entries()
		for k, j := range peers {
			if j == owner || (k > 0 && j <= peers[k-1]) || math.IsInf(vals[k], 0) || math.IsNaN(vals[k]) {
				t.Fatalf("row %d: entries %v %v break the known-entry invariant", owner, peers, vals)
			}
		}
		entries += len(peers)
	}
	if got := rs.floodVolume().Entries; got != entries {
		t.Fatalf("flood metering counts %d entries, rows hold %d", got, entries)
	}
}

// scopedIDs is a community-style subset of a 16-node network.
var scopedIDs = []int{1, 3, 4, 7, 8, 10, 13, 14}

// wideIDs is a 70-node subset of a 140-node network: every other id.
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
	checkRows(t, refreshed)
	for _, mode := range []ExchangeMode{ExchangeFresher, ExchangeFlood, ExchangeDelta} {
		a, b := NewFullMeetingMatrix(4), NewFullMeetingMatrix(4)
		a.UpdateOwnRow(0, 5, rich)
		b.UpdateOwnRow(0, 9, poor)
		SyncMode(a, b, 1, 2, mode)
		for _, m := range []*MeetingMatrix{a, a.Clone()} {
			checkRows(t, m)
			if v := m.Interval(0, 1); !math.IsInf(v, 1) {
				t.Errorf("mode %v: stale entry (0,1) = %v survived the copy", mode, v)
			}
			if v := m.Interval(0, 2); v != 30 {
				t.Errorf("mode %v: (0,2) = %v, want 30", mode, v)
			}
		}
	}
}

// coveredIDs lists the ids a store covers, ascending.
func coveredIDs(mi *MeetingMatrix) []int {
	if mi.scope == nil {
		return fullIDs(mi.Size())
	}
	ids := make([]int, len(mi.scope))
	for i, id := range mi.scope {
		ids[i] = int(id)
	}
	return ids
}

// mdOracle materialises self's MD matrix over the covered ids — the
// Theorem-2 own row, MI rows elsewhere — and runs the reference array
// Dijkstra over it. dist[j] is the delay to ids[j].
func mdOracle(self int, t float64, h *History, mi *MeetingMatrix, storeOnly bool) (ids []int, dist []float64) {
	ids = coveredIDs(mi)
	n := len(ids)
	src := slices.Index(ids, self)
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		for j := range w[i] {
			w[i][j] = mi.Interval(ids[i], ids[j])
		}
	}
	if !storeOnly {
		for j, id := range ids {
			w[src][j] = Unknown
			if j == src {
				w[src][j] = 0
			} else if d, ok := h.EMD(id, t); ok {
				w[src][j] = d
			}
		}
	}
	dist = make([]float64, n)
	denseDijkstraRef(w, src, dist)
	return ids, dist
}

// checkMEMDParity compares both MEMD computations from every covered node
// against the oracle, bit for bit: Delay for every covered id, and
// Reached listing exactly the finite ones. The calculator starts smaller
// than the id range, so it must grow.
func checkMEMDParity(t testing.TB, w *miWorld, at float64) {
	t.Helper()
	calc := NewMEMD(len(w.ids) / 2)
	for _, self := range w.ids {
		mi := w.mi[self]
		for _, storeOnly := range []bool{false, true} {
			if storeOnly {
				calc.ComputeStoreOnly(self, mi)
			} else {
				calc.Compute(self, at, w.hist[self], mi)
			}
			ids, want := mdOracle(self, at, w.hist[self], mi, storeOnly)
			finite := 0
			for j, id := range ids {
				if got := calc.Delay(id); math.Float64bits(got) != math.Float64bits(want[j]) {
					t.Fatalf("storeOnly=%v MEMD(%d→%d) = %v, oracle %v", storeOnly, self, id, got, want[j])
				}
				if !math.IsInf(want[j], 1) {
					finite++
				}
			}
			reached := calc.Reached()
			if len(reached) != finite {
				t.Fatalf("storeOnly=%v from %d: %d reached, oracle %d finite", storeOnly, self, len(reached), finite)
			}
			once := make(map[int32]bool, len(reached))
			for _, r := range reached {
				if d := calc.Delay(int(r.ID)); math.Float64bits(r.D) != math.Float64bits(d) || once[r.ID] {
					t.Fatalf("reached %d at %v (listed before: %v), Delay %v", r.ID, r.D, once[r.ID], d)
				}
				once[r.ID] = true
			}
		}
	}
}

// TestMEMDMatchesDenseOracle checks the kernel MEMD (own-row and
// store-only) against the array-Dijkstra reference at several points of random
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
	f.Add([]byte("MEMD over shared rows, bit for bit"))
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
			checkRows(t, w.mi[id])
		}
		checkMEMDParity(t, w, w.now+5)
	})
}

// TestMEMDRunsMatchFrozenOracle pins the decision path: runs started on
// one shared calculator, for every covered node in both MD modes, answer
// DelayTo and Exceeds exactly as the oracle over their inputs at Start,
// while the world keeps stepping — the MI merging, cloning and refreshing
// rows, histories growing — and while queries interleave across runs and
// with full Computes on the same kernel. Runs are cleared and restarted
// every epoch, so their storage is recycled.
func TestMEMDRunsMatchFrozenOracle(t *testing.T) {
	for _, sc := range []struct {
		name string
		n    int
		ids  []int
	}{{"full", 12, fullIDs(12)}, {"scoped", 16, scopedIDs}, {"wide", 140, wideIDs}} {
		for _, seed := range []int64{7, 8} {
			t.Run(fmt.Sprintf("%s-seed%d", sc.name, seed), func(t *testing.T) {
				w := newMIWorld(sc.n, sc.ids)
				rng := xrand.New(seed)
				for k := 0; k < 100; k++ {
					w.step(rng)
				}
				type frozen struct {
					run  MEMDRun
					self int
					ids  []int
					want []float64
				}
				calc := NewMEMD(1)
				runs := make([]*frozen, 2*len(w.ids))
				for i := range runs {
					runs[i] = &frozen{self: w.ids[i/2]}
				}
				queries := 0
				for epoch := 0; epoch < 6; epoch++ {
					at := w.now + float64(rng.Intn(40))
					for i, f := range runs {
						storeOnly := i%2 == 1
						f.run.Clear()
						if storeOnly {
							calc.StartStoreOnly(&f.run, f.self, w.mi[f.self])
						} else {
							calc.Start(&f.run, f.self, at, w.hist[f.self], w.mi[f.self])
						}
						f.ids, f.want = mdOracle(f.self, at, w.hist[f.self], w.mi[f.self], storeOnly)
					}
					for k := 0; k < 400; k++ {
						if rng.Intn(4) == 0 {
							w.step(rng)
						}
						if rng.Intn(50) == 0 {
							self := w.ids[rng.Intn(len(w.ids))]
							calc.Compute(self, w.now, w.hist[self], w.mi[self])
						}
						f := runs[rng.Intn(len(runs))]
						j := rng.Intn(len(f.ids))
						dst, want := f.ids[j], f.want[j]
						if rng.Intn(2) == 0 {
							if got := calc.DelayTo(&f.run, dst); math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("epoch %d: run from %d: DelayTo(%d) = %v, oracle %v", epoch, f.self, dst, got, want)
							}
						} else {
							bound := [...]float64{want, math.Nextafter(want, 0), math.Nextafter(want, math.Inf(1)), f.want[rng.Intn(len(f.want))], 0, 1e9}[rng.Intn(6)]
							if math.IsInf(bound, 0) || math.IsNaN(bound) {
								bound = 1e9
							}
							if got := calc.Exceeds(&f.run, dst, bound); got != (want > bound) {
								t.Fatalf("epoch %d: run from %d: Exceeds(%d, %v) = %v, oracle delay %v", epoch, f.self, dst, bound, got, want)
							}
						}
						queries++
					}
				}
				if got := calc.DelayTo(&runs[0].run, sc.n+5); !math.IsInf(got, 1) {
					t.Fatalf("DelayTo an id beyond the network = %v, want +Inf", got)
				}
				t.Logf("%d queries", queries)
			})
		}
	}
}
