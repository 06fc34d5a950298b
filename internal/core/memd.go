package core

import (
	"fmt"
	"math"
)

// MEMD computes minimum expected meeting delays (Theorem 3). At a contact,
// the holding node forms the MD matrix — its own row from Theorem-2 EMDs,
// every other row approximated by the gossiped MI averages (Section
// III-B.2) — and runs Dijkstra from itself. One computation yields the MEMD
// to every destination, so routers reuse a single Compute per contact for
// all buffered messages.
//
// The MD matrix is never materialised: the own row is relaxed as it is
// computed, and every other settled row is read straight from the MI
// matrix through its neighbour index. Only the distance vector, visited
// flags and heap persist, as scratch reused across computations.
//
// This is the dense half of the Theorem-3 machinery, over a *MeetingMatrix:
// O(n) for the own row plus O(E log V) over the known MI entries per
// contact. SparseMEMD (sparse.go) computes bit-identical delays over any
// MeetingStore with per-store rather than per-network state, which is what
// city-scale worlds use.
type MEMD struct {
	dij *IndexDijkstra

	// State of the last Compute, consulted by Delay.
	last  *MeetingMatrix // maps Delay's global ids to local indices
	valid bool
}

// NewMEMD returns a calculator for matrices of the given size.
func NewMEMD(size int) *MEMD {
	return &MEMD{dij: NewIndexDijkstra(size)}
}

// Compute forms the MD matrix for node self at time t from its history and
// MI, and runs Dijkstra from self. Subsequent Delay calls answer from the
// result.
func (m *MEMD) Compute(self int, t float64, h *History, mi *MeetingMatrix) {
	src := m.begin(self, mi)
	// Own row: elapsed-time-conditioned EMDs (Theorem 2).
	for j, id := range mi.ids {
		if j == src {
			continue
		}
		if d, got := h.EMD(id, t); got {
			m.dij.Relax(j, 0, d)
		}
	}
	m.finish(mi)
}

// ComputeStoreOnly runs the same Dijkstra with every row, including the
// holder's, taken from the MI's published mean intervals — the MEED-style
// A2 ablation, the dense counterpart of SparseMEMD.ComputeStoreOnly.
func (m *MEMD) ComputeStoreOnly(self int, mi *MeetingMatrix) {
	src := m.begin(self, mi)
	m.relaxRow(mi, src, 0)
	m.finish(mi)
}

// begin validates the inputs and resets the kernel at self's local index.
func (m *MEMD) begin(self int, mi *MeetingMatrix) int {
	if mi.Size() != m.dij.Size() {
		panic(fmt.Sprintf("core: MEMD size %d does not match MI size %d", m.dij.Size(), mi.Size()))
	}
	src, ok := mi.Index(self)
	if !ok {
		panic(fmt.Sprintf("core: node %d not covered by MI", self))
	}
	m.dij.Reset(src)
	return src
}

// finish settles every reachable vertex, relaxing the MI averages (the
// I_jk substitution of Section III-B.2) of each.
func (m *MEMD) finish(mi *MeetingMatrix) {
	for {
		u, d, ok := m.dij.Next()
		if !ok {
			break
		}
		m.relaxRow(mi, u, d)
	}
	m.last = mi
	m.valid = true
}

// relaxRow relaxes row u's known MI entries from distance base.
func (m *MEMD) relaxRow(mi *MeetingMatrix, u int, base float64) {
	row := mi.rows[u]
	for v := range mi.nbrs.Cols(u) {
		m.dij.Relax(v, base, row[v])
	}
}

// Delay returns the minimum expected meeting delay from the node of the
// last Compute to global node dst. It returns +Inf for unreachable or
// uncovered destinations, and panics if Compute was never called.
func (m *MEMD) Delay(dst int) float64 {
	if !m.valid {
		panic("core: MEMD.Delay before Compute")
	}
	j, ok := m.last.Index(dst)
	if !ok {
		return math.Inf(1)
	}
	return m.dij.dist[j]
}

// Distances returns the raw distance vector of the last Compute, indexed by
// MI-local index (shared; do not mutate).
func (m *MEMD) Distances() []float64 {
	if !m.valid {
		panic("core: MEMD.Distances before Compute")
	}
	return m.dij.Dist()
}
