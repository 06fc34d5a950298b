package core

import "fmt"

// MEMD computes minimum expected meeting delays (Theorem 3). At a contact,
// the holding node forms the MD matrix — its own row from Theorem-2 EMDs,
// every other row approximated by the gossiped MI averages (Section
// III-B.2) — and runs Dijkstra from itself. One computation yields the MEMD
// to every destination, so routers reuse a single Compute per contact for
// all buffered messages.
//
// The MD matrix is never materialised: the own row is relaxed as it is
// computed from the met peers' records, and every other settled row's
// known entries are read straight from the MI's shared rows. A contact
// costs O(met + k + E log V) over the k stored rows and the E recorded
// edges the search reaches; the only n-wide state is the kernel's scratch,
// which one MEMD per world shares across all its nodes.
type MEMD struct {
	dij   *IndexDijkstra
	valid bool
}

// NewMEMD returns a calculator for node ids below n; it grows on demand
// for larger ids.
func NewMEMD(n int) *MEMD {
	return &MEMD{dij: NewIndexDijkstra(n)}
}

// Compute forms the MD matrix for node self at time t from its history and
// MI, and runs Dijkstra from self. Subsequent Delay calls answer from the
// result.
func (m *MEMD) Compute(self int, t float64, h *History, mi *MeetingMatrix) {
	m.begin(self, mi)
	// Own row: elapsed-time-conditioned EMDs (Theorem 2) to met peers the
	// MI covers.
	for i, peer := range h.metIn(mi.scope) {
		if d, ok := h.recs[i].emd(t); ok {
			m.dij.Relax(int(peer), 0, d)
		}
	}
	m.finish()
}

// ComputeStoreOnly runs the same Dijkstra with every row, including the
// holder's, taken from the MI's published mean intervals — the MEED-style
// A2 ablation.
func (m *MEMD) ComputeStoreOnly(self int, mi *MeetingMatrix) {
	m.begin(self, mi)
	m.relaxRow(self, 0)
	m.finish()
}

// begin validates the inputs and resets the kernel at self.
func (m *MEMD) begin(self int, mi *MeetingMatrix) {
	if !mi.Covers(self) {
		panic(fmt.Sprintf("core: node %d not covered by MI", self))
	}
	m.dij.ensure(mi.span())
	m.dij.Reset(self, mi.rows)
}

// finish settles every reachable vertex, relaxing the MI averages (the
// I_jk substitution of Section III-B.2) of each.
func (m *MEMD) finish() {
	for {
		u, d, ok := m.dij.Next()
		if !ok {
			break
		}
		m.relaxRow(u, d)
	}
	m.valid = true
}

// relaxRow relaxes row u's known MI entries from distance base, in
// ascending peer order.
func (m *MEMD) relaxRow(u int, base float64) {
	peers, vals := m.dij.RowOf(u).Entries()
	for k, v := range peers {
		m.dij.Relax(int(v), base, vals[k])
	}
}

// Delay returns the minimum expected meeting delay from the node of the
// last Compute to global node dst. It returns +Inf for unreachable or
// uncovered destinations, and panics if Compute was never called.
func (m *MEMD) Delay(dst int) float64 {
	if !m.valid {
		panic("core: MEMD.Delay before Compute")
	}
	d, _ := m.dij.Dist(dst)
	return d
}

// Reached returns every destination with a finite delay from the last
// Compute, the holder first at 0, in settle order (shared scratch, valid
// until the next Compute; copy to keep, and look up with DistTo).
func (m *MEMD) Reached() []Reach {
	if !m.valid {
		panic("core: MEMD.Reached before Compute")
	}
	return m.dij.Settled()
}
