package core

import (
	"fmt"
	"math"
)

// MEMD computes minimum expected meeting delays (Theorem 3). At a contact,
// the holding node forms the MD matrix — its own row from Theorem-2 EMDs,
// every other row approximated by the gossiped MI averages (Section
// III-B.2) — and runs Dijkstra from itself.
//
// The MD matrix is never materialised: the own row is queued as it is
// computed from the met peers' records, and every other settled row's
// known entries are read straight from the MI's shared rows. The only
// n-wide state is the kernel's scratch, which one MEMD per world shares
// across all its nodes.
//
// A forwarding decision needs one delay, or only whether it exceeds a
// bound, so the MEMD a contact side keeps is a MEMDRun: Start freezes its
// inputs, and DelayTo and Exceeds settle it only as far as each query
// needs, resuming where the last one stopped. Compute is the full run,
// every reachable vertex settled at once.
type MEMD struct {
	dij  *IndexDijkstra
	full MEMDRun // Compute's run
}

// MEMDRun is one node's Theorem-3 search, kept across queries: the MD
// inputs frozen when it starts — the own row's Theorem-2 EMDs at its time
// and the MI's rows as published then (rows are immutable, so the freeze
// copies one pointer per stored row) — and the Dijkstra over them, paused
// between queries. Settled delays are final, so every answer equals the
// full run's over the frozen inputs, whatever the MI learns later. A run
// is queried on the calculator that started it. The zero value is
// unstarted; a run's storage is retained across Clear and Start.
type MEMDRun struct {
	run     pausedRun
	started bool
}

// Started reports whether the run was started since it was last cleared.
func (r *MEMDRun) Started() bool { return r.started }

// Clear forgets the run, keeping its storage; it pins no rows afterwards.
func (r *MEMDRun) Clear() {
	r.run.clear()
	r.started = false
}

// NewMEMD returns a calculator for node ids below n; it grows on demand
// for larger ids.
func NewMEMD(n int) *MEMD {
	return &MEMD{dij: NewIndexDijkstra(n)}
}

// Start freezes into r the MD inputs of node self at time t, from its
// history and MI: the own row of elapsed-time-conditioned EMDs (Theorem
// 2) to met peers the MI covers, and the MI's rows.
func (m *MEMD) Start(r *MEMDRun, self int, t float64, h *History, mi *MeetingMatrix) {
	m.begin(r, self, mi)
	for i, peer := range h.metIn(mi.scope) {
		if d, ok := h.recs[i].emd(t); ok {
			r.run.seed(int(peer), d)
		}
	}
}

// StartStoreOnly freezes into r the inputs of the same search with every
// row, the holder's included, taken from the MI's published mean
// intervals — the MEED-style A2 ablation.
func (m *MEMD) StartStoreOnly(r *MEMDRun, self int, mi *MeetingMatrix) {
	m.begin(r, self, mi)
	peers, vals := mi.rows.Row(self).Entries()
	for k, v := range peers {
		r.run.seed(int(v), vals[k])
	}
}

// begin validates the inputs and starts r at self over the MI's rows.
func (m *MEMD) begin(r *MEMDRun, self int, mi *MeetingMatrix) {
	if !mi.Covers(self) {
		panic(fmt.Sprintf("core: node %d not covered by MI", self))
	}
	m.dij.ensure(mi.span())
	r.run.start(self, mi.rows)
	r.started = true
}

// DelayTo returns r's minimum expected meeting delay to global node dst,
// +Inf for unreachable or uncovered destinations. It settles r only until
// dst's delay is final, resuming from where r's last query stopped, on
// this calculator's kernel.
func (m *MEMD) DelayTo(r *MEMDRun, dst int) float64 {
	return m.search(r, dst, math.Inf(1), true)
}

// Exceeds reports whether r's minimum expected meeting delay to global
// node dst exceeds bound — all the single-replica rule asks of the
// holder's side. It settles r only until that is known: dst's delay is
// final, or its tentative delay is already at most bound, or every queued
// delay exceeds bound.
func (m *MEMD) Exceeds(r *MEMDRun, dst int, bound float64) bool {
	return m.search(r, dst, bound, false) > bound
}

// search settles r until dst's delay is final or every queued delay
// exceeds bound — or, unless exact, dst's tentative delay is at most
// bound — and returns that tentative delay: the delay when final,
// otherwise a value on the same side of bound as the delay.
func (m *MEMD) search(r *MEMDRun, dst int, bound float64, exact bool) float64 {
	if !r.started {
		panic("core: MEMD search before Start")
	}
	if dst < 0 || dst >= len(m.dij.dist) {
		return math.Inf(1)
	}
	k := m.dij
	k.resume(&r.run)
	for {
		d := k.dist[dst]
		q, ok := k.queue.min(k.dist)
		if !ok || d <= q || q > bound || (!exact && d <= bound) {
			break
		}
		u, base, ok := k.Next()
		if !ok {
			break
		}
		m.relaxRow(u, base)
	}
	return k.dist[dst]
}

// Compute forms the MD matrix for node self at time t from its history and
// MI, and runs Dijkstra from self to completion. Subsequent Delay calls
// answer from the result.
func (m *MEMD) Compute(self int, t float64, h *History, mi *MeetingMatrix) {
	m.Start(&m.full, self, t, h, mi)
	m.finish()
}

// ComputeStoreOnly runs the same Dijkstra with every row, including the
// holder's, taken from the MI's published mean intervals — the MEED-style
// A2 ablation.
func (m *MEMD) ComputeStoreOnly(self int, mi *MeetingMatrix) {
	m.StartStoreOnly(&m.full, self, mi)
	m.finish()
}

// finish settles every vertex Compute's run reaches, relaxing the MI
// averages (the I_jk substitution of Section III-B.2) of each.
func (m *MEMD) finish() {
	m.dij.resume(&m.full.run)
	for {
		u, d, ok := m.dij.Next()
		if !ok {
			break
		}
		m.relaxRow(u, d)
	}
}

// relaxRow relaxes row u's known MI entries from distance base, in
// ascending peer order.
func (m *MEMD) relaxRow(u int, base float64) {
	peers, vals := m.dij.RowOf(u).Entries()
	for k, v := range peers {
		m.dij.Relax(int(v), base, vals[k])
	}
}

// computed resumes Compute's finished run, so the kernel answers for it;
// it panics if Compute was never called.
func (m *MEMD) computed(what string) {
	if !m.full.started {
		panic("core: MEMD." + what + " before Compute")
	}
	m.dij.resume(&m.full.run)
}

// Delay returns the minimum expected meeting delay from the node of the
// last Compute to global node dst. It returns +Inf for unreachable or
// uncovered destinations, and panics if Compute was never called.
func (m *MEMD) Delay(dst int) float64 {
	m.computed("Delay")
	d, _ := m.dij.Dist(dst)
	return d
}

// Reached returns every destination with a finite delay from the last
// Compute, the holder first at 0, in settle order (shared scratch, valid
// until the calculator's next query; copy to keep).
func (m *MEMD) Reached() []Reach {
	m.computed("Reached")
	return m.dij.Settled()
}

// Settles counts the vertices the calculator has settled over its life,
// the sources excluded — the search work behind every answer it gave.
func (m *MEMD) Settles() int64 { return m.dij.settles }
