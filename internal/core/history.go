package core

import (
	"fmt"
	"iter"
	"math"
	"slices"
)

// DefaultWindow is the default number of meeting intervals retained per
// peer. The paper uses "a set of sliding windows" without stating a size;
// 32 keeps several hours of bus-line meetings at typical meeting rates.
const DefaultWindow = 32

// intervalRing is a fixed-capacity ring buffer of meeting intervals,
// ordered oldest to newest.
type intervalRing struct {
	buf   []float64
	start int // index of oldest element
	n     int // number of stored elements
}

func newIntervalRing(capacity int) intervalRing {
	return intervalRing{buf: make([]float64, capacity)}
}

func (r *intervalRing) push(v float64) {
	if len(r.buf) == 0 {
		return
	}
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = v
		r.n++
		return
	}
	r.buf[r.start] = v
	r.start = (r.start + 1) % len(r.buf)
}

func (r *intervalRing) len() int { return r.n }

// forEach visits intervals oldest-first.
func (r *intervalRing) forEach(f func(v float64)) {
	for i := 0; i < r.n; i++ {
		f(r.buf[(r.start+i)%len(r.buf)])
	}
}

// History is one node's record of its contacts with every other node: the
// time of the last contact and a sliding window R_ij of past meeting
// intervals, as required by Section III-A.1 of the paper. Meeting intervals
// are measured between consecutive contact starts.
//
// Storage grows with the number of *observed* peers, never with the
// network size: one record per met peer, kept in a list sorted by peer id.
// Every estimator iterates peers in ascending id order, so probabilities,
// EMDs and their float sums equal those of a scan over all n peers, where
// never-met peers contribute exact zeros.
//
// History is not safe for concurrent use; in the simulator each node owns
// one and all access happens on the single simulation goroutine.
type History struct {
	self   int
	n      int
	window int
	ids    []int32   // met peer ids, ascending
	recs   []peerRec // recs[i] belongs to ids[i]

	// Row-building scratch for UpdateOwnRow, reused across refreshes.
	rowPeers []int32
	rowVals  []float64
}

// peerRec is one observed peer's contact record: the last contact start
// and the interval window (nil until a second meeting needs it).
type peerRec struct {
	last float64
	ring intervalRing
}

// NewHistory returns an empty history for node self in a network of n
// nodes, retaining at most window intervals per peer. window <= 0 selects
// DefaultWindow.
func NewHistory(self, n, window int) *History {
	if self < 0 || self >= n {
		panic(fmt.Sprintf("core: history self %d out of range [0,%d)", self, n))
	}
	if window <= 0 {
		window = DefaultWindow
	}
	return &History{self: self, n: n, window: window}
}

// Self returns the owning node id.
func (h *History) Self() int { return h.self }

// N returns the network size the history was built for.
func (h *History) N() int { return h.n }

// Window returns the sliding-window capacity.
func (h *History) Window() int { return h.window }

// RecordContact records the start of a contact with peer at time t. If a
// previous contact exists, the interval since it is appended to the sliding
// window R(self,peer). Non-monotonic timestamps are rejected with a panic —
// the simulator never produces them, so they indicate a harness bug.
func (h *History) RecordContact(peer int, t float64) {
	if peer == h.self {
		panic("core: self-contact recorded")
	}
	if peer < 0 || peer >= h.n {
		panic(fmt.Sprintf("core: peer %d out of range [0,%d)", peer, h.n))
	}
	i, ok := slices.BinarySearch(h.ids, int32(peer))
	if !ok {
		h.ids = slices.Insert(h.ids, i, int32(peer))
		h.recs = slices.Insert(h.recs, i, peerRec{last: t})
		return
	}
	rec := &h.recs[i]
	dt := t - rec.last
	if dt < 0 {
		panic(fmt.Sprintf("core: contact time going backwards for peer %d: %g after %g", peer, t, rec.last))
	}
	if rec.ring.buf == nil {
		rec.ring = newIntervalRing(h.window)
	}
	rec.ring.push(dt)
	rec.last = t
}

// metIn yields the position and id of every met peer in scope (nil =
// every met peer), ascending: one walk over both sorted lists.
func (h *History) metIn(scope ScopeSet) iter.Seq2[int, int32] {
	return func(yield func(int, int32) bool) {
		j := 0
		for i, peer := range h.ids {
			if scope != nil {
				for j < len(scope) && scope[j] < peer {
					j++
				}
				if j == len(scope) {
					return
				}
				if scope[j] != peer {
					continue
				}
			}
			if !yield(i, peer) {
				return
			}
		}
	}
}

// rec returns peer's record, or nil if the pair never met.
func (h *History) rec(peer int) *peerRec {
	if i, ok := slices.BinarySearch(h.ids, int32(peer)); ok {
		return &h.recs[i]
	}
	return nil
}

// MetCount returns the number of distinct peers ever contacted.
func (h *History) MetCount() int { return len(h.ids) }

// Met reports whether the node has ever contacted peer.
func (h *History) Met(peer int) bool { return h.rec(peer) != nil }

// LastContact returns the start time of the most recent contact with peer.
// ok is false if they never met.
func (h *History) LastContact(peer int) (t float64, ok bool) {
	if r := h.rec(peer); r != nil {
		return r.last, true
	}
	return 0, false
}

// Intervals returns a copy of the recorded meeting intervals R(self,peer),
// oldest first.
func (h *History) Intervals(peer int) []float64 {
	out := []float64{}
	if r := h.rec(peer); r != nil {
		r.ring.forEach(func(v float64) { out = append(out, v) })
	}
	return out
}

// IntervalCount returns r_ij, the number of recorded intervals for peer.
func (h *History) IntervalCount(peer int) int {
	if r := h.rec(peer); r != nil {
		return r.ring.len()
	}
	return 0
}

// MeanInterval returns the average of the recorded meeting intervals
// I(self,peer) = (1/r)·Σ Δt_k. ok is false when no interval is recorded.
// This is the quantity node self publishes into its MI row.
func (h *History) MeanInterval(peer int) (mean float64, ok bool) {
	if r := h.rec(peer); r != nil {
		return r.mean()
	}
	return 0, false
}

// mean is MeanInterval over the record.
func (r *peerRec) mean() (float64, bool) {
	if r.ring.len() == 0 {
		return 0, false
	}
	sum := 0.0
	r.ring.forEach(func(v float64) { sum += v })
	return sum / float64(r.ring.len()), true
}

// conditioned computes the window statistics of Theorems 1/2/4 for the
// record r at time t:
//
//	m    = |M|  where M  = {Δt ∈ R : Δt > t - t0}
//	sumM = Σ of M
//	mTau = |Mτ| where Mτ = {Δt ∈ M : Δt ≤ t + tau - t0}
//	r    = |R|
func (r *peerRec) conditioned(t, tau float64) (m, mTau, n int, sumM float64) {
	elapsed := t - r.last
	if elapsed < 0 {
		elapsed = 0
	}
	n = r.ring.len()
	r.ring.forEach(func(dt float64) {
		if dt > elapsed {
			m++
			sumM += dt
			if dt <= elapsed+tau {
				mTau++
			}
		}
	})
	return m, mTau, n, sumM
}

// EncounterProb returns the estimated probability (Eq. 4 in the proof of
// Theorem 1) that the node meets peer within (t, t+tau]:
//
//	P(Δt ≤ t+τ−t0 | Δt > t−t0) = mτ_ij / m_ij.
//
// Conventions: never-met peers yield 0; a met peer with an empty window
// (r = 0) yields 0; an overdue peer (r > 0 but m = 0, i.e. the elapsed time
// exceeds every recorded interval) yields 1 for tau > 0.
func (h *History) EncounterProb(peer int, t, tau float64) float64 {
	if peer == h.self || tau <= 0 {
		return 0
	}
	if r := h.rec(peer); r != nil {
		return r.encounterProb(t, tau)
	}
	return 0
}

// encounterProb is EncounterProb over the record, for tau > 0.
func (r *peerRec) encounterProb(t, tau float64) float64 {
	m, mTau, n, _ := r.conditioned(t, tau)
	if n == 0 {
		return 0
	}
	if m == 0 {
		return 1 // overdue: every observed interval has already elapsed
	}
	return float64(mTau) / float64(m)
}

// EMD returns the expected meeting delay to peer at time t (Theorem 2):
//
//	EMD_ij(t) = (1/m)·Σ_{Δt ∈ M} Δt − (t − t0).
//
// ok is false when the node never met peer or has no recorded interval. An
// overdue peer (m = 0, r > 0) falls back to the unconditioned mean
// interval. The result is clamped to MinDelay to keep MD edge weights
// positive.
func (h *History) EMD(peer int, t float64) (emd float64, ok bool) {
	if peer == h.self {
		return 0, false
	}
	if r := h.rec(peer); r != nil {
		return r.emd(t)
	}
	return math.Inf(1), false
}

// emd is EMD over the record.
func (r *peerRec) emd(t float64) (float64, bool) {
	m, _, n, sumM := r.conditioned(t, math.Inf(1))
	if n == 0 {
		return math.Inf(1), false
	}
	if m == 0 {
		mean, _ := r.mean()
		return math.Max(mean, MinDelay), true
	}
	elapsed := t - r.last
	if elapsed < 0 {
		elapsed = 0
	}
	return math.Max(sumM/float64(m)-elapsed, MinDelay), true
}

// MinDelay is the smallest expected meeting delay reported by EMD. MD edge
// weights must stay strictly positive for Dijkstra.
const MinDelay = 1e-9

// EEV returns the expected encounter value of the node within (t, t+tau]
// (Theorem 1): the sum of EncounterProb over all other nodes. Never-met
// peers contribute an exact 0.0, so the sum over met peers equals the
// all-peers sum bitwise.
func (h *History) EEV(t, tau float64) float64 {
	sum := 0.0
	if tau <= 0 {
		return sum
	}
	for i := range h.recs {
		sum += h.recs[i].encounterProb(t, tau)
	}
	return sum
}

// EEVSubset returns the expected encounter value restricted to the given
// node set — the intra-community EEV' used by the CR protocol (Section
// IV-C). The set may include self; it is skipped.
func (h *History) EEVSubset(t, tau float64, members []int) float64 {
	sum := 0.0
	for _, j := range members {
		if j == h.self {
			continue
		}
		sum += h.EncounterProb(j, t, tau)
	}
	return sum
}

// CommunityProb returns P_ik, the probability (Theorem 4's proof) that the
// node encounters at least one member of the given community within
// (t, t+tau]:
//
//	P_ik = 1 − Π_{u_j ∈ C_k} (1 − P(meet u_j in (t, t+τ])).
func (h *History) CommunityProb(t, tau float64, members []int) float64 {
	miss := 1.0
	for _, j := range members {
		if j == h.self {
			continue
		}
		miss *= 1 - h.EncounterProb(j, t, tau)
		if miss == 0 {
			return 1
		}
	}
	return 1 - miss
}

// ENEC returns the expected number of encountered communities within
// (t, t+tau] (Theorem 4). communities[k] lists the member node ids of
// community k and own is the node's own community index, which is excluded
// from the sum exactly as in Eq. 3.
func (h *History) ENEC(t, tau float64, communities [][]int, own int) float64 {
	sum := 0.0
	for k, members := range communities {
		if k == own {
			continue
		}
		sum += h.CommunityProb(t, tau, members)
	}
	return sum
}
