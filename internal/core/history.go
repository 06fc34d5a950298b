package core

import (
	"fmt"
	"math"
	"sort"
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
// History comes in two storage modes with identical estimator semantics:
// dense (NewHistory) keeps one slot per potential peer — O(n) per node,
// right for figure-scale runs — while sparse (NewSparseHistory) keeps a
// record per *observed* peer only, which is what lets the contact
// expectation protocols run at city scale. Every estimator iterates peers
// in ascending id order in both modes, so probabilities, EMDs and their
// float sums are bit-identical across modes.
//
// History is not safe for concurrent use; in the simulator each node owns
// one and all access happens on the single simulation goroutine.
type History struct {
	self   int
	n      int
	window int
	// Dense storage (nil in sparse mode).
	last  []float64 // last contact start time per peer; NaN = never met
	ivals []intervalRing
	met   []bool
	// Sparse storage over observed peers only (nil in dense mode).
	recs map[int]*peerRec
	ids  []int // met peer ids, ascending (both modes)

	// Row-building scratch for ownMIRow, reused across refreshes.
	rowPeers []int32
	rowVals  []float64
}

// peerRec is one observed peer's sparse contact record.
type peerRec struct {
	last float64
	ring intervalRing
}

// NewHistory returns an empty dense-mode history for node self in a
// network of n nodes, retaining at most window intervals per peer.
// window <= 0 selects DefaultWindow.
func NewHistory(self, n, window int) *History {
	h := newHistoryCommon(self, n, window)
	h.last = make([]float64, n)
	h.ivals = make([]intervalRing, n)
	h.met = make([]bool, n)
	for i := range h.last {
		h.last[i] = math.NaN()
	}
	return h
}

// NewSparseHistory returns an empty sparse-mode history for node self in a
// network of n nodes: storage grows with the number of distinct peers
// actually contacted, never with n.
func NewSparseHistory(self, n, window int) *History {
	h := newHistoryCommon(self, n, window)
	h.recs = make(map[int]*peerRec)
	return h
}

func newHistoryCommon(self, n, window int) *History {
	if self < 0 || self >= n {
		panic(fmt.Sprintf("core: history self %d out of range [0,%d)", self, n))
	}
	if window <= 0 {
		window = DefaultWindow
	}
	return &History{self: self, n: n, window: window}
}

// Sparse reports whether the history uses sparse per-observed-peer
// storage.
func (h *History) Sparse() bool { return h.recs != nil }

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
	if h.recs != nil {
		h.recordSparse(peer, t)
		return
	}
	if !h.met[peer] {
		h.insertMet(peer)
		h.met[peer] = true
		h.last[peer] = t
		return
	}
	dt := t - h.last[peer]
	if dt < 0 {
		panic(fmt.Sprintf("core: contact time going backwards for peer %d: %g after %g", peer, t, h.last[peer]))
	}
	if h.ivals[peer].buf == nil {
		h.ivals[peer] = newIntervalRing(h.window)
	}
	h.ivals[peer].push(dt)
	h.last[peer] = t
}

// recordSparse is RecordContact's sparse-mode body: first meetings insert
// a record (keeping the met-peer list ascending), later ones append the
// interval to the peer's ring.
func (h *History) recordSparse(peer int, t float64) {
	if peer < 0 || peer >= h.n {
		panic(fmt.Sprintf("core: peer %d out of range [0,%d)", peer, h.n))
	}
	rec := h.recs[peer]
	if rec == nil {
		h.insertMet(peer)
		h.recs[peer] = &peerRec{last: t}
		return
	}
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

// insertMet adds a first-met peer to the ascending met-peer list.
func (h *History) insertMet(peer int) {
	i := sort.SearchInts(h.ids, peer)
	h.ids = append(h.ids, 0)
	copy(h.ids[i+1:], h.ids[i:])
	h.ids[i] = peer
}

// peerState resolves peer's record in either storage mode: the last
// contact time, the interval ring (nil when none was ever needed) and
// whether the pair ever met.
func (h *History) peerState(peer int) (last float64, ring *intervalRing, met bool) {
	if h.recs != nil {
		rec := h.recs[peer]
		if rec == nil {
			return 0, nil, false
		}
		return rec.last, &rec.ring, true
	}
	if !h.met[peer] {
		return 0, nil, false
	}
	return h.last[peer], &h.ivals[peer], true
}

// forEachMet visits every peer the node has ever contacted, in ascending
// id order — the shared iteration every cross-peer estimator reduces over,
// identical in both storage modes.
func (h *History) forEachMet(f func(peer int)) {
	for _, id := range h.ids {
		f(id)
	}
}

// MetCount returns the number of distinct peers ever contacted.
func (h *History) MetCount() int { return len(h.ids) }

// Met reports whether the node has ever contacted peer.
func (h *History) Met(peer int) bool {
	_, _, met := h.peerState(peer)
	return met
}

// LastContact returns the start time of the most recent contact with peer.
// ok is false if they never met.
func (h *History) LastContact(peer int) (t float64, ok bool) {
	last, _, met := h.peerState(peer)
	if !met {
		return 0, false
	}
	return last, true
}

// Intervals returns a copy of the recorded meeting intervals R(self,peer),
// oldest first.
func (h *History) Intervals(peer int) []float64 {
	_, r, met := h.peerState(peer)
	if !met || r == nil {
		return []float64{}
	}
	out := make([]float64, 0, r.len())
	r.forEach(func(v float64) { out = append(out, v) })
	return out
}

// IntervalCount returns r_ij, the number of recorded intervals for peer.
func (h *History) IntervalCount(peer int) int {
	_, r, met := h.peerState(peer)
	if !met || r == nil {
		return 0
	}
	return r.len()
}

// MeanInterval returns the average of the recorded meeting intervals
// I(self,peer) = (1/r)·Σ Δt_k. ok is false when no interval is recorded.
// This is the quantity node self publishes into its MI row.
func (h *History) MeanInterval(peer int) (mean float64, ok bool) {
	_, r, met := h.peerState(peer)
	if !met || r == nil || r.len() == 0 {
		return 0, false
	}
	sum := 0.0
	r.forEach(func(v float64) { sum += v })
	return sum / float64(r.len()), true
}

// conditioned computes the window statistics of Theorems 1/2/4 for peer at
// time t:
//
//	m    = |M|  where M  = {Δt ∈ R : Δt > t - t0}
//	sumM = Σ of M
//	mTau = |Mτ| where Mτ = {Δt ∈ M : Δt ≤ t + tau - t0}
//	r    = |R|
//
// If the node never met peer, met is false and all counts are zero.
func (h *History) conditioned(peer int, t, tau float64) (m, mTau, r int, sumM float64, met bool) {
	last, ring, known := h.peerState(peer)
	if !known {
		return 0, 0, 0, 0, false
	}
	elapsed := t - last
	if elapsed < 0 {
		elapsed = 0
	}
	if ring == nil {
		return 0, 0, 0, 0, true
	}
	r = ring.len()
	ring.forEach(func(dt float64) {
		if dt > elapsed {
			m++
			sumM += dt
			if dt <= elapsed+tau {
				mTau++
			}
		}
	})
	return m, mTau, r, sumM, true
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
	m, mTau, r, _, met := h.conditioned(peer, t, tau)
	if !met || r == 0 {
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
	m, _, r, sumM, met := h.conditioned(peer, t, math.Inf(1))
	if !met || r == 0 {
		return math.Inf(1), false
	}
	if m == 0 {
		mean, _ := h.MeanInterval(peer)
		return math.Max(mean, MinDelay), true
	}
	last, _, _ := h.peerState(peer)
	elapsed := t - last
	if elapsed < 0 {
		elapsed = 0
	}
	v := sumM/float64(m) - elapsed
	return math.Max(v, MinDelay), true
}

// MinDelay is the smallest expected meeting delay reported by EMD. MD edge
// weights must stay strictly positive for Dijkstra.
const MinDelay = 1e-9

// EEV returns the expected encounter value of the node within (t, t+tau]
// (Theorem 1): the sum of EncounterProb over all other nodes. Never-met
// peers contribute an exact 0.0, so the sparse mode's met-peers-only sum is
// bit-identical to the dense all-peers scan.
func (h *History) EEV(t, tau float64) float64 {
	sum := 0.0
	if h.recs != nil {
		for _, j := range h.ids {
			sum += h.EncounterProb(j, t, tau)
		}
		return sum
	}
	for j := 0; j < h.n; j++ {
		if j == h.self {
			continue
		}
		sum += h.EncounterProb(j, t, tau)
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
