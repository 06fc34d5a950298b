package core

import "sort"

// EEVSnapshot freezes the encounter-probability state of a History at one
// instant t so that many horizons (one per buffered message, since each
// message has its own residual TTL) can be evaluated in O(log window) each.
// Routers build one snapshot per contact — the paper's Algorithm 1 makes
// all distribution decisions at meeting time — and query it for every
// message.
//
// For each peer the snapshot keeps the sorted "time until next meeting"
// offsets {Δt − elapsed : Δt ∈ M_ij}; the Theorem-1 probability for a
// horizon τ is then (#offsets ≤ τ) / m_ij.
type EEVSnapshot struct {
	h *History
	t float64

	// Dense-mode storage, one slot per potential peer.
	offsets [][]float64 // per peer, ascending; nil when m = 0
	overdue []bool      // r > 0 but m = 0
	met     []bool

	// backing keeps each peer's offset array alive across Reset so a
	// recycled snapshot (routers build one per contact) reaches a steady
	// state with no heap allocations.
	backing [][]float64

	// Sparse-mode storage: only peers with at least one recorded interval,
	// ascending by id; offs[k] holds ids[k]'s sorted future-meeting offsets
	// and an empty offs[k] encodes the overdue case (probability 1). Peers
	// without entries — never met, or met with an empty window — read as
	// probability 0 exactly as in dense mode. Slices are truncated, never
	// freed, so recycled snapshots reuse their backing arrays.
	//
	// In dense mode ids lists the met peers, ascending: the only slots a
	// build writes, so a recycled snapshot clears those instead of all n.
	sparse bool
	ids    []int
	offs   [][]float64
}

// SnapshotEEV builds a snapshot of h at time t.
func (h *History) SnapshotEEV(t float64) *EEVSnapshot {
	return h.SnapshotEEVInto(t, &EEVSnapshot{})
}

// SnapshotEEVInto builds the snapshot into s, reusing its storage. The
// result is identical to SnapshotEEV; callers recycling snapshots (e.g. a
// router pooling one per contact) avoid all steady-state allocation.
func (h *History) SnapshotEEVInto(t float64, s *EEVSnapshot) *EEVSnapshot {
	s.h = h
	s.t = t
	if h.recs != nil {
		return h.snapshotSparse(t, s)
	}
	if len(s.offsets) != h.n || s.sparse {
		s.offsets = make([][]float64, h.n)
		s.backing = make([][]float64, h.n)
		s.overdue = make([]bool, h.n)
		s.met = make([]bool, h.n)
	} else {
		for _, j := range s.ids {
			s.offsets[j] = nil
			s.overdue[j] = false
			s.met[j] = false
		}
	}
	s.sparse = false
	s.ids = append(s.ids[:0], h.ids...)
	for _, j := range s.ids {
		s.met[j] = true
		elapsed := t - h.last[j]
		if elapsed < 0 {
			elapsed = 0
		}
		ring := &h.ivals[j]
		if ring.len() == 0 {
			continue // met once, no interval: probability 0, like History
		}
		offs := s.backing[j][:0]
		ring.forEach(func(dt float64) {
			if dt > elapsed {
				offs = append(offs, dt-elapsed)
			}
		})
		s.backing[j] = offs
		if len(offs) == 0 {
			s.overdue[j] = true
			continue
		}
		sort.Float64s(offs)
		s.offsets[j] = offs
	}
	return s
}

// snapshotSparse is SnapshotEEVInto's sparse-mode body: it walks the met
// peers (ascending) instead of all n slots and stores entries only for
// peers with a non-empty interval window.
func (h *History) snapshotSparse(t float64, s *EEVSnapshot) *EEVSnapshot {
	s.sparse = true
	s.ids = s.ids[:0]
	k := 0
	for _, id := range h.ids {
		rec := h.recs[id]
		if rec.ring.len() == 0 {
			continue // met once, no interval: probability 0, like dense mode
		}
		elapsed := t - rec.last
		if elapsed < 0 {
			elapsed = 0
		}
		var offs []float64
		if k < len(s.offs) {
			offs = s.offs[k][:0]
		}
		rec.ring.forEach(func(dt float64) {
			if dt > elapsed {
				offs = append(offs, dt-elapsed)
			}
		})
		sort.Float64s(offs)
		if k < len(s.offs) {
			s.offs[k] = offs
		} else {
			s.offs = append(s.offs, offs)
		}
		s.ids = append(s.ids, id)
		k++
	}
	return s
}

// Time returns the instant the snapshot was taken.
func (s *EEVSnapshot) Time() float64 { return s.t }

// Prob returns the Theorem-1 encounter probability for peer within
// (t, t+tau], identical to History.EncounterProb at the snapshot time.
func (s *EEVSnapshot) Prob(peer int, tau float64) float64 {
	if peer == s.h.self || tau <= 0 {
		return 0
	}
	if s.sparse {
		i := sort.SearchInts(s.ids, peer)
		if i >= len(s.ids) || s.ids[i] != peer {
			return 0
		}
		return s.probAt(i, tau)
	}
	if !s.met[peer] {
		return 0
	}
	offs := s.offsets[peer]
	if offs == nil {
		if s.overdue[peer] {
			return 1
		}
		return 0
	}
	return probFromOffsets(offs, tau)
}

// probAt answers Prob for the sparse entry at position i.
func (s *EEVSnapshot) probAt(i int, tau float64) float64 {
	offs := s.offs[i]
	if len(offs) == 0 {
		return 1 // overdue: every observed interval has already elapsed
	}
	return probFromOffsets(offs, tau)
}

// probFromOffsets is the Theorem-1 probability over a sorted, non-empty
// future-meeting offset list — shared by both storage modes so the equal-
// tau boundary semantics cannot drift between them.
func probFromOffsets(offs []float64, tau float64) float64 {
	k := sort.SearchFloat64s(offs, tau)
	// SearchFloat64s returns the first index with offs[i] >= tau; the
	// probability wants offsets <= tau, so advance over equal values.
	for k < len(offs) && offs[k] == tau {
		k++
	}
	return float64(k) / float64(len(offs))
}

// EEV returns the expected encounter value over all peers for horizon tau.
// The sparse sum over stored entries equals the dense all-peers scan
// bitwise: absent peers contribute an exact 0.0 and both visit ascending
// ids.
func (s *EEVSnapshot) EEV(tau float64) float64 {
	sum := 0.0
	if s.sparse {
		if tau <= 0 {
			return 0
		}
		for i := range s.ids {
			sum += s.probAt(i, tau)
		}
		return sum
	}
	for _, j := range s.ids {
		sum += s.Prob(j, tau)
	}
	return sum
}

// EEVSubset returns the intra-community expected encounter value over the
// given members.
func (s *EEVSnapshot) EEVSubset(tau float64, members []int) float64 {
	sum := 0.0
	for _, j := range members {
		sum += s.Prob(j, tau)
	}
	return sum
}

// CommunityProb returns P_ik for the given member set and horizon.
func (s *EEVSnapshot) CommunityProb(tau float64, members []int) float64 {
	miss := 1.0
	for _, j := range members {
		if j == s.h.self {
			continue
		}
		miss *= 1 - s.Prob(j, tau)
		if miss == 0 {
			return 1
		}
	}
	return 1 - miss
}

// ENEC returns the Theorem-4 expected number of encountered communities,
// excluding the node's own community index own.
func (s *EEVSnapshot) ENEC(tau float64, communities [][]int, own int) float64 {
	sum := 0.0
	for k, members := range communities {
		if k == own {
			continue
		}
		sum += s.CommunityProb(tau, members)
	}
	return sum
}
