package core

import (
	"slices"
	"sort"
)

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

	// Only peers with at least one recorded interval, ascending by id;
	// offs[k] holds ids[k]'s sorted future-meeting offsets and an empty
	// offs[k] encodes the overdue case (probability 1). Peers without
	// entries — never met, or met with an empty window — read as
	// probability 0. Slices are truncated, never freed, so recycled
	// snapshots reuse their backing arrays.
	ids  []int32
	offs [][]float64
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
	s.ids = s.ids[:0]
	k := 0
	for i := range h.recs {
		rec := &h.recs[i]
		if rec.ring.len() == 0 {
			continue // met once, no interval: probability 0, like History
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
		s.ids = append(s.ids, h.ids[i])
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
	if i, ok := slices.BinarySearch(s.ids, int32(peer)); ok {
		return s.probAt(i, tau)
	}
	return 0
}

// probAt answers Prob for the entry at position i.
func (s *EEVSnapshot) probAt(i int, tau float64) float64 {
	offs := s.offs[i]
	if len(offs) == 0 {
		return 1 // overdue: every observed interval has already elapsed
	}
	return probFromOffsets(offs, tau)
}

// probFromOffsets is the Theorem-1 probability over a sorted, non-empty
// future-meeting offset list.
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
// The sum over stored entries equals an all-peers scan bitwise: absent
// peers contribute an exact 0.0, and both visit ascending ids.
func (s *EEVSnapshot) EEV(tau float64) float64 {
	sum := 0.0
	if tau <= 0 {
		return sum
	}
	for i := range s.ids {
		sum += s.probAt(i, tau)
	}
	return sum
}

// EEVSubset returns the intra-community expected encounter value over the
// given members.
func (s *EEVSnapshot) EEVSubset(tau float64, members []int) float64 {
	sum := 0.0
	if tau <= 0 {
		return sum
	}
	// Members without an entry add an exact 0.0, so only entries are summed.
	s.forEntries(members, func(k int) { sum += s.probAt(k, tau) })
	return sum
}

// CommunityProb returns P_ik for the given member set and horizon.
func (s *EEVSnapshot) CommunityProb(tau float64, members []int) float64 {
	if tau <= 0 {
		return 0
	}
	// Members without an entry multiply by an exact 1.0, so only entries
	// are folded in; a certain meeting ends the product.
	miss := 1.0
	s.forEntries(members, func(k int) {
		if miss != 0 {
			miss *= 1 - s.probAt(k, tau)
		}
	})
	if miss == 0 {
		return 1
	}
	return 1 - miss
}

// forEntries calls f with the position of every member other than the
// snapshot's node that has an entry, in member order. Members arrive
// ascending (community registries list them so), so a cursor gallops
// forward through the entries; an out-of-order member restarts it.
func (s *EEVSnapshot) forEntries(members []int, f func(k int)) {
	ids, k := s.ids, 0
	for i, j := range members {
		if j == s.h.self {
			continue
		}
		if i > 0 && j < members[i-1] {
			k = 0
		}
		peer := int32(j)
		lo, step := k, 1
		for k < len(ids) && ids[k] < peer {
			lo = k + 1
			k += step
			step *= 2
		}
		if k > len(ids) {
			k = len(ids)
		}
		d, found := slices.BinarySearch(ids[lo:k], peer)
		if k = lo + d; !found && (k == len(ids) || ids[k] != peer) {
			continue
		}
		f(k)
	}
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
