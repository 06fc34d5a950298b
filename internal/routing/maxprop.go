package routing

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/network"
)

// MaxProp implements Burgess et al.'s MaxProp, the epidemic-family
// comparison protocol of the paper's Figure 2. Implemented features:
// incrementally averaged (sum-normalised) meeting probabilities, flooded
// probability vectors, Dijkstra path costs Σ(1−p), transmission priority —
// destination-direct first, then low-hop messages, then ascending cost —
// delivered-message acks that purge copies network-wide, and a cost-aware
// drop order. Simplification (documented in DESIGN.md): the hop-count
// priority threshold is a fixed configurable value instead of MaxProp's
// adaptive byte-based estimate.
//
// Each node's probability vector is a published core.Row of its positive
// entries: the own-row update builds a new row, and the vector exchange
// moves row pointers, so every router that learned a vector shares it.
// The rows live in a core.RowSet holding only the owners a node has heard
// of. Normalisation sums and divisions visit entries in ascending id
// order, and the path costs come from the world's shared Dijkstra kernel;
// a router keeps only the costs of the destinations that run reached.
type MaxProp struct {
	Base
	// HopThreshold gives messages with fewer hops transmission priority
	// (default 7).
	HopThreshold int
	// MaxSparseRows caps the probability-row store at that many rows with
	// stale-row eviction (own row pinned); 0 = unbounded.
	MaxSparseRows int
	// Gossip selects how the vector exchange at contacts is metered (and,
	// in delta mode, restricted); see core.ExchangeMode. The zero value is
	// the historical fresher accounting. All modes leave identical
	// probability state.
	Gossip core.ExchangeMode

	rows *core.RowSet // probability rows by owner id

	// kern is the world's shared cost Dijkstra. costRun is the kernel run
	// of this router's last refresh: while no other router has reset the
	// kernel, its distances answer reads directly. cost keeps that run's
	// reached destinations for later reads, sorted by id on first use.
	kern       *core.IndexDijkstra
	costRun    uint64
	cost       []core.Reach
	costSorted bool

	// costValid is set when a decision validates the cost cache and
	// cleared when a row of this router changes; the drop policy reads
	// costs only while it is set. costComputed records that the Dijkstra
	// has run since the last row change: the cost cache fills on first
	// read, so contacts whose decisions never compare costs skip it.
	costValid    bool
	costComputed bool
	// Tests compare the Dijkstras run with those an eager refresh at every
	// validation would have run.
	costValidations, costRuns int
}

// NewMaxProp returns a MaxProp router; use MaxPropFactory so routers
// share the cost kernel.
func NewMaxProp() *MaxProp { return &MaxProp{HopThreshold: 7} }

// MaxPropFactory returns a constructor producing MaxProp routers for n
// nodes that share one cost-Dijkstra kernel, each row store optionally
// capped at maxRows rows. gossip selects the exchange metering.
func MaxPropFactory(n, maxRows int, gossip core.ExchangeMode) func() network.Router {
	kern := core.NewIndexDijkstra(n)
	return func() network.Router {
		r := NewMaxProp()
		r.kern = kern
		r.MaxSparseRows = maxRows
		r.Gossip = gossip
		return r
	}
}

// Init implements network.Router.
func (r *MaxProp) Init(self *network.Node, w *network.World) {
	r.Base.Init(self, w)
	r.rows = core.NewRowSet()
	if r.MaxSparseRows > 0 {
		r.rows.SetCap(r.MaxSparseRows, self.ID)
	}
	if r.kern == nil {
		r.kern = core.NewIndexDijkstra(w.N())
	}
	self.Buf.SetPolicy(r.dropVictim)
}

// dropVictim is MaxProp's drop order: prefer evicting high-cost (unlikely
// to be delivered) copies, approximated with the cost cache as of the
// last decision; ties and cold caches fall back to most-hops.
func (r *MaxProp) dropVictim(_ float64, copies []*msg.Copy) int {
	best, bestScore := 0, math.Inf(-1)
	for i, c := range copies {
		score := float64(c.Hops)
		if r.costValid {
			if pc := r.pathCost(c.M.To); !math.IsInf(pc, 1) {
				score = 1e6 * pc
			}
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// Prob returns this node's current meeting probability for peer v.
func (r *MaxProp) Prob(v int) float64 {
	p, _ := r.rows.Row(r.Self.ID).Get(v)
	return p
}

// ContactUp implements network.Router: incremental-average own vector,
// exchange vectors by freshness, merge delivery acks, purge dead copies.
func (r *MaxProp) ContactUp(t float64, peer *network.Node) {
	self := r.Self.ID
	r.rows.Publish(self, bumpedRow(r.rows.Row(self), peer.ID, t))
	r.invalidateCost()
	pr, _ := peer.Router.(*MaxProp)
	if pr == nil {
		return
	}
	// Vector exchange with per-row freshness, both directions, metered
	// (and in delta mode restricted) by the configured gossip mode; every
	// mode leaves the same rows. The peer's cost cache goes stale only if
	// a row moved to it.
	v := pr.rows.Version()
	st := core.SyncRows(r.rows, pr.rows, self, peer.ID, r.Gossip)
	if pr.rows.Version() != v {
		pr.invalidateCost()
	}
	r.World.Metrics.EstimatorExchanged(st.Rows, st.Entries, st.Bytes, st.DigestBytes)
	// Ack merge: each side learns the other's delivered set.
	r.Self.SyncKnownDelivered(peer)
	r.PurgeKnownDelivered()
	pr.PurgeKnownDelivered()
}

// bumpedRow returns the own probability row after a meeting with peer at
// time t: peer's entry incremented (from 0 if absent), then every entry
// divided by the row sum — MaxProp's incremental averaging. Sum and
// divisions run in ascending peer order, so the result is bit-identical to
// a scan of the full vector, whose zero entries are exact no-ops in both.
// An entry that underflows to zero is dropped: a row holds exactly its
// positive probabilities, which is also what the exchange meters.
func bumpedRow(old *core.Row, peer int, t float64) *core.Row {
	oldPeers, oldVals := old.Entries()
	peers := make([]int32, 0, len(oldPeers)+1)
	vals := make([]float64, 0, len(oldPeers)+1)
	bumped := false
	for i, p := range oldPeers {
		if !bumped && int(p) >= peer {
			bumped = true
			if int(p) == peer {
				peers, vals = append(peers, p), append(vals, oldVals[i]+1)
				continue
			}
			peers, vals = append(peers, int32(peer)), append(vals, 1)
		}
		peers, vals = append(peers, p), append(vals, oldVals[i])
	}
	if !bumped {
		peers, vals = append(peers, int32(peer)), append(vals, 1)
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	k := 0
	for i, v := range vals {
		if v /= sum; v != 0 {
			peers[k], vals[k] = peers[i], v
			k++
		}
	}
	return core.NewRow(t, peers[:k], vals[:k])
}

// validateCost marks the cost cache as the one the drop policy reads,
// as of the current rows.
func (r *MaxProp) validateCost() {
	if !r.costValid {
		r.costValid = true
		r.costValidations++
	}
}

// invalidateCost marks the cost cache stale after a row of this router
// changed.
func (r *MaxProp) invalidateCost() {
	r.costValid = false
	r.costComputed = false
}

// refreshCost recomputes the Σ(1−p) Dijkstra costs from this node on the
// shared kernel, relaxing each row's positive entries in ascending order,
// and keeps the reached destinations.
func (r *MaxProp) refreshCost() {
	r.costRuns++
	k := r.kern
	u, base := r.Self.ID, 0.0
	k.Reset(u, r.rows)
	for ok := true; ok; u, base, ok = k.Next() {
		peers, probs := k.RowOf(u).Entries()
		for i, v := range peers {
			k.Relax(int(v), base, edgeCost(probs[i]))
		}
	}
	r.costRun = k.Run()
	r.cost = append(r.cost[:0], k.Settled()...)
	r.costSorted = false
	r.costComputed = true
}

// edgeCost is the Σ(1−p) path-cost weight of a meeting probability,
// floored at 1e-9 so a certain meeting still counts as an edge.
func edgeCost(p float64) float64 {
	c := 1 - p
	if c < 1e-9 {
		c = 1e-9
	}
	return c
}

// pathCost returns the cost to dst; +Inf when unreached. The Dijkstra
// runs on the first read after a row change. That is bit-identical to
// refreshing when the cache was validated: every row change clears both
// flags, so a read under costValid sees exactly the rows the validating
// decision saw.
func (r *MaxProp) pathCost(dst int) float64 {
	if !r.costComputed {
		r.refreshCost()
	}
	if r.kern.Run() == r.costRun {
		d, _ := r.kern.Dist(dst)
		return d
	}
	if !r.costSorted {
		slices.SortFunc(r.cost, func(a, b core.Reach) int { return cmp.Compare(a.ID, b.ID) })
		r.costSorted = true
	}
	i, ok := slices.BinarySearchFunc(r.cost, int32(dst), func(e core.Reach, id int32) int { return cmp.Compare(e.ID, id) })
	if !ok {
		return math.Inf(1)
	}
	return r.cost[i].D
}

// Cost returns the current path cost estimate to dst.
func (r *MaxProp) Cost(dst int) float64 {
	r.validateCost()
	return r.pathCost(dst)
}

// NextTransfer implements network.Router with MaxProp's transmission
// order.
func (r *MaxProp) NextTransfer(t float64, peer *network.Node) *network.Plan {
	if p := r.DeliverDirect(t, peer); p != nil {
		return p
	}
	cands := r.Candidates(t, peer)
	if len(cands) == 0 {
		return nil
	}
	r.validateCost()
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		aLow, bLow := a.Hops < r.HopThreshold, b.Hops < r.HopThreshold
		if aLow != bLow {
			return aLow
		}
		if aLow {
			if a.Hops != b.Hops {
				return a.Hops < b.Hops
			}
			return a.M.ID < b.M.ID
		}
		ca, cb := r.pathCost(a.M.To), r.pathCost(b.M.To)
		if ca != cb {
			return ca < cb
		}
		return a.M.ID < b.M.ID
	})
	return network.Replicate(cands[0])
}
