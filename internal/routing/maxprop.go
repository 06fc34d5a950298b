package routing

import (
	"math"
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
// Probability storage is polymorphic like the estimator core's
// MeetingStore: dense n×n rows at figure scale, sparse observed-peer rows
// (core.SparseRows) at city scale, with bit-identical routing decisions —
// normalisation sums and divisions visit entries in ascending id order in
// both modes, and the path costs come from Dijkstras whose distances are
// storage-independent. Dense rows carry a neighbour index of their
// positive columns, like core.MeetingMatrix, so normalisation, row copies,
// metering and the cost Dijkstra walk the few positive entries instead of
// all n.
type MaxProp struct {
	Base
	// HopThreshold gives messages with fewer hops transmission priority
	// (default 7).
	HopThreshold int
	// Sparse selects observed-peer row storage and the heap-based cost
	// Dijkstra; set it before Init (MaxPropFactory does).
	Sparse bool
	// MaxSparseRows caps the sparse probability-row store at that many
	// rows with stale-row eviction (own row pinned); 0 = unbounded. Only
	// meaningful with Sparse.
	MaxSparseRows int
	// Gossip selects how the vector exchange at contacts is metered (and,
	// in delta mode, restricted); see core.ExchangeMode. The zero value is
	// the historical fresher accounting. All modes leave identical
	// probability state.
	Gossip core.ExchangeMode

	// Dense storage (nil in sparse mode).
	probs   [][]float64   // probs[u][v]: u's meeting probability for v
	nbrs    core.RowIndex // row u: the v with probs[u][v] > 0
	updated []float64     // freshness per row; -1 = never
	cost    []float64     // cached path cost to every node
	kern    *core.IndexDijkstra
	// Dense delta-gossip bookkeeping, mirroring core.MeetingMatrix's:
	// version counts local row mutations, rowVer stamps rows with their
	// last mutation, seen records the version at the end of the last delta
	// sync with each peer.
	version uint64
	rowVer  []uint64
	seen    map[int]uint64

	// Sparse storage (nil in dense mode).
	rows *core.SparseRows
	dij  *core.SparseDijkstra // per-router: its dist map doubles as the cost cache

	costValid bool
}

// NewMaxProp returns a MaxProp router; use MaxPropFactory so dense routers
// share scratch.
func NewMaxProp() *MaxProp { return &MaxProp{HopThreshold: 7} }

// MaxPropFactory returns a constructor producing MaxProp routers for n
// nodes: dense routers sharing one cost-Dijkstra kernel, or self-contained
// sparse routers whose state grows with observed peers only (optionally
// capped at maxRows rows each). gossip selects the exchange metering.
func MaxPropFactory(n int, sparse bool, maxRows int, gossip core.ExchangeMode) func() network.Router {
	if sparse {
		return func() network.Router {
			r := NewMaxProp()
			r.Sparse = true
			r.MaxSparseRows = maxRows
			r.Gossip = gossip
			return r
		}
	}
	kern := core.NewIndexDijkstra(n)
	return func() network.Router {
		r := NewMaxProp()
		r.kern = kern
		r.Gossip = gossip
		return r
	}
}

// Init implements network.Router.
func (r *MaxProp) Init(self *network.Node, w *network.World) {
	r.Base.Init(self, w)
	n := w.N()
	if r.Sparse {
		r.rows = core.NewSparseRows()
		if r.MaxSparseRows > 0 {
			r.rows.SetCap(r.MaxSparseRows, self.ID)
		}
		r.dij = core.NewSparseDijkstra()
	} else {
		r.probs = make([][]float64, n)
		flat := make([]float64, n*n)
		for i := range r.probs {
			r.probs[i], flat = flat[:n], flat[n:]
		}
		r.nbrs = core.NewRowIndex(n)
		r.updated = make([]float64, n)
		for i := range r.updated {
			r.updated[i] = -1
		}
		r.rowVer = make([]uint64, n)
		r.cost = make([]float64, n)
		if r.kern == nil {
			r.kern = core.NewIndexDijkstra(n)
		}
	}
	// MaxProp's drop order: prefer evicting high-cost (unlikely to be
	// delivered) copies, approximated with the last computed cost vector;
	// ties and cold caches fall back to most-hops.
	self.Buf.SetPolicy(func(_ float64, copies []*msg.Copy) int {
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
	})
}

// Prob returns this node's current meeting probability for peer v.
func (r *MaxProp) Prob(v int) float64 {
	if r.Sparse {
		if row := r.rows.Row(r.Self.ID); row != nil {
			if p, ok := row.Get(v); ok {
				return p
			}
		}
		return 0
	}
	return r.probs[r.Self.ID][v]
}

// ContactUp implements network.Router: incremental-average own vector,
// exchange vectors by freshness, merge delivery acks, purge dead copies.
func (r *MaxProp) ContactUp(t float64, peer *network.Node) {
	pr, _ := peer.Router.(*MaxProp)
	if r.Sparse {
		r.contactUpSparse(t, peer, pr)
	} else {
		r.contactUpDense(t, peer, pr)
	}
	if pr == nil {
		return
	}
	// Ack merge: each side learns the other's delivered set.
	r.Self.SyncKnownDelivered(peer)
	r.PurgeKnownDelivered()
	pr.PurgeKnownDelivered()
}

func (r *MaxProp) contactUpDense(t float64, peer *network.Node, pr *MaxProp) {
	self := r.Self.ID
	own := r.probs[self]
	own[peer.ID]++
	r.nbrs.Set(self, peer.ID)
	// Sum and divide over the positive entries, ascending: the full-row
	// scan's zero entries are exact no-ops in both. An entry that
	// underflows to zero leaves the index.
	sum := 0.0
	for v := range r.nbrs.Cols(self) {
		sum += own[v]
	}
	for v := range r.nbrs.Cols(self) {
		if own[v] /= sum; own[v] == 0 {
			r.nbrs.Clear(self, v)
		}
	}
	r.updated[self] = t
	r.version++
	r.rowVer[self] = r.version
	r.costValid = false
	if pr == nil {
		return
	}
	// Vector exchange with per-row freshness, both directions. Entries
	// counted are the positive probabilities — exactly what a sparse row
	// stores — so dense and sparse exchange volume agree. Delta mode
	// restricts the exchange to rows mutated since the pair's last sync
	// (always a superset of the strictly-fresher rows; dense storage never
	// evicts, so the watermark alone is sound), flood meters full vector
	// transmission; every mode applies the same freshness merge.
	var st core.ExchangeStats
	aSeen, bSeen := uint64(0), uint64(0)
	switch r.Gossip {
	case core.ExchangeDelta:
		aSeen, bSeen = r.seen[peer.ID], pr.seen[self]
		st.AddDigest(r.advertised(aSeen))
		st.AddDigest(pr.advertised(bSeen))
	case core.ExchangeFlood:
		st.Add(r.floodVolume())
		st.Add(pr.floodVolume())
	}
	var moved core.ExchangeStats
	for i := range r.probs {
		if pr.updated[i] > r.updated[i] {
			if r.Gossip == core.ExchangeDelta && pr.rowVer[i] <= bSeen {
				continue
			}
			r.copyRow(pr, i)
			r.updated[i] = pr.updated[i]
			r.version++
			r.rowVer[i] = r.version
			moved.AddRow(r.nbrs.Len(i))
		} else if r.updated[i] > pr.updated[i] {
			if r.Gossip == core.ExchangeDelta && r.rowVer[i] <= aSeen {
				continue
			}
			pr.copyRow(r, i)
			pr.updated[i] = r.updated[i]
			pr.version++
			pr.rowVer[i] = pr.version
			pr.costValid = false
			moved.AddRow(r.nbrs.Len(i))
		}
	}
	switch r.Gossip {
	case core.ExchangeDelta:
		st.Add(moved)
		st.AddRequests(moved.Rows)
		if r.seen == nil {
			r.seen = make(map[int]uint64)
		}
		if pr.seen == nil {
			pr.seen = make(map[int]uint64)
		}
		r.seen[peer.ID] = r.version
		pr.seen[self] = pr.version
	case core.ExchangeFlood:
		// Volume already accounted pre-merge.
	default:
		st = moved
	}
	r.World.Metrics.EstimatorExchanged(st.Rows, st.Entries, st.Bytes, st.DigestBytes)
}

// advertised counts and sizes the published rows mutated past the
// watermark — the dense delta digest to one peer, each row costing a
// varint (owner, stamp) entry.
func (r *MaxProp) advertised(seen uint64) (rows, payloadBytes int) {
	for i, u := range r.updated {
		if u >= 0 && r.rowVer[i] > seen {
			rows++
			payloadBytes += core.DigestEntryLen(i, u)
		}
	}
	return rows, payloadBytes
}

// floodVolume is the cost of transmitting every published probability row.
func (r *MaxProp) floodVolume() core.ExchangeStats {
	var st core.ExchangeStats
	for i, u := range r.updated {
		if u >= 0 {
			st.AddRow(r.nbrs.Len(i))
		}
	}
	return st
}

// copyRow overwrites probability row i with o's. Entries outside a row's
// index are zero, so only the old and the new indexed entries are written.
// The index length is the row's positive-entry count — the entries its
// sparse counterpart stores, hence the exchange metering.
func (r *MaxProp) copyRow(o *MaxProp, i int) {
	row, src := r.probs[i], o.probs[i]
	for v := range r.nbrs.Cols(i) {
		row[v] = 0
	}
	for v := range o.nbrs.Cols(i) {
		row[v] = src[v]
	}
	r.nbrs.CopyRow(i, o.nbrs)
}

// contactUpSparse mirrors contactUpDense over sparse rows. The own-row
// update is bit-identical: the normalisation sum and the divisions visit
// stored entries ascending, and the dense scan's untouched zero entries
// are exact no-ops in both the sum and the division.
func (r *MaxProp) contactUpSparse(t float64, peer *network.Node, pr *MaxProp) {
	own := r.rows.Ensure(r.Self.ID)
	p, _ := own.Get(peer.ID)
	own.Set(peer.ID, p+1)
	own.Div(own.Sum())
	own.Updated = t
	r.rows.Touch(own)
	r.costValid = false
	if pr == nil {
		return
	}
	// Row exchange with per-row freshness, both directions, metered (and
	// in delta mode restricted) by the configured gossip mode. The merge
	// outcome is mode-independent, so invalidating the peer's cost cache
	// whenever any row moved — rather than only on the return direction —
	// costs at most a recompute of identical values.
	st := core.SyncRowsMode(r.rows, pr.rows, r.Self.ID, peer.ID, r.Gossip)
	if st.Rows > 0 {
		pr.costValid = false
	}
	r.World.Metrics.EstimatorExchanged(st.Rows, st.Entries, st.Bytes, st.DigestBytes)
}

// refreshCost recomputes the Σ(1−p) Dijkstra costs from this node.
func (r *MaxProp) refreshCost() {
	if r.Sparse {
		r.dij.Run(r.Self.ID, func(u int, relax func(v int, w float64)) {
			row := r.rows.Row(u)
			if row == nil || row.Updated < 0 {
				return
			}
			row.ForEach(func(v int, p float64) {
				if p <= 0 {
					return
				}
				c := 1 - p
				if c < 1e-9 {
					c = 1e-9
				}
				relax(v, c)
			})
		})
		r.costValid = true
		return
	}
	// Dense: the shared indexed heap kernel over the rows' positive
	// entries, weighting each edge at relax time. A never-published row
	// has an empty index, so it contributes no edges.
	k := r.kern
	u, base := r.Self.ID, 0.0
	k.Reset(u)
	for ok := true; ok; u, base, ok = k.Next() {
		row := r.probs[u]
		for v := range r.nbrs.Cols(u) {
			if v == u {
				continue
			}
			c := 1 - row[v]
			if c < 1e-9 {
				c = 1e-9
			}
			k.Relax(v, base, c)
		}
	}
	copy(r.cost, k.Dist())
	r.costValid = true
}

// pathCost returns the cached cost to dst; +Inf when unreached. Callers
// must have refreshed the cache (costValid).
func (r *MaxProp) pathCost(dst int) float64 {
	if r.Sparse {
		if d, ok := r.dij.Dist(dst); ok {
			return d
		}
		return math.Inf(1)
	}
	return r.cost[dst]
}

// Cost returns the current path cost estimate to dst.
func (r *MaxProp) Cost(dst int) float64 {
	if !r.costValid {
		r.refreshCost()
	}
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
	if !r.costValid {
		r.refreshCost()
	}
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
