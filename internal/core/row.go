package core

import (
	"fmt"
	"sort"
)

// Row is one node's published estimator row: its freshness timestamp plus
// its entries, ascending by peer — an MI row's finite off-diagonal mean
// intervals, a MaxProp row's positive meeting probabilities. Peers are in
// the index space of the store that publishes the row: local indices for a
// dense store (so a community-scoped matrix relaxes without id lookups),
// global ids for a sparse one.
//
// A published row is an immutable value. Only its owner ever builds a new
// version of it, and a sync only swaps a whole row for a fresher one
// (footnote 1 of the paper), so every store that learned a row holds a
// pointer to the same Row instead of a copy of its entries. Nothing may
// mutate a Row after NewRow returns it; an own-row refresh builds and
// publishes a new one.
//
// Ascending order is part of the contract: every simulation-visible float
// reduction over a row (normalisation sums, Dijkstra relaxations) visits
// entries in peer order, which is what keeps results bit-identical across
// storages.
type Row struct {
	// Updated is the time the owner published the row.
	Updated float64

	peers []int32
	vals  []float64
}

// NewRow returns a published row over the given entries, which must be
// ascending by peer without duplicates. The row takes ownership of both
// slices; the caller must not touch them afterwards.
func NewRow(updated float64, peers []int32, vals []float64) *Row {
	if len(peers) != len(vals) {
		panic(fmt.Sprintf("core: row with %d peers and %d values", len(peers), len(vals)))
	}
	for i := 1; i < len(peers); i++ {
		if peers[i] <= peers[i-1] {
			panic(fmt.Sprintf("core: row entries out of order: %d after %d", peers[i], peers[i-1]))
		}
	}
	return &Row{Updated: updated, peers: peers, vals: vals}
}

// Len returns the number of entries; a nil row has none.
func (r *Row) Len() int {
	if r == nil {
		return 0
	}
	return len(r.peers)
}

// Get returns the entry for peer; ok is false when the row (possibly nil)
// holds none.
func (r *Row) Get(peer int) (v float64, ok bool) {
	if r == nil {
		return 0, false
	}
	i := sort.Search(len(r.peers), func(i int) bool { return int(r.peers[i]) >= peer })
	if i < len(r.peers) && int(r.peers[i]) == peer {
		return r.vals[i], true
	}
	return 0, false
}

// Entries returns the row's peers and values, ascending by peer (shared;
// do not mutate). A nil row has none.
func (r *Row) Entries() (peers []int32, vals []float64) {
	if r == nil {
		return nil, nil
	}
	return r.peers, r.vals
}

// updatedOf is a slot's freshness: the row's timestamp, or -1 for a
// never-published (nil) row.
func updatedOf(r *Row) float64 {
	if r == nil {
		return -1
	}
	return r.Updated
}

// RowSet is a store of published rows keyed by owner with the per-row
// freshness merge of Algorithm 1 line 4: DenseRows (one slot per node) at
// figure scale, SparseRows (observed owners only) at city scale. The MI
// stores build on it, and MaxProp floods its probability vectors through
// it. SyncRows pairs two sets of the same implementation.
type RowSet interface {
	// Row returns owner's row, or nil if none was ever published or
	// learned.
	Row(owner int) *Row
	// Publish stores r as owner's row, stamping a local mutation for delta
	// digests. r must be fresh from NewRow or learned from another set.
	Publish(owner int, r *Row)
	// Version counts the set's local row mutations.
	Version() uint64

	gossip() *gossipMarks
	floodVolume() ExchangeStats
	advertised(seen uint64, full bool) (rows, payloadBytes int)
	mergeFrom(o RowSet, oSeen uint64, oFull bool) ExchangeStats
}

// gossipMarks is a row set's delta-gossip bookkeeping (see exchange.go):
// version counts local row mutations, evictGen counts cap evictions, seen
// records the local version as of the end of the last delta sync with each
// peer, and evictSeen the local eviction generation as of the start of that
// sync — a peer whose counterpart evicted since they last met gets a full
// digest, which keeps delta outcomes identical to fresher-wins even under
// row caps. Stores that never evict keep evictGen at 0.
type gossipMarks struct {
	version   uint64
	evictGen  uint64
	seen      map[int]uint64
	evictSeen map[int]uint64
}

// DenseRows is a row set over slots 0..n-1: one row pointer per slot (nil
// = never published), each slot's freshness inline (updatedOf the row, so
// the exchange compares two contiguous arrays and dereferences only the
// rows it takes) and the store-local version of each slot's last
// mutation, the stamp delta digests compare. At 240 nodes that is ~6 KB
// per store, whatever the rows hold; the entries themselves are shared
// with every other store that learned them.
type DenseRows struct {
	ids  []int // global owner id per slot; nil when slot i is owner i
	rows []*Row
	upd  []float64 // updatedOf(rows[i]); written only by Publish
	ver  []uint64
	gossipMarks
}

// NewDenseRows returns an empty set over owners 0..n-1.
func NewDenseRows(n int) *DenseRows {
	upd := make([]float64, n)
	for i := range upd {
		upd[i] = updatedOf(nil)
	}
	return &DenseRows{rows: make([]*Row, n), upd: upd, ver: make([]uint64, n)}
}

// Row implements RowSet.
func (s *DenseRows) Row(i int) *Row { return s.rows[i] }

// Publish implements RowSet.
func (s *DenseRows) Publish(i int, r *Row) {
	s.rows[i] = r
	s.upd[i] = updatedOf(r)
	s.version++
	s.ver[i] = s.version
}

// Version implements RowSet.
func (s *DenseRows) Version() uint64 { return s.version }

// knownRows returns how many slots hold a row.
func (s *DenseRows) knownRows() int {
	n := 0
	for _, r := range s.rows {
		if r != nil {
			n++
		}
	}
	return n
}

// owner returns slot i's global owner id.
func (s *DenseRows) owner(i int) int {
	if s.ids == nil {
		return i
	}
	return s.ids[i]
}

// clone returns a set holding the same row pointers and stamps; delta
// watermarks are not carried over, so the clone's first delta sync with
// any peer is a full one.
func (s *DenseRows) clone() DenseRows {
	return DenseRows{
		ids:         s.ids,
		rows:        append([]*Row(nil), s.rows...),
		upd:         append([]float64(nil), s.upd...),
		ver:         append([]uint64(nil), s.ver...),
		gossipMarks: gossipMarks{version: s.version},
	}
}

func (s *DenseRows) gossip() *gossipMarks { return &s.gossipMarks }

// floodVolume is the cost of transmitting every published row.
func (s *DenseRows) floodVolume() ExchangeStats {
	var st ExchangeStats
	for _, r := range s.rows {
		if r != nil {
			st.AddRow(r.Len())
		}
	}
	return st
}

// advertised counts and sizes the rows a delta digest carries: published
// rows mutated past the watermark (all of them with full), each costing a
// varint (owner, stamp) entry.
func (s *DenseRows) advertised(seen uint64, full bool) (rows, payloadBytes int) {
	for i, r := range s.rows {
		if r != nil && (full || s.ver[i] > seen) {
			rows++
			payloadBytes += DigestEntryLen(s.owner(i), r.Updated)
		}
	}
	return rows, payloadBytes
}

// mergeFrom takes every row of o that is strictly fresher than s's and
// that o advertised (mutated past oSeen, or all with oFull). The scan
// compares the inline stamps (a never-published slot reads -1, so it is
// never fresher) and moves a row as a pointer only when it takes it.
func (s *DenseRows) mergeFrom(other RowSet, oSeen uint64, oFull bool) ExchangeStats {
	o := other.(*DenseRows)
	if len(o.rows) != len(s.rows) {
		panic("core: merging dense row sets of different sizes")
	}
	var st ExchangeStats
	upd := s.upd[:len(o.upd)]
	for i, ou := range o.upd {
		if ou <= upd[i] || (!oFull && o.ver[i] <= oSeen) {
			continue
		}
		or := o.rows[i]
		s.Publish(i, or)
		st.AddRow(or.Len())
	}
	return st
}
