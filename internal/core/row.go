package core

import (
	"fmt"
	"slices"
	"sort"
)

// Row is one node's published estimator row: its freshness timestamp plus
// its entries, ascending by peer — an MI row's finite off-diagonal mean
// intervals, a MaxProp row's positive meeting probabilities. Peers are
// global node ids.
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
// entries in peer order, which is what keeps results independent of how
// rows travelled.
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

// RowSet is a store of published rows keyed by owner id with the per-row
// freshness merge of Algorithm 1 line 4. It holds only the rows it ever
// published or learned, in lists sorted by owner, so its size grows with
// the observed link state and never with the network. The MI stores build
// on it, and MaxProp floods its probability vectors through it.
//
// Each row's freshness sits inline in upd, so the merge walk compares
// contiguous lists and dereferences only the rows it takes; each slot
// also keeps the store-local version of its last mutation, the stamp delta
// digests compare. The owner list is immutable once built: sets that
// found theirs equal in a merge share one, which turns the next merge's
// owner comparison into a pointer test, and every structural change
// builds a new list.
//
// An optional cap (SetCap) bounds the set for long-horizon runs: when a
// merge would grow the set past the cap, the rows with the oldest
// freshness timestamps — the stalest link state, least likely to still
// describe the network — are evicted first, except the pinned own row,
// which always survives. Evicted knowledge can always be re-learned from a
// fresher gossip; capping trades a little routing accuracy for a hard
// memory bound.
type RowSet struct {
	owners  []int32   // ascending; shared, never written in place
	upd     []float64 // upd[i] = slots[i].row.Updated
	slots   []rowSlot // slots[i] belongs to owners[i]
	maxRows int       // 0 = unbounded
	pin     int       // owner id never evicted; -1 = none
	gossipMarks
}

// rowSlot is one owner's row and the version of its last mutation.
type rowSlot struct {
	row *Row
	ver uint64
}

// gossipMarks is a row set's delta-gossip bookkeeping (see exchange.go):
// version counts local row mutations, evictGen counts cap evictions, seen
// records the local version as of the end of the last delta sync with each
// peer, and evictSeen the local eviction generation as of the start of that
// sync — a peer whose counterpart evicted since they last met gets a full
// digest, so the digest still advertises every row the merge ships under
// row caps. Stores that never evict keep evictGen at 0.
type gossipMarks struct {
	version   uint64
	evictGen  uint64
	seen      map[int]uint64
	evictSeen map[int]uint64
}

// NewRowSet returns an empty, unbounded row set.
func NewRowSet() *RowSet { return &RowSet{pin: -1} }

// SetCap bounds the set to maxRows rows (0 = unbounded), never evicting
// the row owned by pin (-1 = none). An over-full set is trimmed
// immediately.
func (s *RowSet) SetCap(maxRows, pin int) {
	s.maxRows = maxRows
	s.pin = pin
	s.evictOverCap()
}

// Len returns the number of stored rows (published or learned).
func (s *RowSet) Len() int { return len(s.owners) }

// find returns the position of owner, or where it would be inserted.
func (s *RowSet) find(owner int) (int, bool) {
	return slices.BinarySearch(s.owners, int32(owner))
}

// Row returns owner's row, or nil if none was ever published or learned.
func (s *RowSet) Row(owner int) *Row {
	if i, ok := s.find(owner); ok {
		return s.slots[i].row
	}
	return nil
}

// Publish stores r as owner's row, stamping a local mutation for delta
// digests. r must be fresh from NewRow or learned from another set.
// Publishing never evicts: a new own row may sit one over the cap until
// the next merge trims the set.
func (s *RowSet) Publish(owner int, r *Row) {
	s.version++
	sl := rowSlot{row: r, ver: s.version}
	i, ok := s.find(owner)
	if ok {
		s.upd[i], s.slots[i] = r.Updated, sl
		return
	}
	s.owners = slices.Insert(slices.Clip(s.owners), i, int32(owner))
	s.upd = slices.Insert(s.upd, i, r.Updated)
	s.slots = slices.Insert(s.slots, i, sl)
}

// Version counts the set's local row mutations.
func (s *RowSet) Version() uint64 { return s.version }

// evictOverCap removes stalest rows until the cap is respected: the victim
// is the row with the smallest (Updated, owner id), never the pinned one.
// The full scan per eviction is fine — evictions are rare (one per
// over-cap merge insertion) and rows are at most maxRows+merge size.
func (s *RowSet) evictOverCap() {
	if s.maxRows <= 0 {
		return
	}
	for len(s.owners) > s.maxRows {
		victim := -1
		for i, o := range s.owners {
			if int(o) != s.pin && (victim < 0 || s.upd[i] < s.upd[victim]) {
				victim = i // ascending owners: the first minimum has the lowest id
			}
		}
		if victim < 0 {
			return // only the pinned row remains
		}
		s.owners = slices.Delete(slices.Clone(s.owners), victim, victim+1)
		s.upd = slices.Delete(s.upd, victim, victim+1)
		s.slots = slices.Delete(s.slots, victim, victim+1)
		s.evictGen++
	}
}

// clone returns a set holding the same row pointers, stamps and cap;
// delta watermarks are not carried over, so the clone's first delta sync
// with any peer is a full one.
func (s *RowSet) clone() *RowSet {
	return &RowSet{
		owners: s.owners, upd: slices.Clone(s.upd), slots: slices.Clone(s.slots),
		maxRows: s.maxRows, pin: s.pin,
		gossipMarks: gossipMarks{version: s.version, evictGen: s.evictGen},
	}
}

// MergeFresher copies into s every row of o that is strictly fresher,
// returning the exchange volume (rows copied, entries carried, serialized
// bytes). A configured cap (SetCap) is enforced after the merge, stalest
// rows first. Every gossip mode runs this one merge; delta digests only
// meter it (exchange.go).
//
// Both owner lists ascend. Over their common prefix — all of both lists
// in the steady state, once two nodes have heard of the same owners —
// positions correspond, so one aligned pass compares the freshness lists.
// Past it, a forward walk replaces the fresher rows of shared owners in
// place and counts the owners only o holds, and a backward walk builds
// the grown owner list, moving each of s's entries at most once.
func (s *RowSet) MergeFresher(o *RowSet) ExchangeStats {
	var st ExchangeStats
	prefix := min(len(s.owners), len(o.owners))
	if !sameList(s.owners, o.owners) {
		j := 0
		for j < prefix && s.owners[j] == o.owners[j] {
			j++
		}
		if j == len(s.owners) && j == len(o.owners) {
			s.owners = o.owners // equal lists: share one from now on
		}
		prefix = j
	}
	su := s.upd[:prefix]
	for j, ou := range o.upd[:prefix] {
		if ou > su[j] {
			st.AddRow(s.take(j, o, j))
		}
	}
	j := prefix
	add, i := 0, j
	for ; j < len(o.owners); j++ {
		ow := o.owners[j]
		for i < len(s.owners) && s.owners[i] < ow {
			i++
		}
		if i == len(s.owners) || s.owners[i] != ow {
			add++
		} else if o.upd[j] > s.upd[i] {
			st.AddRow(s.take(i, o, j))
		}
	}
	if add > 0 {
		n := len(s.owners)
		owners := append(make([]int32, 0, n+add), s.owners...)[:n+add]
		s.upd = slices.Grow(s.upd, add)[:n+add]
		s.slots = slices.Grow(s.slots, add)[:n+add]
		i, k := n-1, n+add-1
		for j := len(o.owners) - 1; k > i; j-- {
			ow := o.owners[j]
			for i >= 0 && owners[i] > ow {
				owners[k], s.upd[k], s.slots[k] = owners[i], s.upd[i], s.slots[i]
				i, k = i-1, k-1
			}
			if i >= 0 && owners[i] == ow {
				continue // shared owner: settled by the forward walk
			}
			owners[k] = ow
			st.AddRow(s.take(k, o, j))
			k--
		}
		s.owners = owners
	}
	s.evictOverCap()
	return st
}

// sameList reports whether a and b are one shared list.
func sameList(a, b []int32) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// take stores o's row at position j into s's position i as a local
// mutation and returns the row's entry count for metering.
func (s *RowSet) take(i int, o *RowSet, j int) int {
	r := o.slots[j].row
	s.version++
	s.upd[i], s.slots[i] = o.upd[j], rowSlot{row: r, ver: s.version}
	return r.Len()
}

// floodVolume is the cost of transmitting every stored row.
func (s *RowSet) floodVolume() ExchangeStats {
	var st ExchangeStats
	for i := range s.slots {
		st.AddRow(s.slots[i].row.Len())
	}
	return st
}

// advertised counts and sizes the rows a delta digest carries: rows
// mutated past the watermark, or all rows for a full digest, each costing
// a varint (owner, stamp) entry.
func (s *RowSet) advertised(seen uint64, full bool) (rows, payloadBytes int) {
	for i, o := range s.owners {
		if full || s.slots[i].ver > seen {
			rows++
			payloadBytes += DigestEntryLen(int(o), s.upd[i])
		}
	}
	return rows, payloadBytes
}
