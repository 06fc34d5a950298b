package core

import (
	"fmt"
	"math"
	"slices"
)

// Unknown marks an MI entry for which no meeting-interval estimate exists.
// It behaves as "no edge" in the MEMD Dijkstra.
var Unknown = math.Inf(1)

// MeetingStore is the read and refresh contract of the MI link state
// (Section III-B.2) that routers expose to tests and tools; MeetingMatrix
// implements it.
//
// Contract: Interval returns Unknown when absent or uncovered and 0 on the
// diagonal; RowUpdated returns -1 for never-published rows; ForEachKnown
// visits exactly the finite off-diagonal entries of a row, in ascending
// peer order — the iteration every simulation-visible float reduction runs
// over, which is why ascending order is part of the contract rather than a
// convenience.
type MeetingStore interface {
	// Size returns the number of covered nodes.
	Size() int
	// Covers reports whether the store includes global node id.
	Covers(id int) bool
	// Interval returns the published average meeting interval between a
	// and b, or Unknown if absent or uncovered.
	Interval(a, b int) float64
	// RowUpdated returns the timestamp of the last update of id's row, or
	// -1 if it was never set.
	RowUpdated(id int) float64
	// KnownRows returns how many rows have ever been published.
	KnownRows() int
	// UpdateOwnRow refreshes the row owned by self from its contact
	// history at time t, restricted to covered peers.
	UpdateOwnRow(self int, t float64, h *History)
	// ForEachKnown visits owner's finite off-diagonal entries, ascending
	// by peer id.
	ForEachKnown(owner int, f func(peer int, interval float64))
}

// ExchangeStats tallies the link-state volume one merge (or one Sync, both
// directions) actually moved: rows shipped, the known (finite,
// off-diagonal) entries those rows carried, and the serialized bytes they
// stand for — including, in delta mode, the digest round-trip and row
// requests (DigestBytes breaks that overhead out of Bytes). A row carries
// only its known entries: unknown intervals never travel.
type ExchangeStats struct {
	Rows    int
	Entries int
	Bytes   int

	// DigestRows counts digest entries advertised; DigestBytes is the
	// digest + request overhead, already included in Bytes.
	DigestRows  int
	DigestBytes int
}

// Serialized cost model behind ExchangeStats.Bytes: a row header
// (owner id 4 B + freshness timestamp 8 B + entry count 4 B) plus
// (peer id 4 B + float64 value 8 B) per known entry. A delta digest costs
// a header (sender id 4 B + entry count 4 B + eviction generation 8 B)
// per direction plus, per advertised row, a varint owner id and a varint
// millisecond-quantized freshness stamp (2–12 B, ~5–8 B for realistic
// ids and sim times — versus 12 B under the old fixed (4 B id + 8 B
// float64 stamp) encoding; city-scale delta gossip is digest-bound, so
// the digest entry is the byte that matters). Each row pulled in
// response costs an owner-id request entry.
const (
	rowHeaderBytes = 16
	entryBytes     = 12

	digestHeaderBytes = 16
	requestEntryBytes = 4
)

// uvarintLen returns the encoded size of v as an unsigned varint (1–10 B)
// — binary.PutUvarint's length without the scratch buffer.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// digestStamp quantizes a row freshness timestamp to whole milliseconds
// for the digest wire model. Millisecond resolution is far below any
// tick length, so distinct stamps stay distinct; quantization only
// affects metering, never the merge (freshness comparisons use the full
// float64 timestamps).
func digestStamp(updated float64) uint64 {
	return uint64(math.Round(updated * 1000))
}

// DigestEntryLen is the wire size of one digest entry: owner id and
// millisecond freshness stamp, both varint-encoded. Summed per advertised
// row, so the total is iteration-order independent. Exported for
// routers that meter their own delta gossip (MaxProp's vector exchange).
func DigestEntryLen(owner int, updated float64) int {
	return uvarintLen(uint64(owner)) + uvarintLen(digestStamp(updated))
}

// AddRow accounts one copied row with n known entries.
func (e *ExchangeStats) AddRow(entries int) {
	e.Rows++
	e.Entries += entries
	e.Bytes += rowHeaderBytes + entries*entryBytes
}

// AddDigest accounts one digest transmission advertising rows whose
// varint-encoded (owner, stamp) entries total payloadBytes.
func (e *ExchangeStats) AddDigest(rows, payloadBytes int) {
	e.DigestRows += rows
	db := digestHeaderBytes + payloadBytes
	e.DigestBytes += db
	e.Bytes += db
}

// AddRequests accounts the row-request list answering a digest.
func (e *ExchangeStats) AddRequests(rows int) {
	db := rows * requestEntryBytes
	e.DigestBytes += db
	e.Bytes += db
}

// Add accumulates o into e.
func (e *ExchangeStats) Add(o ExchangeStats) {
	e.Rows += o.Rows
	e.Entries += o.Entries
	e.Bytes += o.Bytes
	e.DigestRows += o.DigestRows
	e.DigestBytes += o.DigestBytes
}

// Sync merges two stores into the element-wise fresher rows required by
// Algorithm 1 line 4: each ends up with the fresher row of every owner
// either held. Both must cover the same node set. It returns the combined
// exchange volume of both directions. With row caps the post-merge stores
// are no longer necessarily identical — each keeps its own freshest
// cap-full.
func Sync(a, b *MeetingMatrix) ExchangeStats {
	return SyncMode(a, b, -1, -1, ExchangeFresher)
}

// MeetingMatrix is the link-state MI matrix of Section III-B.2: row i
// holds node i's published average meeting intervals to the other covered
// nodes. Each row is owned by the node it describes and carries the
// timestamp of its last update, so that two encountering nodes can
// exchange only the fresher rows (footnote 1 of the paper).
//
// The same type serves the full network (EER) and a single community
// (CR's intra-community MI) — the latter covers a ScopeSet.
//
// Storage grows with observed link state only: the rows live in a RowSet
// (the rows the node published or learned, sorted by owner), each an
// immutable, shared Row of its owner's finite intervals. Every entry
// outside a row is Unknown and the diagonal is 0.
type MeetingMatrix struct {
	size  int
	scope ScopeSet // nil = all of 0..size-1
	rows  *RowSet
}

// ScopeSet is an immutable set of node ids, ascending. Stores only read
// it, so one set can back every store with the same scope — CR shares one
// per community instead of building a member set per node.
type ScopeSet []int32

// NewScopeSet returns the set of the given ids, rejecting duplicates.
func NewScopeSet(ids []int) ScopeSet {
	sc := make(ScopeSet, len(ids))
	for i, id := range ids {
		sc[i] = int32(id)
	}
	slices.Sort(sc)
	for i := 1; i < len(sc); i++ {
		if sc[i] == sc[i-1] {
			panic(fmt.Sprintf("core: duplicate id %d in meeting matrix", sc[i]))
		}
	}
	return sc
}

// Has reports whether id is in the set.
func (sc ScopeSet) Has(id int) bool {
	_, ok := slices.BinarySearch(sc, int32(id))
	return ok
}

// NewFullMeetingMatrix returns an empty matrix over nodes 0..n-1.
func NewFullMeetingMatrix(n int) *MeetingMatrix {
	return &MeetingMatrix{size: n, rows: NewRowSet()}
}

// NewMeetingMatrix returns an empty matrix covering exactly the given
// global node ids, which must contain no duplicates.
func NewMeetingMatrix(ids []int) *MeetingMatrix {
	return NewScopedMeetingMatrix(NewScopeSet(ids))
}

// NewScopedMeetingMatrix returns an empty matrix covering exactly the ids
// in scope, which it shares.
func NewScopedMeetingMatrix(scope ScopeSet) *MeetingMatrix {
	return &MeetingMatrix{size: len(scope), scope: scope, rows: NewRowSet()}
}

// SetMaxRows bounds the store to maxRows rows (0 = unbounded) with
// stale-row eviction, never evicting self's own row — the long-horizon
// memory cap of Scenario.MaxSparseRows. Capping changes which link state a
// node retains, so it is off by default; summaries remain deterministic
// for any fixed cap.
func (m *MeetingMatrix) SetMaxRows(maxRows, self int) {
	m.rows.SetCap(maxRows, self)
}

// Size returns the number of covered nodes.
func (m *MeetingMatrix) Size() int { return m.size }

// span returns one more than the largest covered id: the vertex range a
// Dijkstra over the store needs.
func (m *MeetingMatrix) span() int {
	if m.scope == nil {
		return m.size
	}
	if len(m.scope) == 0 {
		return 0
	}
	return int(m.scope[len(m.scope)-1]) + 1
}

// Covers reports whether the matrix includes global node id.
func (m *MeetingMatrix) Covers(id int) bool {
	if m.scope == nil {
		return id >= 0 && id < m.size
	}
	return m.scope.Has(id)
}

// Interval returns the published average meeting interval between global
// nodes a and b, or Unknown if absent or uncovered.
func (m *MeetingMatrix) Interval(a, b int) float64 {
	if !m.Covers(a) || !m.Covers(b) {
		return Unknown
	}
	if a == b {
		return 0
	}
	if v, ok := m.rows.Row(a).Get(b); ok {
		return v
	}
	return Unknown
}

// RowUpdated returns the timestamp of the last update of global node id's
// row, or -1 if it was never set (or id is uncovered).
func (m *MeetingMatrix) RowUpdated(id int) float64 {
	if r := m.rows.Row(id); r != nil {
		return r.Updated
	}
	return -1
}

// KnownRows returns how many rows the store holds: every stored row was
// published by its owner.
func (m *MeetingMatrix) KnownRows() int { return m.rows.Len() }

// UpdateOwnRow publishes a new row for global node self from its contact
// history at time t: the finite mean interval to every met, covered peer.
// One pass fills the history's scratch; the row gets exactly sized copies.
func (m *MeetingMatrix) UpdateOwnRow(self int, t float64, h *History) {
	if !m.Covers(self) {
		panic(fmt.Sprintf("core: node %d not covered by meeting matrix", self))
	}
	peers, vals := h.rowPeers[:0], h.rowVals[:0]
	for i, peer := range h.metIn(m.scope) {
		if mean, got := h.recs[i].mean(); got && !math.IsInf(mean, 1) {
			peers = append(peers, peer)
			vals = append(vals, mean)
		}
	}
	h.rowPeers, h.rowVals = peers, vals
	m.rows.Publish(self, NewRow(t, slices.Clone(peers), slices.Clone(vals)))
}

// ForEachKnown implements MeetingStore: the finite off-diagonal entries of
// owner's row, ascending by peer id.
func (m *MeetingMatrix) ForEachKnown(owner int, f func(peer int, interval float64)) {
	peers, vals := m.rows.Row(owner).Entries()
	for k, p := range peers {
		f(int(p), vals[k])
	}
}

// Merge takes into m every row of other that is strictly fresher,
// implementing one direction of the exchange of Algorithm 1 line 4. It
// returns the exchange volume (rows taken, known entries they carried,
// serialized bytes). Both matrices must cover the same id set.
func (m *MeetingMatrix) Merge(other *MeetingMatrix) ExchangeStats {
	sameScope(m, other)
	return m.rows.MergeFresher(other.rows)
}

// sameScope panics unless a and b cover the same id set.
func sameScope(a, b *MeetingMatrix) {
	same := a.size == b.size && (a.scope == nil) == (b.scope == nil)
	if same && len(a.scope) > 0 && &a.scope[0] != &b.scope[0] {
		same = slices.Equal(a.scope, b.scope)
	}
	if !same {
		panic("core: merging meeting matrices over different node sets")
	}
}

// Clone returns a copy of the matrix. Rows are immutable, so the copy
// shares them (and the scope) rather than their entries.
func (m *MeetingMatrix) Clone() *MeetingMatrix {
	return &MeetingMatrix{size: m.size, scope: m.scope, rows: m.rows.clone()}
}
