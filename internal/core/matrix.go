package core

import (
	"fmt"
	"math"
	"slices"
)

// Unknown marks an MI entry for which no meeting-interval estimate exists.
// It behaves as "no edge" in the MEMD Dijkstra.
var Unknown = math.Inf(1)

// MeetingStore is the storage contract of the MI link state (Section
// III-B.2): what every estimator consumer — the MEMD Dijkstra, the
// freshness exchange, the routers — needs from meeting-interval storage,
// independent of whether rows are dense arrays or sparse observed-peer
// lists. The dense MeetingMatrix serves figure-scale runs; the
// SparseMeetingStore serves city scale. Implementations live in this
// package so that Sync can pair them.
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
// requests (DigestBytes breaks that overhead out of Bytes). Dense and
// sparse stores report identical stats for identical exchanges — a dense
// row's unknown entries never travel, mirroring the sparse row that simply
// omits them — so the counters are storage-mode independent like every
// other summary metric.
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
// row, so the total is iteration-order independent — dense and sparse
// stores meter identical digests for identical exchanges. Exported for
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

// Sync merges two stores of the same implementation into the element-wise
// fresher rows required by Algorithm 1 line 4 — the interface-level
// SyncPair. Mixing implementations panics: a world runs one storage mode.
// It returns the combined exchange volume of both directions.
func Sync(a, b MeetingStore) ExchangeStats {
	return SyncMode(a, b, -1, -1, ExchangeFresher)
}

// MeetingMatrix is the link-state MI matrix of Section III-B.2: for a node
// set {ids}, row i holds node ids[i]'s published average meeting intervals
// to the other covered nodes. Each row is owned by the node it describes
// and carries the timestamp of its last update, so that two encountering
// nodes can exchange only the fresher rows (footnote 1 of the paper).
//
// The same type serves the full network (EER) and a single community
// (CR's intra-community MI) — the latter simply covers fewer ids.
//
// The matrix is dense in its slots, not in its entries: one shared,
// immutable Row pointer per covered node (see Row), whose entries are the
// row's known (finite, off-diagonal) intervals keyed by local index.
// Every entry outside a row is Unknown and the diagonal is 0. Figure-scale
// rows hold a few known entries out of hundreds, so the MEMD Dijkstra and
// the exchange metering walk those alone, and a merge moves pointers.
type MeetingMatrix struct {
	idx  map[int]int // global id -> local index; nil when ids are 0..n-1
	rows DenseRows   // rows.ids: covered global ids, ascending; nil when 0..n-1
}

// NewMeetingMatrix returns an all-Unknown matrix over the given global node
// ids, which must contain no duplicates. The matrix keeps a sorted copy, so
// local indices ascend with global ids. A matrix over exactly 0..n-1
// (EER's) maps ids to local indices by identity and keeps neither the id
// list nor an id map.
func NewMeetingMatrix(ids []int) *MeetingMatrix {
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	m := &MeetingMatrix{rows: *NewDenseRows(len(ids))}
	for i, id := range sorted {
		if i > 0 && id == sorted[i-1] {
			panic(fmt.Sprintf("core: duplicate id %d in meeting matrix", id))
		}
		if id != i && m.idx == nil {
			m.idx = make(map[int]int, len(ids))
			m.rows.ids = sorted
		}
	}
	if m.idx != nil {
		for i, id := range sorted {
			m.idx[id] = i
		}
	}
	return m
}

// NewFullMeetingMatrix returns a matrix over nodes 0..n-1.
func NewFullMeetingMatrix(n int) *MeetingMatrix {
	return &MeetingMatrix{rows: *NewDenseRows(n)}
}

// Size returns the number of covered nodes.
func (m *MeetingMatrix) Size() int { return len(m.rows.rows) }

// Index returns the local index of global node id. ok is false when the
// matrix does not cover id.
func (m *MeetingMatrix) Index(id int) (int, bool) {
	if m.idx == nil {
		return id, id >= 0 && id < len(m.rows.rows)
	}
	i, ok := m.idx[id]
	return i, ok
}

// Covers reports whether the matrix includes global node id.
func (m *MeetingMatrix) Covers(id int) bool {
	_, ok := m.Index(id)
	return ok
}

// Interval returns the published average meeting interval between global
// nodes a and b, or Unknown if absent or uncovered.
func (m *MeetingMatrix) Interval(a, b int) float64 {
	i, ok1 := m.Index(a)
	j, ok2 := m.Index(b)
	if !ok1 || !ok2 {
		return Unknown
	}
	if i == j {
		return 0
	}
	if v, ok := m.rows.rows[i].Get(j); ok {
		return v
	}
	return Unknown
}

// RowUpdated returns the timestamp of the last update of global node id's
// row, or -1 if it was never set (or id is uncovered).
func (m *MeetingMatrix) RowUpdated(id int) float64 {
	i, ok := m.Index(id)
	if !ok {
		return -1
	}
	return updatedOf(m.rows.rows[i])
}

// UpdateOwnRow publishes a new row for global node self from its contact
// history at time t. Only peers covered by the matrix are read, so a
// community-scoped matrix stores only intra-community averages.
func (m *MeetingMatrix) UpdateOwnRow(self int, t float64, h *History) {
	i, ok := m.Index(self)
	if !ok {
		panic(fmt.Sprintf("core: node %d not covered by meeting matrix", self))
	}
	m.rows.Publish(i, ownMIRow(t, h, m.Index))
}

// ownMIRow builds a node's MI row at time t from its contact history: the
// finite mean interval to every met peer that col maps into the store,
// keyed by col's index, which must ascend with the global id. One pass
// fills the history's scratch; the row gets exactly sized copies.
func ownMIRow(t float64, h *History, col func(peer int) (int, bool)) *Row {
	peers, vals := h.rowPeers[:0], h.rowVals[:0]
	h.forEachMet(func(peer int) {
		j, ok := col(peer)
		if !ok {
			return
		}
		if mean, got := h.MeanInterval(peer); got && !math.IsInf(mean, 1) {
			peers = append(peers, int32(j))
			vals = append(vals, mean)
		}
	})
	h.rowPeers, h.rowVals = peers, vals
	return NewRow(t, slices.Clone(peers), slices.Clone(vals))
}

// ForEachKnown implements MeetingStore: the finite off-diagonal entries of
// owner's row, ascending by peer id (local indices ascend with ids).
func (m *MeetingMatrix) ForEachKnown(owner int, f func(peer int, interval float64)) {
	i, ok := m.Index(owner)
	if !ok {
		return
	}
	peers, vals := m.rows.rows[i].Entries()
	for k, j := range peers {
		f(m.rows.owner(int(j)), vals[k])
	}
}

// Merge takes into m every row of other that is strictly fresher,
// implementing the exchange of Algorithm 1 line 4. It returns the exchange
// volume (rows taken, known entries they carried, serialized bytes). Both
// matrices must cover the same id set.
func (m *MeetingMatrix) Merge(other *MeetingMatrix) ExchangeStats {
	sameIDs(m, other)
	return m.rows.mergeFrom(&other.rows, 0, true)
}

// sameIDs panics unless a and b cover the same id set.
func sameIDs(a, b *MeetingMatrix) {
	if !slices.Equal(a.rows.ids, b.rows.ids) || len(a.rows.rows) != len(b.rows.rows) {
		panic("core: merging meeting matrices over different node sets")
	}
}

// SyncPair merges a and b into the identical MI required by Algorithm 1
// line 4: each ends up with the element-wise fresher rows of the two. It
// returns the combined exchange volume of both directions.
func SyncPair(a, b *MeetingMatrix) ExchangeStats {
	return SyncMode(a, b, -1, -1, ExchangeFresher)
}

// KnownRows returns how many rows have ever been updated.
func (m *MeetingMatrix) KnownRows() int { return m.rows.knownRows() }

// Clone returns a copy of the matrix. Rows are immutable, so the copy
// shares them (and the id list) rather than their entries.
func (m *MeetingMatrix) Clone() *MeetingMatrix {
	return &MeetingMatrix{idx: m.idx, rows: m.rows.clone()}
}
