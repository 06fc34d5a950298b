package core

import (
	"fmt"
	"math"
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
	switch x := a.(type) {
	case *MeetingMatrix:
		return SyncPair(x, b.(*MeetingMatrix))
	case *SparseMeetingStore:
		return SyncSparse(x, b.(*SparseMeetingStore))
	default:
		panic(fmt.Sprintf("core: Sync over unknown MeetingStore implementation %T", a))
	}
}

// MeetingMatrix is the link-state MI matrix of Section III-B.2: for a node
// set {ids}, entry (i, j) holds node ids[i]'s published average meeting
// interval to ids[j]. Each row is owned by the node it describes and
// carries the timestamp of its last update, so that two encountering nodes
// can exchange only the fresher rows (footnote 1 of the paper).
//
// The same type serves the full network (EER) and a single community
// (CR's intra-community MI) — the latter simply covers fewer ids.
//
// Each row also carries a neighbour index (RowIndex): the local columns of
// its known (finite, off-diagonal) entries. Figure-scale MI rows are
// mostly Unknown — a few known entries out of hundreds — so the MEMD
// Dijkstra, the exchange metering and row copies walk the index instead of
// the full row. Invariant: every off-diagonal entry outside the index is
// Unknown and the diagonal is 0.
type MeetingMatrix struct {
	ids     []int       // global node ids covered, ascending
	idx     map[int]int // global id -> local index; nil when ids are 0..n-1
	rows    [][]float64 // rows[i][j] = I(ids[i], ids[j]); Unknown if none
	nbrs    RowIndex    // row i: the j != i with rows[i][j] finite
	updated []float64   // last update time per row; -1 = never

	// Delta-gossip bookkeeping (see exchange.go): version counts local
	// row mutations (own refreshes and merge copies), rowVer stamps each
	// row with the version of its last mutation, and seen records the
	// local version as of the end of the last delta sync with each peer —
	// a row is advertised to a peer iff it mutated since they last met.
	version uint64
	rowVer  []uint64
	seen    map[int]uint64
}

// NewMeetingMatrix returns an all-Unknown matrix over the given global node
// ids. The id list is copied; it must contain no duplicates. A matrix over
// exactly 0..n-1 (EER's) maps ids to local indices by identity and keeps
// no id map: at figure scale the per-node maps cost as much memory as the
// neighbour indexes.
func NewMeetingMatrix(ids []int) *MeetingMatrix {
	m := &MeetingMatrix{
		ids:     append([]int(nil), ids...),
		rows:    make([][]float64, len(ids)),
		nbrs:    NewRowIndex(len(ids)),
		updated: make([]float64, len(ids)),
		rowVer:  make([]uint64, len(ids)),
	}
	for i, id := range m.ids {
		if id != i {
			m.idx = make(map[int]int, len(ids))
			break
		}
	}
	flat := make([]float64, len(ids)*len(ids))
	for i := range flat {
		flat[i] = Unknown
	}
	for i, id := range m.ids {
		if m.idx != nil {
			if _, dup := m.idx[id]; dup {
				panic(fmt.Sprintf("core: duplicate id %d in meeting matrix", id))
			}
			m.idx[id] = i
		}
		m.rows[i], flat = flat[:len(ids)], flat[len(ids):]
		m.rows[i][i] = 0
		m.updated[i] = -1
	}
	return m
}

// NewFullMeetingMatrix returns a matrix over nodes 0..n-1.
func NewFullMeetingMatrix(n int) *MeetingMatrix {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return NewMeetingMatrix(ids)
}

// Size returns the number of covered nodes.
func (m *MeetingMatrix) Size() int { return len(m.ids) }

// IDs returns the covered global node ids (shared; do not mutate).
func (m *MeetingMatrix) IDs() []int { return m.ids }

// Index returns the local index of global node id. ok is false when the
// matrix does not cover id.
func (m *MeetingMatrix) Index(id int) (int, bool) {
	if m.idx == nil {
		return id, id >= 0 && id < len(m.ids)
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
	return m.rows[i][j]
}

// RowUpdated returns the timestamp of the last update of global node id's
// row, or -1 if it was never set (or id is uncovered).
func (m *MeetingMatrix) RowUpdated(id int) float64 {
	i, ok := m.Index(id)
	if !ok {
		return -1
	}
	return m.updated[i]
}

// UpdateOwnRow refreshes the row owned by global node self from its contact
// history at time t. Only peers covered by the matrix are read, so a
// community-scoped matrix stores only intra-community averages.
func (m *MeetingMatrix) UpdateOwnRow(self int, t float64, h *History) {
	i, ok := m.Index(self)
	if !ok {
		panic(fmt.Sprintf("core: node %d not covered by meeting matrix", self))
	}
	row := m.rows[i]
	m.nbrs.ClearRow(i)
	for j, id := range m.ids {
		if id == self {
			row[j] = 0
			continue
		}
		if mean, got := h.MeanInterval(id); got {
			row[j] = mean
			if !math.IsInf(mean, 1) {
				m.nbrs.Set(i, j)
			}
		} else {
			row[j] = Unknown
		}
	}
	m.updated[i] = t
	m.version++
	m.rowVer[i] = m.version
}

// ForEachKnown implements MeetingStore: the finite off-diagonal entries of
// owner's row, ascending by peer id (the id list is ascending by
// construction).
func (m *MeetingMatrix) ForEachKnown(owner int, f func(peer int, interval float64)) {
	i, ok := m.Index(owner)
	if !ok {
		return
	}
	row := m.rows[i]
	for j := range m.nbrs.Cols(i) {
		f(m.ids[j], row[j])
	}
}

// Merge copies into m every row of other that is strictly fresher,
// implementing the exchange of Algorithm 1 line 4. It returns the exchange
// volume (rows copied, known entries they carried, serialized bytes). Both
// matrices must cover the same id set.
func (m *MeetingMatrix) Merge(other *MeetingMatrix) ExchangeStats {
	if len(m.ids) != len(other.ids) {
		panic("core: merging meeting matrices over different node sets")
	}
	var st ExchangeStats
	for i := range m.ids {
		if m.ids[i] != other.ids[i] {
			panic("core: merging meeting matrices over different node sets")
		}
		if other.updated[i] > m.updated[i] {
			m.copyRow(other, i)
			st.AddRow(m.nbrs.Len(i))
		}
	}
	return st
}

// copyRow overwrites row i and its freshness with other's, stamping a local
// mutation. The index length is the row's known-entry count — exactly what
// ForEachKnown visits and a sparse row stores, hence the exchange metering.
func (m *MeetingMatrix) copyRow(other *MeetingMatrix, i int) {
	m.setRow(i, other)
	m.updated[i] = other.updated[i]
	m.version++
	m.rowVer[i] = m.version
}

// setRow replaces row i's known entries and index with other's. By the
// Unknown-outside-the-index invariant only the old and the new indexed
// entries need writing, not the whole row.
func (m *MeetingMatrix) setRow(i int, other *MeetingMatrix) {
	row, src := m.rows[i], other.rows[i]
	for j := range m.nbrs.Cols(i) {
		row[j] = Unknown
	}
	for j := range other.nbrs.Cols(i) {
		row[j] = src[j]
	}
	m.nbrs.CopyRow(i, other.nbrs)
}

// SyncPair merges a and b into the identical MI required by Algorithm 1
// line 4: each ends up with the element-wise fresher rows of the two. It
// returns the combined exchange volume of both directions.
func SyncPair(a, b *MeetingMatrix) ExchangeStats {
	st := a.Merge(b)
	st.Add(b.Merge(a))
	return st
}

// KnownRows returns how many rows have ever been updated.
func (m *MeetingMatrix) KnownRows() int {
	n := 0
	for _, u := range m.updated {
		if u >= 0 {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the matrix.
func (m *MeetingMatrix) Clone() *MeetingMatrix {
	c := NewMeetingMatrix(m.ids)
	for i := range m.rows {
		c.setRow(i, m)
	}
	copy(c.updated, m.updated)
	copy(c.rowVer, m.rowVer)
	c.version = m.version
	return c
}
