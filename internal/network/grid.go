package network

import (
	"math"

	"repro/internal/geo"
)

// This file is the engine's broad phase: a persistent, incrementally
// maintained spatial grid plus a conservative pair re-check scheduler.
//
//  1. Nodes cross cell boundaries rarely, so bucket membership is nearly
//     static. The grid keeps every node bucketed across ticks and
//     re-buckets only on cell change. How rarely depends on the cell: a
//     bus at 13.9 m/s crosses a 10 m cell every ~3 ticks at the paper's
//     0.25 s tick, and not at all while dwelling. World.cellSize
//     therefore sizes the cell to the fleet once, at Start: the largest
//     of R, 2R, 4R and 8R (R the radio range) at which the initial
//     positions' 3x3 neighbourhoods hold at most one candidate pair per
//     node. It keeps c = R without a speed bound (tracked pairs are then
//     re-checked every tick) and past pairSetBitsetLimit nodes (the
//     map-backed tracked set grows with the tracked band 3c). The cell
//     is derived, never configured.
//
//  2. A pair at distance D with per-node speed bound vmax cannot come
//     into radio range R before (D-R)/(2*vmax) seconds elapse, so a pair
//     seen far apart provably needs no distance test for many ticks.
//     Checks are parked on a timing wheel and each check reschedules the
//     next one as far out as the bound allows (recheckDelay, which reads
//     R, not the cell).
//
// Correctness depends neither on the speed bound nor on the cell size, as
// long as the cell edge c is at least R: the exact Dist2 <= R² test at
// each tick decides every contact, and the grid only filters. A pair
// whose cells are not adjacent (Chebyshev distance > 1) is strictly
// farther apart than c >= R, and becoming adjacent requires one of the
// two nodes to change cell, which triggers a neighbourhood rescan that
// (re-)tracks the pair the very tick it happens. A tracked pair is
// dropped only beyond 3c, outside the 2*sqrt(2)*c diameter of two
// adjacent cells, so untracked pairs are never adjacent. The speed bound
// only stretches re-check intervals for pairs already known to the
// tracker; with MaxSpeed == 0 (unknown bound, e.g. scripted or
// trace-replay movers) tracked pairs are simply re-checked every tick.
//
// Buckets live in open-addressed, linearly probed tables that hold only
// occupied cells: a bucket is created when the first node enters its cell
// and deleted (backward-shift deletion, so no tombstones) when the last
// one leaves, its node array going to a spare list for the next creation.
// A table therefore sizes to at most n occupied cells, not to every cell
// ever visited, and stays small enough for the nine lookups of a
// neighbourhood scan to hit the CPU cache. The load is kept at or below
// 1/4 because most of those lookups miss, and a miss probes until the
// next free slot. Slot positions are unobservable: scans visit the nine
// cells at fixed offsets and each bucket in ascending id order.
//
// Sub-grids (sharded worlds): the grid is split into `regions` independent
// tables over a static spatial partition — vertical stripes of
// gridStripeCells cells, striped round-robin across regions. A cell's
// table depends only on its x coordinate, so region membership is a pure
// function of position and never migrates. A re-bucket mutates only the
// old and the new cell's own tables, so the sharded tick re-buckets movers
// that stay inside one region on one goroutine per region; only region
// crossings fall back to the merge on the caller. With regions == 1 (one
// worker) there is a single table. See shard.go for the phase structure and
// DESIGN.md for the safety argument.

// gridSlot is one open-addressed bucket: the nodes currently inside one
// grid cell, kept in ascending id order so scans are deterministic. A slot
// is occupied iff its node list is non-empty.
type gridSlot struct {
	key   uint64
	nodes []int32
}

// gridTable is one region's open-addressed hash table of occupied cells.
type gridTable struct {
	slots []gridSlot
	mask  uint32
	shift uint32    // 64 - log2(len(slots)): Fibonacci hash shift
	used  int       // occupied slot count
	spare [][]int32 // emptied bucket arrays (length 0), reused on creation
}

// cellGrid is the persistent spatial hash over node positions. Its cell
// edge is at least the radio range (World.cellSize picks it), so in-range
// pairs always sit in the same or adjacent cells. Buckets live in
// per-region tables (one region for a one-worker world).
type cellGrid struct {
	cell    float64
	regions int   // region (sub-grid table) count; 1 = unpartitioned
	stripe  int32 // stripe width of the static partition, in cells
	tables  []gridTable

	cellOf    []uint64 // per node: packed cell key of the current bucket
	placed    []bool   // per node: bucketed (false until the first update)
	prevCell  []uint64 // per node: cell key before the last cell change
	prevValid []bool   // per node: prevCell holds a real cell (not first insertion)
	moveEpoch []uint64 // per node: epoch of the last cell change
	epoch     uint64   // advanced once per tick by the world
}

// gridStripeCells is the stripe width of the static spatial partition in
// cells. Any width >= 1 is correct; wide stripes keep most moves inside
// one region. Tests shrink it to force boundary traffic.
const gridStripeCells = 32

const gridInitialSlots = 256

// cellSize derives the grid cell edge once, at Start, by the rule in the
// file comment: a larger cell re-buckets movers less often but tracks
// more pairs. Past pairSetBitsetLimit the tracked set is a map whose
// memory follows the tracked band 3c (26 m cells cost CityScale 16–24%
// more peak memory), so the radio range stays the cell there.
func (w *World) cellSize() float64 {
	r, n := w.cfg.Range, len(w.nodes)
	if w.cfg.MaxSpeed <= 0 || n > pairSetBitsetLimit {
		return r
	}
	pos := make([]geo.Point, n)
	for i, nd := range w.nodes {
		pos[i] = nd.pos
	}
	for c := 8 * r; c > r; c /= 2 {
		if candidatePairs(pos, c, n) <= n {
			return c
		}
	}
	return r
}

// candidatePairs counts the node pairs whose cells of edge cell are the
// same or adjacent, the pairs a grid of that cell would track, stopping
// early once the count passes limit.
func candidatePairs(pos []geo.Point, cell float64, limit int) int {
	g := cellGrid{cell: cell}
	count := make(map[uint64]int, len(pos))
	for _, p := range pos {
		count[cellKeyOf(g.cellAt(p))]++
	}
	pairs := 0
	for key, k := range count {
		cx, cy := int32(uint32(key>>32)), int32(uint32(key))
		pairs += k * (k - 1) / 2
		// Each adjacent cell pair once: the four "forward" neighbours.
		for _, d := range [4][2]int32{{1, -1}, {1, 0}, {1, 1}, {0, 1}} {
			pairs += k * count[cellKeyOf(cx+d[0], cy+d[1])]
		}
		if pairs > limit {
			break
		}
	}
	return pairs
}

func (g *cellGrid) init(cell float64, regions int) {
	g.cell = cell
	if regions < 1 {
		regions = 1
	}
	g.regions = regions
	g.stripe = gridStripeCells
	g.tables = make([]gridTable, regions)
	for r := range g.tables {
		g.tables[r].resize(gridInitialSlots)
	}
}

// ensure sizes the per-node bookkeeping for n nodes.
func (g *cellGrid) ensure(n int) {
	for len(g.cellOf) < n {
		g.cellOf = append(g.cellOf, 0)
		g.placed = append(g.placed, false)
		g.prevCell = append(g.prevCell, 0)
		g.prevValid = append(g.prevValid, false)
		g.moveEpoch = append(g.moveEpoch, 0)
	}
}

func cellKeyOf(cx, cy int32) uint64 {
	return uint64(uint32(cx))<<32 | uint64(uint32(cy))
}

// cellAt returns the coordinates of the cell containing pos.
func (g *cellGrid) cellAt(pos geo.Point) (cx, cy int32) {
	return int32(math.Floor(pos.X / g.cell)), int32(math.Floor(pos.Y / g.cell))
}

// floorDiv32 is floored (not truncated) integer division for b > 0, so
// stripes tile negative coordinates seamlessly.
func floorDiv32(a, b int32) int32 {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// regionOfCx returns the region owning cell column cx: stripes of g.stripe
// columns assigned round-robin across regions.
func (g *cellGrid) regionOfCx(cx int32) int {
	if g.regions == 1 {
		return 0
	}
	r := int(floorDiv32(cx, g.stripe)) % g.regions
	if r < 0 {
		r += g.regions
	}
	return r
}

func (g *cellGrid) regionOfKey(key uint64) int {
	return g.regionOfCx(int32(uint32(key >> 32)))
}

// resize replaces the slot array with an empty one of size slots (a power
// of two).
func (t *gridTable) resize(size int) {
	t.slots = make([]gridSlot, size)
	t.mask = uint32(size - 1)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	t.used = 0
}

// home is key's preferred slot: Fibonacci hashing, whose top bits mix
// both packed coordinates.
func (t *gridTable) home(key uint64) uint32 {
	return uint32((key * 0x9e3779b97f4a7c15) >> t.shift)
}

// findSlot returns the slot holding key, or the free slot that ends its
// probe sequence if key has no bucket.
func (t *gridTable) findSlot(key uint64) uint32 {
	i := t.home(key)
	for {
		s := &t.slots[i]
		if len(s.nodes) == 0 || s.key == key {
			return i
		}
		i = (i + 1) & t.mask
	}
}

// lookup returns the nodes bucketed in cell key (empty if none). It only
// reads, so shard workers call it concurrently while no table mutates.
func (t *gridTable) lookup(key uint64) []int32 {
	return t.slots[t.findSlot(key)].nodes
}

// add inserts node id into cell key's bucket, creating the bucket (from a
// spare array when one is left) if the cell was empty, and grows the table
// once more than a quarter of it is occupied.
func (t *gridTable) add(key uint64, id int32) {
	j := t.findSlot(key)
	s := &t.slots[j]
	created := len(s.nodes) == 0
	if created {
		s.key = key
		if k := len(t.spare) - 1; k >= 0 {
			s.nodes = t.spare[k]
			t.spare[k] = nil
			t.spare = t.spare[:k]
		}
	}
	// Insert keeping ascending id order (buckets are small).
	s.nodes = append(s.nodes, id)
	for k := len(s.nodes) - 1; k > 0 && s.nodes[k-1] > id; k-- {
		s.nodes[k], s.nodes[k-1] = s.nodes[k-1], s.nodes[k]
	}
	if created {
		t.used++
		if t.used*4 > len(t.slots) {
			t.grow()
		}
	}
}

// drop removes node id from cell key's bucket, preserving order, and
// deletes the bucket once it is empty.
func (t *gridTable) drop(key uint64, id int32) {
	j := t.findSlot(key)
	s := &t.slots[j]
	for k, x := range s.nodes {
		if x == id {
			s.nodes = append(s.nodes[:k], s.nodes[k+1:]...)
			break
		}
	}
	if len(s.nodes) == 0 {
		t.deleteAt(j)
	}
}

// deleteAt frees the (emptied) slot i by backward-shift deletion: each
// later entry of the probe run moves back into the gap unless its home
// lies cyclically in (gap, entry], so every key stays reachable from its
// home without tombstones.
func (t *gridTable) deleteAt(i uint32) {
	t.spare = append(t.spare, t.slots[i].nodes[:0])
	t.used--
	for j := i; ; {
		j = (j + 1) & t.mask
		s := &t.slots[j]
		if len(s.nodes) == 0 {
			break
		}
		if (j-t.home(s.key))&t.mask >= (j-i)&t.mask {
			t.slots[i] = *s
			i = j
		}
	}
	t.slots[i] = gridSlot{}
}

// grow doubles the table and re-inserts every bucket.
func (t *gridTable) grow() {
	old := t.slots
	t.resize(2 * len(old))
	for _, s := range old {
		if len(s.nodes) > 0 {
			t.slots[t.findSlot(s.key)] = s
			t.used++
		}
	}
}

// update re-buckets node i at position pos and reports whether its cell
// changed (including first insertion). The tick pipeline calls it from
// one worker per region for movers rebucketParallelSafe vouched for, and
// from the merge on the caller for everything else.
func (g *cellGrid) update(i int32, pos geo.Point) bool {
	cx, cy := g.cellAt(pos)
	key := cellKeyOf(cx, cy)
	if g.placed[i] {
		if g.cellOf[i] == key {
			return false
		}
		g.prevCell[i] = g.cellOf[i]
		g.prevValid[i] = true
		g.tables[g.regionOfKey(g.cellOf[i])].drop(g.cellOf[i], i)
	} else {
		g.prevValid[i] = false
		g.placed[i] = true
	}
	g.moveEpoch[i] = g.epoch
	g.tables[g.regionOfCx(cx)].add(key, i)
	g.cellOf[i] = key
	return true
}

// rebucketParallelSafe reports whether re-bucketing node i into cell
// column cx mutates only that column's region table, so the sharded tick
// may run it on the region's goroutine: the node's old cell (if any) is
// in the same region. It reads only node i's own bookkeeping.
func (g *cellGrid) rebucketParallelSafe(i int32, cx int32) bool {
	return g.regions == 1 || !g.placed[i] || g.regionOfKey(g.cellOf[i]) == g.regionOfCx(cx)
}

// --- pair re-check scheduler ---

// wheelSize is the horizon of the re-check timing wheel in ticks. Skips
// are capped at wheelSize-1 so every parked check lands within one wheel
// revolution, which keeps slot membership unambiguous without storing due
// ticks.
const wheelSize = 64

// pairKey packs a canonical (a<b) pair.
func pairKey(a, b int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// pairSched parks candidate pairs on a timing wheel until their next
// provably-necessary distance check. The tracked set holds exactly the
// pairs with one parked check; everything else is guaranteed non-adjacent
// on the grid and is rediscovered by cell-change rescans.
type pairSched struct {
	wheel   [wheelSize][]uint64
	tracked pairSet
}

func (ps *pairSched) init(n int) { ps.tracked.init(n) }

// track parks a check for pair (a,b) at the given tick unless the pair is
// already tracked. It reports whether the pair was newly tracked.
func (ps *pairSched) track(a, b int32, tick uint64) bool {
	if !ps.tracked.add(a, b) {
		return false
	}
	slot := tick % wheelSize
	ps.wheel[slot] = append(ps.wheel[slot], pairKey(a, b))
	return true
}

// reschedule parks the next check of an already-tracked pair.
func (ps *pairSched) reschedule(key uint64, tick uint64) {
	slot := tick % wheelSize
	ps.wheel[slot] = append(ps.wheel[slot], key)
}

// untrack removes the pair from the tracked set; its parked check must be
// the one currently firing (it is simply not rescheduled).
func (ps *pairSched) untrack(a, b int32) { ps.tracked.remove(a, b) }

// pairSet is a set of canonical node pairs. For realistic fleet sizes it
// is a flat n*n bitset (~7 KB at the paper's largest 240-node scale); for
// very large fleets it falls back to a hash set to avoid quadratic memory.
type pairSet struct {
	n     int
	words []uint64            // bitset mode: bit a*n+b
	m     map[uint64]struct{} // fallback mode
}

// pairSetBitsetLimit caps bitset mode at n*n = 64M bits (8 MB).
const pairSetBitsetLimit = 8192

func (s *pairSet) init(n int) {
	s.n = n
	if n <= pairSetBitsetLimit {
		s.words = make([]uint64, (n*n+63)/64)
		return
	}
	s.m = make(map[uint64]struct{})
}

// add inserts pair (a<b) and reports whether it was absent.
func (s *pairSet) add(a, b int32) bool {
	if s.words != nil {
		bit := uint64(a)*uint64(s.n) + uint64(b)
		w, m := bit/64, uint64(1)<<(bit%64)
		if s.words[w]&m != 0 {
			return false
		}
		s.words[w] |= m
		return true
	}
	k := pairKey(a, b)
	if _, ok := s.m[k]; ok {
		return false
	}
	s.m[k] = struct{}{}
	return true
}

// has reports whether pair (a<b) is present. It is read-only, so shard
// workers may call it concurrently while no tracker mutation runs.
func (s *pairSet) has(a, b int32) bool {
	if s.words != nil {
		bit := uint64(a)*uint64(s.n) + uint64(b)
		return s.words[bit/64]&(uint64(1)<<(bit%64)) != 0
	}
	_, ok := s.m[pairKey(a, b)]
	return ok
}

func (s *pairSet) remove(a, b int32) {
	if s.words != nil {
		bit := uint64(a)*uint64(s.n) + uint64(b)
		s.words[bit/64] &^= uint64(1) << (bit % 64)
		return
	}
	delete(s.m, pairKey(a, b))
}
