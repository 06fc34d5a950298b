package network

import (
	"math"
	"sync"

	"repro/internal/obs"
)

// This file is the live tick pipeline: the engine's per-tick work split
// across Config.Shards workers (one worker, inline on the caller, for
// Shards 0 and 1), with every simulation-state mutation applied either
// inside a region of the partitioned grid (sub-grids, one writer per
// region) or in a merge phase on the caller, in an order that does not
// depend on the worker count.
//
// The determinism contract (same scenario + seed => bit-identical
// metrics.Summary, identical contact callback order) therefore holds for
// every shard count, which shard_test.go and the experiment-level parity
// suite pin for Shards in {0, 1, 2, 8} against a brute-force oracle.
//
// Each tick alternates data-parallel phases over disjoint work ranges with
// merges on the caller:
//
//	A (parallel) advance movers; detect cell changes; classify each mover
//	  as region-local (its old cell, if any, lies in the destination
//	  cell's sub-grid region, so its re-bucket mutates only that region's
//	  table, see rebucketParallelSafe) or boundary (a region crossing).
//	  Movers touch only their own state plus the concurrency-safe
//	  road-map PathCache; movers land in per-(worker, region) lists whose
//	  worker-order concatenation is ascending in node id, because workers
//	  cover ascending contiguous index ranges.
//	A2 (parallel) re-bucket the region-local movers on one goroutine per
//	  region — removal, bucket deletion, insertion, bucket creation and
//	  table growth all stay inside the region's own table, so regions
//	  never share a mutable byte. This was the merge's dominant cost.
//	A2 (merge)   re-bucket the region crossings in ascending id order.
//	  The grid state after A2 equals a one-region grid's exactly: bucket
//	  contents are sorted sets, per-node prev/epoch stamps depend only on
//	  each node's own move, and slot positions are unobservable.
//	B (parallel) scan moved nodes' 3x3 neighbourhoods, collecting
//	  untracked candidate pairs into per-worker buffers. Purely read-only
//	  against grid and tracked set.
//	B (merge)    track the collected pairs in concatenation order, which
//	  equals the one-worker scan order (moved nodes ascending, buckets in
//	  neighbour order); pairSched.track dedupes pairs both of whose
//	  endpoints moved.
//	C (parallel) distance-classify the re-check pairs due this tick into
//	  verdict slots (in range / drop / re-park delay).
//	C (merge)    apply verdicts in due-list order: the wheel and tracked
//	  set see the same mutation sequence for every worker count.
//	D (parallel) distance-test active links, collecting the out-of-range
//	  ones into per-worker lists.
//	D (merge)    tear those down in establishment order and drop them
//	  from the link list, then establish new contacts in ascending pair
//	  order — router callbacks all fire on the caller's goroutine.
//	E (parallel, every expirySweepEvery ticks on which World.expiryFloor
//	  says a copy can have expired) purge expired copies from per-node
//	  buffers (disjoint state), counting per worker and taking each
//	  chunk's earliest remaining expiry; the merge adds the counts to the
//	  metrics collector and takes the minimum as the new floor.
//
// Work is chunked by contiguous index ranges (nodes, moved list, due
// list, link list) except grid phase A2, which is chunked by grid
// region: the grid is the one structure where spatial partitioning
// pays, because re-bucketing mutates shared tables. Node-to-region
// assignment is a pure function of position (x-stripes), so no state
// migrates between regions and the ordered merge lists stay trivial.

// Due-pair verdict encoding for phase C. Re-park delays are at most
// wheelSize-1, so the two sentinels cannot collide with a delay.
const (
	verdictInRange = ^uint64(0)
	verdictUntrack = ^uint64(0) - 1
)

// tickPhase names the data-parallel phase a parallel call runs. Workers
// dispatch on it to code whose per-tick inputs live in shardScratch, so
// a tick builds no closures and a one-worker tick allocates nothing.
type tickPhase uint8

const (
	phaseAdvance  tickPhase = iota // A: step movers, classify cell changes
	phaseRebucket                  // A2: re-bucket region-local movers, per region
	phaseScan                      // B: collect candidate pairs around movers
	phaseVerdicts                  // C: distance-classify due re-checks
	phaseLinks                     // D: distance-test active links
	phaseExpiry                    // E: purge expired copies
)

// shardScratch holds the pipeline's reusable buffers and per-tick inputs.
// Workers write disjoint ranges (or whole per-worker slots) of these; no
// slice is ever appended to concurrently.
type shardScratch struct {
	dt       float64      // this tick's mover step, for phase A
	moved    []int32      // this tick's movers in ascending id order, for phase B
	movedW   [][]int32    // per worker: movers, ascending ids within each worker
	regW     [][]int32    // [worker*regions+region]: region-local movers (phase A)
	bndW     [][]int32    // per worker: boundary movers for the merge
	scanBufs [][][2]int32 // per worker: candidate pairs from phase B
	verdicts []uint64     // per due-list index: phase C classification
	downW    [][]*Link    // per worker: links out of range, in list order (phase D)
	expired  []int        // per worker: expiry counts from phase E
	floorW   []float64    // per worker: earliest expiry left after phase E
	wg       sync.WaitGroup
}

// init sizes the per-worker slots for workers workers over a grid of
// regions regions.
func (sc *shardScratch) init(workers, regions int) {
	sc.movedW = make([][]int32, workers)
	sc.bndW = make([][]int32, workers)
	sc.regW = make([][]int32, workers*regions)
	sc.scanBufs = make([][][2]int32, workers)
	sc.downW = make([][]*Link, workers)
	sc.expired = make([]int, workers)
	sc.floorW = make([]float64, workers)
}

// parallel splits [0, n) into one contiguous chunk per worker and runs
// phase ph on each, shard 0's chunk on the caller. Chunk boundaries
// depend only on (n, workers), so worker-indexed output buffers line up
// deterministically with the merge that follows. One worker is a plain
// call: no goroutine, no closure. It returns once every chunk completed.
func (w *World) parallel(ph tickPhase, workers, n int) {
	if n == 0 {
		return
	}
	// Profiled multi-worker worlds book each worker's busy span against
	// its shard index (the imbalance lens); one worker has no imbalance
	// to show, so it pays nothing per chunk.
	timed := w.prof != nil && workers > 1
	workers = min(workers, n)
	wg := &w.shard.wg
	for s := 1; s < workers; s++ {
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			w.runChunk(ph, s, lo, hi, timed)
		}(s, s*n/workers, (s+1)*n/workers)
	}
	w.runChunk(ph, 0, 0, n/workers, timed)
	wg.Wait()
}

// runChunk runs one chunk of phase ph, booking its busy span when timed.
func (w *World) runChunk(ph tickPhase, shard, lo, hi int, timed bool) {
	if !timed {
		w.work(ph, shard, lo, hi)
		return
	}
	t0 := obs.Now()
	w.work(ph, shard, lo, hi)
	w.prof.AddShardBusy(shard, obs.Now()-t0)
}

// work runs one worker's chunk [lo, hi) of phase ph. It writes only the
// worker's own scratch slots, the chunk's index range of the shared
// scratch slices, per-node state of the chunk's nodes, and (phase A2)
// the grid tables of the chunk's regions.
func (w *World) work(ph tickPhase, shard, lo, hi int) {
	g := &w.grid
	sc := &w.shard
	nodes := w.nodes
	switch ph {
	case phaseAdvance:
		movedL, bndL, regW := sc.movedW[shard], sc.bndW[shard], sc.regW
		dt, regions := sc.dt, g.regions
		for i, nd := range nodes[lo:hi] {
			nd.pos = nd.Mover.Step(dt)
			cx, cy := g.cellAt(nd.pos)
			id := int32(lo + i)
			if g.placed[id] && g.cellOf[id] == cellKeyOf(cx, cy) {
				continue
			}
			movedL = append(movedL, id)
			if g.rebucketParallelSafe(id, cx) {
				r := shard*regions + g.regionOfCx(cx)
				regW[r] = append(regW[r], id)
			} else {
				bndL = append(bndL, id)
			}
		}
		sc.movedW[shard], sc.bndW[shard] = movedL, bndL
	case phaseRebucket:
		for r := lo; r < hi; r++ {
			for k := r; k < len(sc.regW); k += g.regions { // each worker's list for r
				for _, i := range sc.regW[k] {
					g.update(i, nodes[i].pos)
				}
			}
		}
	case phaseScan:
		buf := sc.scanBufs[shard]
		for _, i := range sc.moved[lo:hi] {
			buf = w.collectNeighborhood(i, buf)
		}
		sc.scanBufs[shard] = buf
	case phaseVerdicts:
		verdicts := sc.verdicts[lo:hi]
		r2 := w.cfg.Range * w.cfg.Range
		bandMax2 := 9 * g.cell * g.cell
		for x, k := range w.sched.wheel[w.tickCount%wheelSize][lo:hi] {
			d2 := nodes[int32(uint32(k>>32))].pos.Dist2(nodes[int32(uint32(k))].pos)
			switch {
			case d2 <= r2:
				verdicts[x] = verdictInRange
			case d2 > bandMax2:
				verdicts[x] = verdictUntrack
			default:
				verdicts[x] = w.recheckDelay(d2)
			}
		}
	case phaseLinks:
		downL := sc.downW[shard]
		r2 := w.cfg.Range * w.cfg.Range
		for _, l := range w.linkList[lo:hi] {
			if !(l.a.pos.Dist2(l.b.pos) <= r2) {
				downL = append(downL, l)
			}
		}
		sc.downW[shard] = downL
	case phaseExpiry:
		sc.expired[shard], sc.floorW[shard] = dropExpired(nodes[lo:hi], w.lastTick)
	}
}

// tickLive advances one live tick: moves nodes, updates contacts and
// sweeps expired messages. Every mutation of grid, scheduler, links,
// routers and metrics happens either on one region's worker (grid
// sub-table mutations in A2) or on this goroutine in an order that does
// not depend on the worker count; the other workers only compute.
//
// The contact set it maintains is identical to a naive all-pairs sweep
// every tick (grid_test.go proves it), at a fraction of the work: moved
// nodes are re-bucketed and their neighbourhoods rescanned, then exactly
// the pairs whose parked re-check is due are distance-tested.
func (w *World) tickLive(t float64) {
	w.shard.dt = t - w.lastTick
	w.lastTick = t
	w.tickCount++
	tick := w.tickCount
	w.grid.epoch = tick
	workers := len(w.shard.movedW)
	g := &w.grid

	// Phase A: advance movers, detect cell changes and classify movers.
	st := w.prof.Start()
	for s := 0; s < workers; s++ {
		w.shard.movedW[s] = w.shard.movedW[s][:0]
		w.shard.bndW[s] = w.shard.bndW[s][:0]
	}
	for r := range w.shard.regW {
		w.shard.regW[r] = w.shard.regW[r][:0]
	}
	w.parallel(phaseAdvance, workers, len(w.nodes))
	st = w.prof.Lap(obs.PhaseMobility, st)

	// Phase A2 (parallel): re-bucket region-local movers, one worker per
	// region; every mutation stays inside the region's table.
	w.parallel(phaseRebucket, g.regions, g.regions)
	st = w.prof.Lap(obs.PhaseRebucket, st)
	// Merge A2: reconcile the region crossings in ascending id order —
	// the only grid mutations that touch two regions.
	for s := 0; s < workers; s++ {
		for _, i := range w.shard.bndW[s] {
			g.update(i, w.nodes[i].pos)
		}
	}
	// The moved list for phases B+ in ascending id order: workers cover
	// ascending contiguous ranges, so concatenation preserves order.
	moved := w.shard.moved[:0]
	for s := 0; s < workers; s++ {
		moved = append(moved, w.shard.movedW[s]...)
	}
	w.shard.moved = moved
	st = w.prof.Lap(obs.PhaseMerge, st)

	// Phase B: collect untracked candidate pairs around moved nodes and
	// track each for an immediate check, in collection order.
	for s := 0; s < workers; s++ {
		w.shard.scanBufs[s] = w.shard.scanBufs[s][:0]
	}
	w.parallel(phaseScan, workers, len(moved))
	st = w.prof.Lap(obs.PhaseScan, st)
	for s := 0; s < workers; s++ {
		for _, p := range w.shard.scanBufs[s] {
			w.sched.track(p[0], p[1], tick)
		}
	}
	st = w.prof.Lap(obs.PhaseMerge, st)

	// Phase C: classify the re-checks due this tick, then apply the
	// verdicts in due-list order. Link pairs are never parked on the
	// wheel (the link list below is their check), so an in-range hit here
	// is always a new contact. Out-of-range pairs are parked as far out
	// as the speed bound allows, or dropped entirely once they are
	// provably beyond grid adjacency.
	slot := tick % wheelSize
	due := w.sched.wheel[slot]
	if cap(w.shard.verdicts) < len(due) {
		w.shard.verdicts = make([]uint64, len(due))
	}
	w.shard.verdicts = w.shard.verdicts[:len(due)]
	verdicts := w.shard.verdicts
	w.parallel(phaseVerdicts, workers, len(due))
	st = w.prof.Lap(obs.PhasePairs, st)
	newPairs := w.newPairs[:0]
	for x, k := range due {
		switch v := verdicts[x]; v {
		case verdictInRange:
			// New contact: its wheel entry is consumed here and the pair
			// stays tracked; the link sweep re-parks it on contact loss.
			newPairs = append(newPairs, [2]int32{int32(uint32(k >> 32)), int32(uint32(k))})
		case verdictUntrack:
			// Beyond any adjacent-cell distance: stop tracking; a future
			// cell change of either node re-tracks the pair before it can
			// come back into range.
			w.sched.untrack(int32(uint32(k>>32)), int32(uint32(k)))
		default:
			w.sched.reschedule(k, tick+v)
		}
	}
	w.sched.wheel[slot] = due[:0]
	st = w.prof.Lap(obs.PhaseMerge, st)

	// Phase D: distance-sweep the active links — cheaper than parking the
	// (frequently-checked) in-range pairs on the wheel — collecting the
	// out-of-range ones. Tear those down first, in link-list order for
	// determinism, so buffers/state settle before new contacts exchange
	// metadata.
	for s := 0; s < workers; s++ {
		w.shard.downW[s] = w.shard.downW[s][:0]
	}
	w.parallel(phaseLinks, workers, len(w.linkList))
	st = w.prof.Lap(obs.PhaseLinks, st)
	downs := false
	for s := 0; s < workers; s++ {
		for _, l := range w.shard.downW[s] {
			w.contactDown(l, t)
			w.sched.reschedule(pairKey(int32(l.a.ID), int32(l.b.ID)), tick+w.recheckDelay(l.a.pos.Dist2(l.b.pos)))
			downs = true
		}
	}
	if downs {
		w.dropGoneLinks()
	}
	st = w.prof.Lap(obs.PhaseMerge, st)
	w.establishNewContacts(newPairs, t)
	st = w.prof.Lap(obs.PhaseContacts, st)

	// Phase E: expiry sweep over disjoint per-node buffers, skipped
	// while no buffered copy can have expired; each worker also reports
	// the earliest expiry left in its chunk, and their minimum is the
	// new floor.
	if w.sweepDue(t) {
		for s := 0; s < workers; s++ {
			w.shard.expired[s] = 0
			w.shard.floorW[s] = math.Inf(1)
		}
		w.parallel(phaseExpiry, workers, len(w.nodes))
		floor := math.Inf(1)
		for s, c := range w.shard.expired {
			w.Metrics.MessagesExpired(c)
			if f := w.shard.floorW[s]; f < floor {
				floor = f
			}
		}
		w.expiryFloor = floor
		w.prof.Lap(obs.PhaseExpiry, st)
	}
	w.prof.TickDone()
}

// collectNeighborhood appends to buf every untracked candidate pair
// between freshly-moved node i and the nodes bucketed in its 3x3 cell
// neighbourhood. It reads but never mutates grid and tracker state, so
// workers run it concurrently; pairs collected twice because both
// endpoints moved (each side blind to the other worker's collection) are
// deduped by track in the merge.
//
// Cells that were already adjacent before i's move are filtered to nodes
// that themselves moved this tick: an untracked pair that was
// cell-adjacent before the tick would contradict the tracking invariant
// (untracked implies non-adjacent), so only a move on the other side can
// have created a new untracked adjacency there.
func (w *World) collectNeighborhood(i int32, buf [][2]int32) [][2]int32 {
	g := &w.grid
	key := g.cellOf[i]
	cx := int32(uint32(key >> 32))
	cy := int32(uint32(key))
	hadPrev := g.prevValid[i]
	var pcx, pcy int32
	if hadPrev {
		pk := g.prevCell[i]
		pcx = int32(uint32(pk >> 32))
		pcy = int32(uint32(pk))
	}
	for dx := int32(-1); dx <= 1; dx++ {
		ccx := cx + dx
		t := &g.tables[g.regionOfCx(ccx)]
		for dy := int32(-1); dy <= 1; dy++ {
			ccy := cy + dy
			nodes := t.lookup(cellKeyOf(ccx, ccy))
			if len(nodes) == 0 {
				continue
			}
			retained := hadPrev && chebWithin1(ccx, pcx) && chebWithin1(ccy, pcy)
			for _, j := range nodes {
				if j == i {
					continue
				}
				if retained && g.moveEpoch[j] != g.epoch {
					continue
				}
				a, b := i, j
				if b < a {
					a, b = b, a
				}
				if !w.sched.tracked.has(a, b) {
					buf = append(buf, [2]int32{a, b})
				}
			}
		}
	}
	return buf
}
