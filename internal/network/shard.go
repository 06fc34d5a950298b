package network

import (
	"sync"

	"repro/internal/obs"
)

// This file is the sharded tick pipeline selected by Config.Shards > 0:
// the engine's per-tick work split across a bounded set of shard workers
// for >10k-node scenarios, with every simulation-state mutation applied
// either inside a region of the partitioned grid (sub-grids, one writer
// per region) or in a serial merge phase in exactly the order the
// single-threaded path uses.
//
// The determinism contract (same scenario + seed => bit-identical
// metrics.Summary, identical contact callback order) therefore holds for
// every shard count, which shard_test.go and the experiment-level parity
// suite pin for Shards in {0, 1, 2, 8}.
//
// Each tick alternates data-parallel phases over disjoint work ranges with
// serial merges:
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
//	  never share a mutable byte. This was the serial merge's dominant
//	  cost.
//	A2 (merge)   re-bucket the region crossings in ascending id order.
//	  The grid state after A2 equals the serial path's exactly: bucket
//	  contents are sorted sets, per-node prev/epoch stamps depend only on
//	  each node's own move, and slot positions are unobservable.
//	B (parallel) scan moved nodes' 3x3 neighbourhoods, collecting
//	  untracked candidate pairs into per-shard buffers. Purely read-only
//	  against grid and tracked set.
//	B (merge)    track the collected pairs in concatenation order, which
//	  equals the serial scan order (moved nodes ascending, buckets in
//	  neighbour order); pairSched.track dedupes pairs both of whose
//	  endpoints moved, exactly as it does serially.
//	C (parallel) distance-classify the re-check pairs due this tick into
//	  verdict slots (in range / drop / re-park delay).
//	C (merge)    apply verdicts in due-list order: the wheel and tracked
//	  set see the same mutation sequence as the serial path.
//	D (parallel) distance-test active links into per-link slots.
//	D (merge)    tear down out-of-range links in establishment order,
//	  then establish new contacts in ascending pair order — router
//	  callbacks all fire on the caller's goroutine, in the serial order.
//	E (parallel, every ExpirySweepEvery ticks) purge expired copies from
//	  per-node buffers (disjoint state), counting per shard; the merge
//	  just adds the counts to the metrics collector.
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

// shardScratch holds the sharded path's reusable buffers. Shard workers
// write disjoint ranges (or whole per-shard slots) of these; no slice is
// ever appended to concurrently.
type shardScratch struct {
	movedW   [][]int32    // per worker: movers, ascending ids within each worker
	regW     [][]int32    // [worker*regions+region]: region-local movers (phase A)
	bndW     [][]int32    // per worker: boundary movers for the serial merge
	scanBufs [][][2]int32 // per shard: candidate pairs from phase B
	verdicts []uint64     // per due-list index: phase C classification
	linkD2   []float64    // per link-list index: phase D distances
	expired  []int        // per shard: expiry counts from phase E
}

func (sc *shardScratch) ensure(shards, regions int) {
	for len(sc.movedW) < shards {
		sc.movedW = append(sc.movedW, nil)
	}
	for len(sc.bndW) < shards {
		sc.bndW = append(sc.bndW, nil)
	}
	for len(sc.regW) < shards*regions {
		sc.regW = append(sc.regW, nil)
	}
	for len(sc.scanBufs) < shards {
		sc.scanBufs = append(sc.scanBufs, nil)
	}
	if len(sc.expired) < shards {
		sc.expired = make([]int, shards)
	}
}

// parallel splits [0, n) into one contiguous chunk per shard and runs fn
// on up to shards goroutines, executing shard 0's chunk on the caller.
// Chunk boundaries depend only on (n, shards), so shard-indexed output
// buffers line up deterministically with the merge that follows. It
// returns once every chunk completed.
func (w *World) parallel(shards, n int, fn func(shard, lo, hi int)) {
	if n == 0 {
		return
	}
	// Profiled runs book each worker's busy span against its shard index
	// (the imbalance lens). The wrapper exists only when profiling, so
	// the disabled path pays nothing per chunk.
	if p := w.prof; p != nil {
		inner := fn
		fn = func(shard, lo, hi int) {
			t0 := obs.Now()
			inner(shard, lo, hi)
			p.AddShardBusy(shard, obs.Now()-t0)
		}
	}
	if shards > n {
		shards = n
	}
	if shards <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for s := 1; s < shards; s++ {
		lo, hi := s*n/shards, (s+1)*n/shards
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			fn(s, lo, hi)
		}(s, lo, hi)
	}
	fn(0, 0, n/shards)
	wg.Wait()
}

// tickSharded is the Shards > 0 twin of the serial Tick + updateContacts
// pair. Every mutation of grid, scheduler, links, routers and metrics
// happens either on one region goroutine (grid sub-table mutations in
// A2) or on this goroutine in serial-path order; the other workers
// only compute.
func (w *World) tickSharded(t float64) {
	dt := t - w.lastTick
	w.lastTick = t
	w.tickCount++
	tick := w.tickCount
	w.grid.epoch = tick
	shards := w.cfg.Shards
	regions := w.grid.regions
	n := len(w.nodes)
	w.shard.ensure(shards, regions)
	g := &w.grid

	// Phase A: advance movers, detect cell changes and classify movers.
	st := w.prof.Start()
	for s := 0; s < shards; s++ {
		w.shard.movedW[s] = w.shard.movedW[s][:0]
		w.shard.bndW[s] = w.shard.bndW[s][:0]
		for r := 0; r < regions; r++ {
			w.shard.regW[s*regions+r] = w.shard.regW[s*regions+r][:0]
		}
	}
	w.parallel(shards, n, func(shard, lo, hi int) {
		movedL := w.shard.movedW[shard]
		bndL := w.shard.bndW[shard]
		for i := lo; i < hi; i++ {
			nd := w.nodes[i]
			nd.pos = nd.Mover.Step(dt)
			cx, cy := g.cellAt(nd.pos)
			id := int32(i)
			if g.placed[id] && g.cellOf[id] == cellKeyOf(cx, cy) {
				continue
			}
			movedL = append(movedL, id)
			if g.rebucketParallelSafe(id, cx) {
				r := shard*regions + g.regionOfCx(cx)
				w.shard.regW[r] = append(w.shard.regW[r], id)
			} else {
				bndL = append(bndL, id)
			}
		}
		w.shard.movedW[shard] = movedL
		w.shard.bndW[shard] = bndL
	})
	st = w.prof.Lap(obs.PhaseMobility, st)

	// Phase A2 (parallel): re-bucket region-local movers, one goroutine
	// per region; every mutation stays inside the region's table.
	w.parallel(regions, regions, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			for s := 0; s < shards; s++ {
				for _, i := range w.shard.regW[s*regions+r] {
					g.update(i, w.nodes[i].pos)
				}
			}
		}
	})
	st = w.prof.Lap(obs.PhaseRebucket, st)
	// Merge A2: reconcile the region crossings in ascending id order —
	// the only grid mutations that touch two regions.
	for s := 0; s < shards; s++ {
		for _, i := range w.shard.bndW[s] {
			g.update(i, w.nodes[i].pos)
		}
	}
	// The moved list for phases B+ in ascending id order: workers cover
	// ascending contiguous ranges, so concatenation preserves order.
	moved := w.movedBuf[:0]
	for s := 0; s < shards; s++ {
		moved = append(moved, w.shard.movedW[s]...)
	}
	st = w.prof.Lap(obs.PhaseMerge, st)

	// Phase B: collect untracked candidate pairs around moved nodes.
	for s := 0; s < shards; s++ {
		w.shard.scanBufs[s] = w.shard.scanBufs[s][:0]
	}
	w.parallel(shards, len(moved), func(shard, lo, hi int) {
		buf := w.shard.scanBufs[shard]
		for _, i := range moved[lo:hi] {
			buf = w.collectNeighborhood(i, buf)
		}
		w.shard.scanBufs[shard] = buf
	})
	st = w.prof.Lap(obs.PhaseScan, st)
	for s := 0; s < shards; s++ {
		for _, p := range w.shard.scanBufs[s] {
			w.sched.track(p[0], p[1], tick)
		}
	}
	w.movedBuf = moved[:0]
	st = w.prof.Lap(obs.PhaseMerge, st)

	// Phase C: classify the due re-checks (cf. updateContacts phase 2).
	slot := tick % wheelSize
	due := w.sched.wheel[slot]
	r2 := w.cfg.Range * w.cfg.Range
	bandMax2 := 9 * w.grid.cell * w.grid.cell
	if cap(w.shard.verdicts) < len(due) {
		w.shard.verdicts = make([]uint64, len(due))
	}
	verdicts := w.shard.verdicts[:len(due)]
	w.parallel(shards, len(due), func(_, lo, hi int) {
		for x := lo; x < hi; x++ {
			k := due[x]
			a := int32(uint32(k >> 32))
			b := int32(uint32(k))
			d2 := w.nodes[a].pos.Dist2(w.nodes[b].pos)
			switch {
			case d2 <= r2:
				verdicts[x] = verdictInRange
			case d2 > bandMax2:
				verdicts[x] = verdictUntrack
			default:
				verdicts[x] = w.recheckDelay(d2)
			}
		}
	})
	st = w.prof.Lap(obs.PhasePairs, st)
	newPairs := w.newPairs[:0]
	for x, k := range due {
		switch v := verdicts[x]; v {
		case verdictInRange:
			newPairs = append(newPairs, [2]int32{int32(uint32(k >> 32)), int32(uint32(k))})
		case verdictUntrack:
			w.sched.untrack(int32(uint32(k>>32)), int32(uint32(k)))
		default:
			w.sched.reschedule(k, tick+v)
		}
	}
	w.sched.wheel[slot] = due[:0]
	st = w.prof.Lap(obs.PhaseMerge, st)

	// Phase D: distance-test the active links, tear down in list order,
	// then establish new contacts (cf. updateContacts phase 3).
	if cap(w.shard.linkD2) < len(w.linkList) {
		w.shard.linkD2 = make([]float64, len(w.linkList))
	}
	linkD2 := w.shard.linkD2[:len(w.linkList)]
	w.parallel(shards, len(w.linkList), func(_, lo, hi int) {
		for x := lo; x < hi; x++ {
			l := w.linkList[x]
			linkD2[x] = l.a.pos.Dist2(l.b.pos)
		}
	})
	st = w.prof.Lap(obs.PhaseLinks, st)
	keep := w.linkList[:0]
	for x, l := range w.linkList {
		if linkD2[x] <= r2 {
			keep = append(keep, l)
			continue
		}
		w.contactDown(l, t)
		w.sched.reschedule(pairKey(int32(l.a.ID), int32(l.b.ID)), tick+w.recheckDelay(linkD2[x]))
	}
	w.linkList = keep
	st = w.prof.Lap(obs.PhaseMerge, st)
	w.establishNewContacts(newPairs, t)
	st = w.prof.Lap(obs.PhaseContacts, st)

	// Phase E: expiry sweep over disjoint per-node buffers.
	if tick%uint64(w.cfg.ExpirySweepEvery) == 0 {
		for s := 0; s < shards; s++ {
			w.shard.expired[s] = 0
		}
		w.parallel(shards, n, func(shard, lo, hi int) {
			c := 0
			for _, nd := range w.nodes[lo:hi] {
				c += len(nd.Buf.DropExpired(t))
			}
			w.shard.expired[shard] = c
		})
		for _, c := range w.shard.expired {
			w.Metrics.MessagesExpired(c)
		}
		w.prof.Lap(obs.PhaseExpiry, st)
	}
	w.prof.TickDone()
}

// collectNeighborhood appends to buf every untracked candidate pair
// between freshly-moved node i and the nodes bucketed in its 3x3 cell
// neighbourhood. It is the single traversal both tick paths share:
// scanNeighborhood (serial) tracks the collected pairs immediately, the
// sharded merge tracks whole per-shard collections in order. It reads but
// never mutates grid and tracker state, so shard workers run it
// concurrently; pairs collected twice because both endpoints moved (each
// side blind to the other worker's collection) are deduped by track in
// the merge, preserving the serial wheel order.
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
