package experiment

import (
	"encoding/json"

	"repro/internal/resultcache"
)

// CellPlan is Plan's verdict on a cell list — the one answer to "which of
// these cells run, which share a recorded world, and in which groups they
// must be dispatched" that RunSweep, dtnd's admission and the sweep fabric
// all consume.
type CellPlan struct {
	// Cells holds one outcome per input cell, in input order.
	Cells []PlannedCell
	// Units partitions the to-run cells (indices into Cells) into dispatch
	// units. The to-run cells of one recorded world that carry a trace
	// mode (marked "auto" here, or set by the user) form one unit in
	// submission order: run on one store, the first records the world and
	// the rest replay it. Every other to-run cell is a singleton unit.
	Units [][]int
	// Record lists the (world, seed) scenarios the store lacks for marked
	// groups of two or more distinct runs: recorded first, as bare worlds,
	// every run of the group replays. A marked group of one run (an
	// Epidemic λ sweep) records while it runs instead; recording it first
	// would simulate its mobility twice.
	Record []Scenario
}

// PlannedCell is one cell's outcome: exactly one of cached (Cached set),
// duplicate (DupOf >= 0) or to run. A to-run cell may also share its run
// with an earlier one (SameRun >= 0).
type PlannedCell struct {
	// Cell is the input cell; Plan sets its Spec.Trace to "auto" when it
	// marks the cell's world as shared.
	Cell SweepCell
	// Cached is the stored result serving the cell and Raw its encoded
	// bytes, for serving paths that splice them onward.
	Cached *resultcache.Result
	Raw    []byte
	// DupOf is the index of the earlier to-run cell with the same key, or
	// -1.
	DupOf int
	// SameRun is the index of the earlier to-run cell that runs the same
	// simulation under another key, or -1: the two cells differ only in
	// routing fields their protocol never reads (Scenario.runIdentity).
	// RunSweep serves such a cell a copy of that cell's summaries; dtnd
	// and the fabric keep one job per key and run it as its own job.
	SameRun int
}

// ToRun reports whether the cell must simulate: neither cached nor a
// duplicate.
func (c PlannedCell) ToRun() bool { return c.Cached == nil && c.DupOf < 0 }

// ServesSpec is the staleness guard on stored results: an entry under the
// right key must carry one summary per requested seed. An entry written
// for a different seed list (an old spec version, or tampered on disk) is
// a miss and recomputes.
func ServesSpec(res *resultcache.Result, sp ScenarioSpec) bool {
	return res != nil && len(res.PerSeed) == len(sp.SeedList())
}

// Plan decides every cell's outcome against store (nil: nothing is cached
// and nothing marked). Each cell's key is read from the store once
// (remote tier included); an uncached cell sharing an earlier uncached
// cell's key is its duplicate. The unique to-run cells whose spec leaves
// trace unset are grouped by recorded world (the seed-zeroed trace key),
// and a group is marked Trace="auto" when it holds two or more cells or
// every seed's script is already stored. A lone cell whose world is not
// recorded stays live: recording it first would run the world twice.
// Missing scripts are pre-recorded only for groups of two or more
// distinct runs, by the same reasoning. A to-run cell whose run identity
// matches an earlier to-run cell's points at it through SameRun. A cell
// whose spec sets trace keeps the user's value. The input is never
// modified.
func Plan(cells []SweepCell, store *resultcache.Store) CellPlan {
	p := CellPlan{Cells: make([]PlannedCell, len(cells))}
	var run []int
	primary := map[string]int{}
	for i, c := range cells {
		pc := &p.Cells[i]
		pc.Cell, pc.DupOf, pc.SameRun = c, -1, -1
		if res, raw, ok := store.GetRaw(c.Key); ok && ServesSpec(res, c.Spec) {
			pc.Cached, pc.Raw = res, raw
		} else if first, seen := primary[c.Key]; seen {
			pc.DupOf = first
		} else {
			primary[c.Key] = i
			run = append(run, i)
		}
	}

	// World of every to-run cell; "" when the spec does not resolve (the
	// cell fails later, at job resolution, and groups with nothing).
	worlds := make([]string, len(run))
	runs := make([]string, len(run))
	scens := make([]Scenario, len(run))
	var groups [][]int // positions in run, by world in first-appearance order
	groupOf := map[string]int{}
	firstRun := map[string]int{}
	for k, i := range run {
		sp := cells[i].Spec
		s, err := sp.Scenario()
		if err != nil {
			continue
		}
		scens[k], worlds[k], runs[k] = s, traceGroupKey(s), runKey(s, sp.SeedList())
		if first, ok := firstRun[runs[k]]; ok {
			p.Cells[i].SameRun = first
		} else {
			firstRun[runs[k]] = i
		}
		if store == nil || sp.Trace != nil {
			continue
		}
		g, ok := groupOf[worlds[k]]
		if !ok {
			g = len(groups)
			groupOf[worlds[k]] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], k)
	}
	for _, g := range groups {
		// A sweep's cells share one seed list, so the first cell's stands
		// for the group; a cell whose seed lacks a script records it live.
		var missing []Scenario
		for _, seed := range cells[run[g[0]]].Spec.SeedList() {
			s := scens[g[0]]
			s.Seed = seed
			if !store.HasTrace(TraceKey(s)) {
				missing = append(missing, s)
			}
		}
		if len(g) < 2 && len(missing) > 0 {
			continue
		}
		distinct := map[string]bool{}
		for _, k := range g {
			distinct[runs[k]] = true
		}
		if len(distinct) >= 2 {
			p.Record = append(p.Record, missing...)
		}
		for _, k := range g {
			p.Cells[run[k]].Cell.Spec.Trace = ptr("auto")
		}
	}

	unitOf := map[string]int{}
	for k, i := range run {
		if tr := p.Cells[i].Cell.Spec.Trace; worlds[k] != "" && tr != nil && *tr != "" {
			if u, ok := unitOf[worlds[k]]; ok {
				p.Units[u] = append(p.Units[u], i)
				continue
			}
			unitOf[worlds[k]] = len(p.Units)
		}
		p.Units = append(p.Units, []int{i})
	}
	return p
}

// runKey identifies a cell's run: its canonical job with the routing
// fields its protocol never reads reset. Cells with equal run keys
// simulate identically, whatever their cache keys.
func runKey(s Scenario, seeds []int64) string {
	s = s.runIdentity()
	s.Seed = 0
	data, err := json.Marshal(canonicalJob{Version: SpecVersion, Scenario: s, Seeds: seeds})
	if err != nil {
		panic("experiment: run key marshal: " + err.Error()) // fixed struct, cannot fail
	}
	return string(data)
}
