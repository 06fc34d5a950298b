package experiment

import (
	"math/rand"
	"testing"

	"repro/internal/metrics"
	"repro/internal/resultcache"
)

// TestPlanProperties drives Plan over random cell lists — repeated keys,
// pre-cached and stale (wrong seed count) entries, explicit trace values
// and pre-recorded worlds — and checks the contract every consumer relies
// on: one outcome per cell, units covering exactly the to-run cells, one
// world per unit, and pre-recordings only for the groups Plan marked.
func TestPlanProperties(t *testing.T) {
	traces := []*string{nil, nil, nil, ptr("auto"), ptr("record"), ptr("replay"), ptr("")}
	var seen struct{ cached, dups, shared, records, sameRun int }
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		store := openStore(t)

		pool := make([]SweepCell, 6)
		for i := range pool {
			sp := ScenarioSpec{
				Preset:   "quick",
				Protocol: ptr([]string{"EER", "CR", "SprayAndWait", "Epidemic", "Epidemic"}[rng.Intn(5)]),
				Lambda:   ptr([]int{4, 10}[rng.Intn(2)]),
				Nodes:    ptr([]int{12, 16}[rng.Intn(2)]),
				Seeds:    [][]int64{{1}, {1, 2}}[rng.Intn(2)],
				Trace:    traces[rng.Intn(len(traces))],
			}
			key, err := sp.CacheKey()
			if err != nil {
				t.Fatal(err)
			}
			pool[i] = SweepCell{Spec: sp, Key: key}
		}
		cells := make([]SweepCell, 1+rng.Intn(10))
		for i := range cells {
			cells[i] = pool[rng.Intn(len(pool))]
		}

		cached := map[string]bool{}
		for _, c := range pool {
			switch rng.Intn(4) {
			case 0: // intact entry
				putPlanResult(t, store, c, len(c.Spec.SeedList()))
				cached[c.Key] = true
			case 1: // stale entry: wrong seed count, must be a miss
				putPlanResult(t, store, c, len(c.Spec.SeedList())+1)
				cached[c.Key] = false // pool specs differing only in trace share a key
			}
			if rng.Intn(3) == 0 { // pre-record this cell's world, every seed
				s, err := c.Spec.Scenario()
				if err != nil {
					t.Fatal(err)
				}
				for _, seed := range c.Spec.SeedList() {
					s.Seed = seed
					if err := store.PutTrace(TraceKey(s), []byte("DTNTRC1\n")); err != nil {
						t.Fatal(err)
					}
				}
			}
		}

		plan := Plan(cells, store)
		if len(plan.Cells) != len(cells) {
			t.Fatalf("trial %d: %d outcomes for %d cells", trial, len(plan.Cells), len(cells))
		}
		world := func(i int) string {
			s, err := plan.Cells[i].Cell.Spec.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			return traceGroupKey(s)
		}
		runKeys := map[string]int{}
		runInWorld := map[string]int{}              // to-run cells Plan was free to mark, per world
		runsInWorld := map[string]map[string]bool{} // the distinct runs among them
		for i, pc := range plan.Cells {
			outcomes := 0
			if pc.Cached != nil {
				seen.cached++
				outcomes++
				if !cached[pc.Cell.Key] || pc.Raw == nil {
					t.Errorf("trial %d cell %d: served a missing or stale entry", trial, i)
				}
			}
			if pc.DupOf >= 0 {
				seen.dups++
				outcomes++
				if pc.DupOf >= i || !plan.Cells[pc.DupOf].ToRun() || cells[pc.DupOf].Key != pc.Cell.Key {
					t.Errorf("trial %d cell %d: bad duplicate of %d", trial, i, pc.DupOf)
				}
			}
			if pc.ToRun() {
				outcomes++
				if cached[pc.Cell.Key] {
					t.Errorf("trial %d cell %d: cached key planned to run", trial, i)
				}
				if _, dup := runKeys[pc.Cell.Key]; dup {
					t.Errorf("trial %d cell %d: key runs twice", trial, i)
				}
				runKeys[pc.Cell.Key] = i
				if r := pc.SameRun; r >= 0 {
					seen.sameRun++
					first := plan.Cells[r]
					if r >= i || !first.ToRun() || first.SameRun >= 0 || first.Cell.Key == pc.Cell.Key ||
						first.Cell.Spec.Protocol == nil || *first.Cell.Spec.Protocol != "Epidemic" {
						t.Errorf("trial %d cell %d: bad same run as %d", trial, i, r)
					}
				}
				if cells[i].Spec.Trace == nil {
					runInWorld[world(i)]++
					s, err := pc.Cell.Spec.Scenario()
					if err != nil {
						t.Fatal(err)
					}
					if runsInWorld[world(i)] == nil {
						runsInWorld[world(i)] = map[string]bool{}
					}
					runsInWorld[world(i)][runKey(s, pc.Cell.Spec.SeedList())] = true
				}
			}
			if outcomes != 1 {
				t.Errorf("trial %d cell %d: %d outcomes", trial, i, outcomes)
			}
			if in := cells[i].Spec.Trace; in != nil && pc.Cell.Spec.Trace != in {
				t.Errorf("trial %d cell %d: user trace %q overridden", trial, i, *in)
			}
			if tr := pc.Cell.Spec.Trace; cells[i].Spec.Trace == nil && tr != nil && (*tr != "auto" || !pc.ToRun()) {
				t.Errorf("trial %d cell %d: marked %q outside a to-run group", trial, i, *tr)
			}
		}

		for i, pc := range plan.Cells {
			if tr := pc.Cell.Spec.Trace; pc.ToRun() && cells[i].Spec.Trace == nil && runInWorld[world(i)] >= 2 && (tr == nil || *tr != "auto") {
				t.Errorf("trial %d cell %d: shared world left unmarked", trial, i)
			}
		}

		covered := map[int]bool{}
		for _, u := range plan.Units {
			for _, i := range u {
				if covered[i] || !plan.Cells[i].ToRun() {
					t.Errorf("trial %d: unit cell %d covered twice or not to run (units %v)", trial, i, plan.Units)
				}
				covered[i] = true
				if len(u) > 1 {
					seen.shared++
					if tr := plan.Cells[i].Cell.Spec.Trace; tr == nil || *tr == "" || world(i) != world(u[0]) {
						t.Errorf("trial %d: unit %v mixes worlds or untraced cells", trial, u)
					}
				}
			}
		}
		if len(covered) != len(runKeys) {
			t.Errorf("trial %d: units cover %d cells, %d run", trial, len(covered), len(runKeys))
		}

		seen.records += len(plan.Record)
		for _, rec := range plan.Record {
			g := traceGroupKey(rec)
			if store.HasTrace(TraceKey(rec)) || len(runsInWorld[g]) < 2 {
				t.Errorf("trial %d: pre-record of a stored world or one with fewer than two runs", trial)
			}
			marked := false
			for i, pc := range plan.Cells {
				tr := pc.Cell.Spec.Trace
				marked = marked || (cells[i].Spec.Trace == nil && tr != nil && *tr == "auto" && world(i) == g)
			}
			if !marked {
				t.Errorf("trial %d: pre-record for a world with no marked cell", trial)
			}
		}
	}
	if seen.cached == 0 || seen.dups == 0 || seen.shared == 0 || seen.records == 0 || seen.sameRun == 0 {
		t.Errorf("random lists missed an outcome class: %+v", seen)
	}
}

// putPlanResult stores a result for cell carrying n per-seed summaries.
func putPlanResult(t *testing.T, store *resultcache.Store, c SweepCell, n int) {
	t.Helper()
	res := &resultcache.Result{Key: c.Key, Seeds: c.Spec.SeedList(), PerSeed: make([]metrics.Summary, n)}
	if err := store.Put(res); err != nil {
		t.Fatal(err)
	}
}

// TestPlanRecordCountsRuns pins the record rule: a world is pre-recorded
// only for two or more distinct runs. An Epidemic λ sweep is one run per
// seed (Epidemic never reads λ), so its cells are marked and share one
// dispatch unit, the later ones point at the first through SameRun, and
// nothing is pre-recorded: the one run records while it simulates. A
// SprayAndWait λ sweep is one run per cell and pre-records every seed.
func TestPlanRecordCountsRuns(t *testing.T) {
	seeds := []int64{1, 2}
	for _, tc := range []struct {
		proto   Protocol
		records int
		sameRun []int
	}{
		{Epidemic, 0, []int{-1, 0, 0}},
		{SprayAndWait, len(seeds), []int{-1, -1, -1}},
	} {
		sw := SweepSpec{
			Base:   ScenarioSpec{Protocol: ptr(string(tc.proto)), Nodes: ptr(20), Duration: ptr(300.0), Seeds: seeds},
			Lambda: []int{4, 8, 12},
		}
		cells, err := sw.Cells()
		if err != nil {
			t.Fatal(err)
		}
		plan := Plan(cells, openStore(t))
		if len(plan.Record) != tc.records {
			t.Errorf("%s: %d pre-recordings, want %d", tc.proto, len(plan.Record), tc.records)
		}
		if len(plan.Units) != 1 || len(plan.Units[0]) != len(cells) {
			t.Errorf("%s: units %v, want one unit of every cell", tc.proto, plan.Units)
		}
		for i, pc := range plan.Cells {
			if tr := pc.Cell.Spec.Trace; tr == nil || *tr != "auto" {
				t.Errorf("%s cell %d: not marked auto", tc.proto, i)
			}
			if !pc.ToRun() || pc.SameRun != tc.sameRun[i] {
				t.Errorf("%s cell %d: to run %v, same run %d, want %d", tc.proto, i, pc.ToRun(), pc.SameRun, tc.sameRun[i])
			}
		}
	}
}
