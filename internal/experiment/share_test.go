package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// routingFieldAlts sets each routing field to a valid value that differs
// from Quick's.
var routingFieldAlts = []struct {
	name  string
	field routingField
	set   func(*Scenario)
}{
	{"lambda", readsLambda, func(s *Scenario) { s.Lambda = 4 }},
	{"alpha", readsAlpha, func(s *Scenario) { s.Alpha = 0.9 }},
	{"window", readsWindow, func(s *Scenario) { s.Window = 8 }},
	{"forward_hysteresis", readsHysteresis, func(s *Scenario) { s.ForwardHysteresis = 60 }},
	{"sparse_estimators", readsSparse, func(s *Scenario) { s.SparseEstimators = true }},
	{"max_sparse_rows", readsMaxSparseRows, func(s *Scenario) { s.MaxSparseRows = 4 }},
	{"gossip", readsGossip, func(s *Scenario) { s.Gossip = "delta" }},
}

// TestRegistryReadsSound pins what run sharing relies on: a routing field
// a protocol's registry entry leaves out cannot change its run. For every
// protocol and every field it does not declare, Quick with the field at
// Quick's value and at another valid value must give identical summaries,
// both live and replayed from one recorded world. Declaring a field the
// router does read (EBR λ-blind, CR α-blind) fails it.
func TestRegistryReadsSound(t *testing.T) {
	ctx := context.Background()
	store := openStore(t)
	base := Quick()
	if _, _, err := RecordTrace(ctx, base, store); err != nil {
		t.Fatal(err)
	}
	run := func(s Scenario, trace string) metrics.Summary {
		t.Helper()
		s.Trace = trace
		sum, done, err := runScenario(ctx, s, store, nil)
		if err != nil || !done {
			t.Fatalf("%s %s run: done=%v err=%v", s.Protocol, trace, done, err)
		}
		return sum
	}
	var protos []Protocol
	for p := range routerFactories {
		protos = append(protos, p)
	}
	slices.Sort(protos)
	for _, p := range protos {
		s := base
		s.Protocol = p
		var live, replayed metrics.Summary
		ran := false
		for _, f := range routingFieldAlts {
			if routerFactories[p].reads&f.field != 0 {
				continue
			}
			if !ran {
				live, replayed, ran = run(s, ""), run(s, "replay"), true
			}
			alt := s
			f.set(&alt)
			if alt.runIdentity() != s.runIdentity() {
				t.Fatalf("%s: %s is unread but changes the run identity", p, f.name)
			}
			if got := run(alt, ""); got != live {
				t.Errorf("%s: unread %s changed the live summary:\n base %+v\n alt  %+v", p, f.name, live, got)
			}
			if got := run(alt, "replay"); got != replayed {
				t.Errorf("%s: unread %s changed the replayed summary:\n base %+v\n alt  %+v", p, f.name, replayed, got)
			}
		}
	}
}

// TestRunSweepSharesRuns runs a protocol × λ grid where Epidemic and
// Prophet ignore λ. Each distinct run must simulate once: SprayAndWait's
// three λ cells plus one Epidemic and one Prophet run, per seed. Every
// cell must still be stored under its own key, with its own canonical
// spec and the bytes a per-cell run without a store produces, and a
// resubmit must be served from the store whole.
func TestRunSweepSharesRuns(t *testing.T) {
	ctx := context.Background()
	sw := SweepSpec{
		Base: ScenarioSpec{
			Nodes:    ptr(40),
			Duration: ptr(600.0),
			Tick:     ptr(0.5),
			Seeds:    []int64{1, 2},
		},
		Protocols: []string{string(SprayAndWait), string(Epidemic), string(Prophet)},
		Lambda:    []int{4, 8, 12},
	}
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}

	store := openStore(t)
	rec0, rep0 := TraceRecordings(), TraceReplays()
	out, err := RunSweep(ctx, sw, store)
	if err != nil {
		t.Fatal(err)
	}
	if d := TraceRecordings() - rec0; d != 2 {
		t.Errorf("recorded %d worlds, want 2 (one per seed)", d)
	}
	if d := TraceReplays() - rep0; d != (3+1+1)*2 {
		t.Errorf("replayed %d runs, want %d (five distinct runs × two seeds)", d, (3+1+1)*2)
	}

	specs := make([]ScenarioSpec, len(cells))
	for i, c := range cells {
		specs[i] = c.Spec
	}
	oracle, err := RunSpecsStore(ctx, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	oracleStore := openStore(t)
	for i, c := range cells {
		wantShared := i >= 3 && i%3 != 0 // Epidemic and Prophet at λ 8 and 12
		if out[i].Shared != wantShared || out[i].Cached {
			t.Errorf("cell %d (%v): shared=%v cached=%v, want shared=%v", i, c.Axes, out[i].Shared, out[i].Cached, wantShared)
		}
		res, raw, ok := store.GetRaw(c.Key)
		if !ok {
			t.Fatalf("cell %d (%v) not stored under its key", i, c.Axes)
		}
		canon, err := c.Spec.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var stored bytes.Buffer
		if err := json.Compact(&stored, res.CanonicalSpec); err != nil {
			t.Fatal(err)
		}
		if res.Key != c.Key || !bytes.Equal(stored.Bytes(), canon) {
			t.Errorf("cell %d (%v) stored as %s with spec %s", i, c.Axes, res.Key, stored.Bytes())
		}
		want, err := CellResultOf(c, oracle[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := oracleStore.Put(want); err != nil {
			t.Fatal(err)
		}
		_, wantRaw, _ := oracleStore.GetRaw(c.Key)
		if !bytes.Equal(raw, wantRaw) {
			t.Errorf("cell %d (%v): stored bytes differ from a per-cell run", i, c.Axes)
		}
		if out[i].Mean != want.Mean || !slices.Equal(out[i].PerSeed, want.PerSeed) {
			t.Errorf("cell %d (%v): returned summaries differ from a per-cell run", i, c.Axes)
		}
	}

	if out[0].Mean == out[2].Mean || out[3].Mean.Delivered == 0 {
		t.Fatal("λ does not move SprayAndWait, or Epidemic delivers nothing: the grid cannot tell shared runs apart")
	}

	again, err := RunSweep(ctx, sw, store)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range again {
		if !r.Cached || r.Shared {
			t.Errorf("resubmit cell %d: cached=%v shared=%v, want served from the store", i, r.Cached, r.Shared)
		}
	}
}

// TestSharedCellsCarryNoTiming: in a profiled sweep only simulated cells
// carry timing blocks, so timing aggregates count each simulation once —
// shared runs and duplicate keys alike.
func TestSharedCellsCarryNoTiming(t *testing.T) {
	sw := SweepSpec{
		Base:      ScenarioSpec{Nodes: ptr(20), Duration: ptr(200.0), Tick: ptr(0.5), Profile: ptr(true)},
		Protocols: []string{string(Epidemic)},
		Lambda:    []int{4, 8, 4},
	}
	out, err := RunSweep(context.Background(), sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range out {
		timed := r.Mean.Timing != nil || r.PerSeed[0].Timing != nil
		if r.Shared == timed || r.Shared != (i > 0) {
			t.Errorf("cell %d: shared=%v timed=%v, want only cell 0 simulated and timed", i, r.Shared, timed)
		}
		if StripTiming(out[0].PerSeed)[0] != StripTiming(r.PerSeed)[0] {
			t.Errorf("cell %d summary differs from the simulated cell's", i)
		}
	}
}

// TestRunSpecsStoreDecodesOnce: within one RunSpecsStore call, every
// replay of a recorded world shares one read and decode of its script, so
// the store serves one trace hit per distinct (world, seed) per call,
// however many cells replay it.
func TestRunSpecsStoreDecodesOnce(t *testing.T) {
	ctx := context.Background()
	store := openStore(t)
	seeds := []int64{1, 2}
	var specs []ScenarioSpec
	for _, p := range []Protocol{SprayAndWait, Epidemic, Prophet} {
		specs = append(specs, ScenarioSpec{
			Protocol: ptr(string(p)),
			Nodes:    ptr(30),
			Duration: ptr(300.0),
			Tick:     ptr(0.5),
			Seeds:    seeds,
			Trace:    ptr("replay"),
		})
	}
	s, err := specs[0].Scenario()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		s.Seed = seed
		if _, _, err := RecordTrace(ctx, s, store); err != nil {
			t.Fatal(err)
		}
	}
	for call := 0; call < 2; call++ {
		hits0, rep0 := store.Stats().TraceHits, TraceReplays()
		if _, err := RunSpecsStore(ctx, specs, store); err != nil {
			t.Fatal(err)
		}
		if d := TraceReplays() - rep0; d != int64(len(specs)*len(seeds)) {
			t.Errorf("call %d: %d replays, want %d", call, d, len(specs)*len(seeds))
		}
		if d := store.Stats().TraceHits - hits0; d != int64(len(seeds)) {
			t.Errorf("call %d: %d trace reads, want %d (one per world and seed)", call, d, len(seeds))
		}
	}
}

// TestScriptTableKeepsHitsOnly: a miss is not remembered — once the world
// is recorded, the next lookup in the same table reads it — while a hit
// is decoded once and shared by every concurrent lookup.
func TestScriptTableKeepsHitsOnly(t *testing.T) {
	store := openStore(t)
	s := traceTestScenario(4)
	key := TraceKey(s)
	table := newScriptTable()
	if _, ok := table.load(store, s, key); ok {
		t.Fatal("load before recording hit")
	}
	if _, _, err := RecordTrace(context.Background(), s, store); err != nil {
		t.Fatal(err)
	}
	hits0 := store.Stats().TraceHits
	got := make([]any, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if sc, ok := table.load(store, s, key); ok {
				got[i] = sc
			}
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("lookup %d: %v, want the one shared script", i, got[i])
		}
	}
	if d := store.Stats().TraceHits - hits0; d != 1 {
		t.Errorf("%d store reads for 8 lookups, want 1", d)
	}
}
