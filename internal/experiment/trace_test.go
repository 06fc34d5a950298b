package experiment

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/resultcache"
	"repro/internal/trace"
)

// traceTestScenario is a small world for record/replay tests: Quick
// physics, shrunk further so each parity test runs several worlds within
// a unit-test budget.
func traceTestScenario(seed int64) Scenario {
	s := Quick()
	s.Nodes = 40
	s.Duration = 600
	s.Seed = seed
	return s
}

func openStore(t testing.TB) *resultcache.Store {
	t.Helper()
	store, err := resultcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// reRecord replays the script through a fresh world of scenario s while
// recording the replayed contact transitions, returning their encoding —
// the bit-parity probe: a replayed world must emit the exact event
// sequence it was fed.
func reRecord(t testing.TB, s Scenario, script *trace.Script) []byte {
	t.Helper()
	w, runner := s.BuildReplay(script)
	if !w.Scripted() {
		t.Fatal("BuildReplay world is not scripted")
	}
	if got := w.Config().Shards; got != 0 {
		t.Fatalf("replay world runs Shards=%d, want 0", got)
	}
	rec := trace.NewScriptRecorder(s.Nodes)
	w.OnContact(rec.Note)
	runner.Run(s.Duration)
	return rec.Script().Encode()
}

// TestReplayParityQuick is the core soundness contract at Quick scale: a
// run recorded during live simulation, then replayed, produces (a) a
// bit-identical metrics summary — protocol, traffic, buffers and gossip
// all included — and (b) a bit-identical contact event sequence when the
// replayed world is itself re-recorded.
func TestReplayParityQuick(t *testing.T) {
	store := openStore(t)
	s := traceTestScenario(3)

	s.Trace = "record"
	live, _, err := s.runWorld(context.Background(), store, nil, false, nil)
	if err != nil {
		t.Fatalf("record run: %v", err)
	}
	key := TraceKey(s)
	data, ok := store.GetTrace(key)
	if !ok {
		t.Fatalf("record run persisted no trace under %s", key)
	}
	script, err := trace.DecodeScript(data)
	if err != nil {
		t.Fatalf("persisted trace does not decode: %v", err)
	}

	s.Trace = "replay"
	replayed, _, err := s.runWorld(context.Background(), store, nil, false, nil)
	if err != nil {
		t.Fatalf("replay run: %v", err)
	}
	if replayed != live {
		t.Errorf("replayed summary diverged from live:\n live   %+v\n replay %+v", live, replayed)
	}
	if got := reRecord(t, s, script); !bytes.Equal(got, data) {
		t.Error("re-recorded replay events differ from the recorded script")
	}
	// The world owns the replay shard rule: a scenario asking for
	// workers still replays on one, event for event.
	s.Shards = 4
	if got := reRecord(t, s, script); !bytes.Equal(got, data) {
		t.Error("re-recorded Shards=4 replay events differ from the recorded script")
	}
}

// TestReplayParityCityScale re-pins the same contract on the 10k-node
// city preset — the scale the fast path exists for — over a short window.
func TestReplayParityCityScale(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node worlds in -short mode")
	}
	store := openStore(t)
	s := CityScale()
	s.Duration = 90
	s.Seed = 2

	s.Trace = "record"
	live, _, err := s.runWorld(context.Background(), store, nil, false, nil)
	if err != nil {
		t.Fatalf("record run: %v", err)
	}
	if live.Contacts == 0 {
		t.Fatal("no contacts in the city window — parity would be vacuous")
	}
	s.Trace = "replay"
	replayed, _, err := s.runWorld(context.Background(), store, nil, false, nil)
	if err != nil {
		t.Fatalf("replay run: %v", err)
	}
	if replayed != live {
		t.Errorf("replayed summary diverged from live:\n live   %+v\n replay %+v", live, replayed)
	}
	data, _ := store.GetTrace(TraceKey(s))
	script, err := trace.DecodeScript(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := reRecord(t, s, script); !bytes.Equal(got, data) {
		t.Error("re-recorded replay events differ from the recorded script")
	}
}

// TestBareRecordMatchesLiveRecord pins that a bare recording (RecordTrace:
// null routers, no traffic) captures the same contact script a full
// protocol run records — the property that lets sweeps pre-record one
// cheap world and replay it for every protocol cell.
func TestBareRecordMatchesLiveRecord(t *testing.T) {
	store := openStore(t)
	s := traceTestScenario(5)

	script, key, err := RecordTrace(context.Background(), s, store)
	if err != nil {
		t.Fatal(err)
	}
	bare := script.Encode()

	liveStore := openStore(t)
	s.Trace = "record"
	if _, _, err := s.runWorld(context.Background(), liveStore, nil, false, nil); err != nil {
		t.Fatalf("live record: %v", err)
	}
	liveData, ok := liveStore.GetTrace(key)
	if !ok {
		t.Fatal("live record persisted nothing")
	}
	if !bytes.Equal(bare, liveData) {
		t.Error("bare recording differs from live-run recording of the same world")
	}
}

// TestTraceModes pins the dispatch table of runWorld: explicit replay
// without a trace is an error, record/replay without a store are errors,
// auto degrades to live without a store, auto records on miss then
// replays on hit, and unknown modes are rejected.
func TestTraceModes(t *testing.T) {
	s := traceTestScenario(9)
	ctx := context.Background()

	s.Trace = "replay"
	if _, _, err := s.runWorld(ctx, openStore(t), nil, false, nil); err == nil {
		t.Error("replay with no recorded trace succeeded")
	}
	for _, mode := range []string{"record", "replay"} {
		s.Trace = mode
		if _, _, err := s.runWorld(ctx, nil, nil, false, nil); err == nil {
			t.Errorf("%s with nil store succeeded", mode)
		}
	}
	s.Trace = "bogus"
	if _, _, err := s.runWorld(ctx, openStore(t), nil, false, nil); err == nil {
		t.Error("unknown trace mode accepted")
	}

	s.Trace = "auto"
	liveSum, _, err := s.runWorld(ctx, nil, nil, false, nil)
	if err != nil {
		t.Fatalf("auto with nil store: %v", err)
	}

	store := openStore(t)
	rec0, rep0 := TraceRecordings(), TraceReplays()
	first, _, err := s.runWorld(ctx, store, nil, false, nil)
	if err != nil {
		t.Fatalf("auto miss: %v", err)
	}
	if !store.HasTrace(TraceKey(s)) {
		t.Fatal("auto miss did not record")
	}
	second, _, err := s.runWorld(ctx, store, nil, false, nil)
	if err != nil {
		t.Fatalf("auto hit: %v", err)
	}
	if d := TraceRecordings() - rec0; d != 1 {
		t.Errorf("auto pair performed %d recordings, want 1", d)
	}
	if d := TraceReplays() - rep0; d != 1 {
		t.Errorf("auto pair performed %d replays, want 1", d)
	}
	if first != liveSum || second != liveSum {
		t.Errorf("auto summaries diverged from live:\n live  %+v\n miss  %+v\n hit   %+v", liveSum, first, second)
	}
}

// TestTraceCorruptIsMiss pins the corruption contract end to end: a
// damaged blob under a valid trace key must never replay. Auto mode falls
// back to a live run (identical summary) and re-records a good blob;
// explicit replay refuses.
func TestTraceCorruptIsMiss(t *testing.T) {
	store := openStore(t)
	s := traceTestScenario(11)
	key := TraceKey(s)

	good, _, err := RecordTrace(context.Background(), s, store)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := good.Encode()[:20] // truncated mid-stream
	if err := store.PutTrace(key, corrupt); err != nil {
		t.Fatal(err)
	}

	s.Trace = "replay"
	if _, _, err := s.runWorld(context.Background(), store, nil, false, nil); err == nil {
		t.Fatal("replay of a corrupt trace succeeded")
	}

	s.Trace = ""
	liveSum, _, err := s.runWorld(context.Background(), nil, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Trace = "auto"
	sum, _, err := s.runWorld(context.Background(), store, nil, false, nil)
	if err != nil {
		t.Fatalf("auto over corrupt trace: %v", err)
	}
	if sum != liveSum {
		t.Errorf("auto fallback diverged from live:\n live %+v\n auto %+v", liveSum, sum)
	}
	data, ok := store.GetTrace(key)
	if !ok {
		t.Fatal("auto fallback did not re-record")
	}
	if _, err := trace.DecodeScript(data); err != nil {
		t.Errorf("re-recorded blob does not decode: %v", err)
	}
}

// TestRunSpecStoreErrorOrder pins the job-list runner's error order: a
// replay spec whose store holds scripts for some seeds but not others
// fails with the lowest failing seed, in the "seed N: ..." form, on
// every run however the pool schedules the jobs.
func TestRunSpecStoreErrorOrder(t *testing.T) {
	ctx := context.Background()
	store := openStore(t)
	sp := QuickSpec()
	sp.Nodes = Ptr(16)
	sp.Duration = Ptr(300.0)
	sp.Seeds = []int64{1, 2, 3, 4, 5, 6}
	sp.Trace = Ptr("replay")
	s, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 3} {
		s.Seed = seed
		if _, _, err := RecordTrace(ctx, s, store); err != nil {
			t.Fatal(err)
		}
	}
	s.Seed = 2
	want := fmt.Sprintf("seed 2: no recorded trace %s for replay", TraceKey(s))
	for run := 0; run < 5; run++ {
		if _, err := RunSpecStore(ctx, sp, store, nil); err == nil || err.Error() != want {
			t.Fatalf("run %d: error %v, want %q", run, err, want)
		}
	}
}

// TestTraceKeyGrouping pins what the content address covers: protocol,
// traffic and gossip parameters must not change the key (their cells
// share a recorded world); world-defining fields and the seed must.
// traceGroupKey additionally zeroes the seed so a sweep's whole seed list
// lands in one group.
func TestTraceKeyGrouping(t *testing.T) {
	base := traceTestScenario(1)
	key := TraceKey(base)

	same := base
	same.Protocol = MaxProp
	same.Lambda = 99
	same.TTL = 123
	same.BufBytes = 1 << 20
	same.Gossip = "delta"
	same.Shards = 4
	if TraceKey(same) != key {
		t.Error("routing/traffic/gossip fields perturbed the trace key")
	}
	for name, mut := range map[string]func(*Scenario){
		"nodes":    func(s *Scenario) { s.Nodes++ },
		"seed":     func(s *Scenario) { s.Seed++ },
		"duration": func(s *Scenario) { s.Duration += 1 },
		"range":    func(s *Scenario) { s.Range += 1 },
		"mobility": func(s *Scenario) { s.Mobility = "rwp" },
	} {
		diff := base
		mut(&diff)
		if TraceKey(diff) == key {
			t.Errorf("%s change did not change the trace key", name)
		}
	}

	sA, errA := ScenarioSpec{Nodes: ptr(40), Seeds: []int64{1}}.Scenario()
	sB, errB := ScenarioSpec{Nodes: ptr(40), Seeds: []int64{2}, Protocol: ptr(string(CR))}.Scenario()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if gA, gB := traceGroupKey(sA), traceGroupKey(sB); gA != gB {
		t.Errorf("seed/protocol-only spec variants grouped apart: %q vs %q", gA, gB)
	}
}

// TestSweepTraceFastPath is the sweep-level acceptance test: a
// protocol-only sweep over a shared store must simulate mobility exactly
// once per seed (the pre-recordings), serve every protocol cell by replay
// — zero live per-protocol worlds — and return cell summaries
// bit-identical to the same sweep run entirely live. Run under -race in
// CI, the concurrent pre-record and replay stages must also be clean.
func TestSweepTraceFastPath(t *testing.T) {
	seeds := []int64{1, 2}
	sw := SweepSpec{
		Base: ScenarioSpec{
			Nodes:    ptr(30),
			Duration: ptr(400.0),
			Tick:     ptr(0.5),
			Seeds:    seeds,
		},
		Protocols: []string{string(SprayAndWait), string(EER), string(CR)},
	}
	live, err := RunSweep(context.Background(), sw, nil)
	if err != nil {
		t.Fatal(err)
	}

	store := openStore(t)
	rec0, rep0 := TraceRecordings(), TraceReplays()
	traced, err := RunSweep(context.Background(), sw, store)
	if err != nil {
		t.Fatal(err)
	}
	if d := TraceRecordings() - rec0; d != int64(len(seeds)) {
		t.Errorf("sweep recorded %d worlds, want %d (one per seed)", d, len(seeds))
	}
	if want := int64(len(sw.Protocols) * len(seeds)); TraceReplays()-rep0 != want {
		t.Errorf("sweep replayed %d runs, want %d (every protocol cell)", TraceReplays()-rep0, want)
	}
	for i := range live {
		if traced[i].Mean != live[i].Mean {
			t.Errorf("cell %d (%v) mean diverged between live and traced sweeps", i, traced[i].Cell.Axes)
		}
		for j := range live[i].PerSeed {
			if traced[i].PerSeed[j] != live[i].PerSeed[j] {
				t.Errorf("cell %d seed %d summary diverged between live and traced sweeps", i, j)
			}
		}
	}

	// Resubmitting with a fresh result store but the same trace store must
	// not simulate mobility at all: every cell replays the existing traces.
	rec1, rep1 := TraceRecordings(), TraceReplays()
	if _, err := RunSweep(context.Background(), sw, traceOnlyStore(t, store, sw)); err != nil {
		t.Fatal(err)
	}
	if d := TraceRecordings() - rec1; d != 0 {
		t.Errorf("fully pre-recorded resubmit recorded %d worlds, want 0", d)
	}
	if want := int64(len(sw.Protocols) * len(seeds)); TraceReplays()-rep1 != want {
		t.Errorf("fully pre-recorded resubmit replayed %d runs, want %d", TraceReplays()-rep1, want)
	}
}

// traceOnlyStore opens a second store carrying over the sweep's trace
// blobs but none of its results — simulating a host that has traces
// recorded but lost (or never had) the result cache.
func traceOnlyStore(t testing.TB, src *resultcache.Store, sw SweepSpec) *resultcache.Store {
	t.Helper()
	dst := openStore(t)
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	copied := 0
	for _, c := range cells {
		s, err := c.Spec.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range c.Spec.SeedList() {
			sc := s
			sc.Seed = seed
			key := TraceKey(sc)
			if data, ok := src.GetTrace(key); ok {
				if err := dst.PutTrace(key, data); err != nil {
					t.Fatal(err)
				}
				copied++
			}
		}
	}
	if copied == 0 {
		t.Fatal("no trace blobs to carry over")
	}
	return dst
}

// TestLoneCellStaysLive pins Plan's economics: a sweep whose cells all
// live in different trace groups (a nodes axis) gains nothing from
// recording first, so no cell is marked and nothing is pre-recorded —
// until a world's scripts are already stored, when its lone cell replays.
func TestLoneCellStaysLive(t *testing.T) {
	sw := SweepSpec{
		Base: ScenarioSpec{
			Duration: ptr(400.0),
			Tick:     ptr(0.5),
			Seeds:    []int64{1},
		},
		Nodes: []int{20, 30},
	}
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	store := openStore(t)
	plan := Plan(cells, store)
	if len(plan.Record) != 0 {
		t.Errorf("nodes-axis sweep scheduled %d pre-recordings, want 0", len(plan.Record))
	}
	for i, pc := range plan.Cells {
		if pc.Cell.Spec.Trace != nil {
			t.Errorf("cell %d marked %q, want untouched", i, *pc.Cell.Spec.Trace)
		}
	}

	// Record the 30-node world: its lone cell is now marked and replays,
	// with nothing left to pre-record; the 20-node cell stays live.
	s, err := cells[1].Spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecordTrace(context.Background(), s, store); err != nil {
		t.Fatal(err)
	}
	plan = Plan(cells, store)
	if len(plan.Record) != 0 {
		t.Errorf("recorded world scheduled %d pre-recordings, want 0", len(plan.Record))
	}
	if tr := plan.Cells[0].Cell.Spec.Trace; tr != nil {
		t.Errorf("unrecorded lone cell marked %q", *tr)
	}
	if tr := plan.Cells[1].Cell.Spec.Trace; tr == nil || *tr != "auto" {
		t.Errorf("lone cell over a recorded world not marked auto: %v", tr)
	}
	if cells[1].Spec.Trace != nil {
		t.Error("Plan modified its input cells")
	}
}

// BenchmarkReplayVsLive measures the fast path the tentpole promises on
// the city preset: a replayed world (no mobility advance, no grid
// maintenance, no pair sweeps) against the same world simulated live. CI's
// bench-smoke job runs this at one iteration so the replay path cannot
// silently rot.
func BenchmarkReplayVsLive(b *testing.B) {
	s := CityScale()
	s.Duration = 60
	s.Seed = 1
	script, _, err := RecordTrace(context.Background(), s, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("live", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, runner := s.Build()
			runner.Run(s.Duration)
		}
	})
	b.Run("replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, runner := s.BuildReplay(script)
			runner.Run(s.Duration)
		}
	})
}

// TestPlacementGroups pins the plan's dispatch units: cells with a trace
// mode sharing a world form one unit in submission order (the first
// records, the rest replay on the same worker's store), while cells
// without one and distinct worlds stay singletons free to scatter.
// Without a store Plan marks nothing, so the units follow the specs'
// own trace fields.
func TestPlacementGroups(t *testing.T) {
	auto := "auto"
	proto := func(p string) *string { return &p }
	nodes := func(n int) *int { return &n }

	specs := []ScenarioSpec{
		{Preset: "quick", Protocol: proto("EER"), Nodes: nodes(16), Trace: &auto},     // 0: world A
		{Preset: "quick", Protocol: proto("CR"), Nodes: nodes(16), Trace: &auto},      // 1: world A (protocol excluded from world key)
		{Preset: "quick", Protocol: proto("EER"), Nodes: nodes(24), Trace: &auto},     // 2: world B (nodes change the world)
		{Preset: "quick", Protocol: proto("MaxProp"), Nodes: nodes(16)},               // 3: world A but unmarked — singleton
		{Preset: "quick", Protocol: proto("MaxProp"), Nodes: nodes(16), Trace: &auto}, // 4: world A again
		{Preset: "quick", Protocol: proto("CR"), Nodes: nodes(24), Trace: &auto},      // 5: world B again
		{Preset: "no-such-preset", Trace: &auto},                                      // 6: unresolvable — singleton
	}
	cells := make([]SweepCell, len(specs))
	for i, sp := range specs {
		cells[i] = SweepCell{Spec: sp, Key: fmt.Sprintf("k%d", i)}
	}
	got := Plan(cells, nil).Units
	want := [][]int{{0, 1, 4}, {2, 5}, {3}, {6}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("units %v, want %v", got, want)
	}
}
