package experiment

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// TestProfiledParity pins the profiler's bit-neutrality contract: a
// profiled run's summary, minus the timing block itself, is byte-for-byte
// identical to an unprofiled run's — with one worker and with two. If
// instrumentation ever perturbs simulation state (an extra RNG draw, a
// reordered callback), this catches it.
func TestProfiledParity(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{{"one-worker", 0}, {"sharded", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			s := Quick()
			s.Nodes = 30
			s.Duration = 600
			s.Shards = tc.shards
			want := s.Run()
			if want.Timing != nil {
				t.Fatal("unprofiled run grew a timing block")
			}

			sp := s
			sp.Profile = true
			got := sp.Run()
			if got.Timing == nil {
				t.Fatal("profiled run has no timing block")
			}
			tm := got.Timing
			got.Timing = nil
			wantJSON, _ := json.Marshal(want)
			gotJSON, _ := json.Marshal(got)
			if string(wantJSON) != string(gotJSON) {
				t.Fatalf("profiling changed the summary:\n  off %s\n  on  %s", wantJSON, gotJSON)
			}

			if tm.Runs != 1 || tm.Ticks == 0 {
				t.Fatalf("timing header runs=%d ticks=%d", tm.Runs, tm.Ticks)
			}
			for _, ph := range []string{"mobility", "scan", "merge"} {
				if tm.PhaseSeconds(ph) <= 0 {
					t.Fatalf("phase %q booked no time: %+v", ph, tm.Phases)
				}
			}
			// Busy time is the imbalance lens: booked only when more than
			// one worker ran.
			if tc.shards > 1 {
				if len(tm.ShardBusySeconds) < tc.shards {
					t.Fatalf("sharded run reported %d shard busy entries, want >= %d", len(tm.ShardBusySeconds), tc.shards)
				}
			} else if len(tm.ShardBusySeconds) != 0 {
				t.Fatalf("one-worker run reported shard busy time: %v", tm.ShardBusySeconds)
			}
			if tm.ExchangeCount == 0 {
				t.Fatal("no routing exchanges booked despite contacts")
			}
		})
	}
}

// TestProfiledReplayParity runs the trace record/replay path profiled:
// the replayed summary must stay bit-identical to the live run (timing
// stripped), and the replay's timing must book the script phase instead
// of the detector phases.
func TestProfiledReplayParity(t *testing.T) {
	store := openStore(t)
	s := Quick()
	s.Nodes = 24
	s.Duration = 400
	s.Profile = true

	s.Trace = "record"
	live, _, err := s.runWorld(context.Background(), store, nil, false, nil)
	if err != nil {
		t.Fatalf("record run: %v", err)
	}
	s.Trace = "replay"
	replayed, _, err := s.runWorld(context.Background(), store, nil, false, nil)
	if err != nil {
		t.Fatalf("replay run: %v", err)
	}

	liveJSON, _ := json.Marshal(StripTiming([]metrics.Summary{live}))
	repJSON, _ := json.Marshal(StripTiming([]metrics.Summary{replayed}))
	if string(liveJSON) != string(repJSON) {
		t.Fatalf("profiled replay diverged from live:\n  live   %s\n  replay %s", liveJSON, repJSON)
	}
	if live.Timing == nil || live.Timing.PhaseSeconds("mobility") <= 0 {
		t.Fatal("live recording run lacks detector timing")
	}
	tm := replayed.Timing
	if tm == nil {
		t.Fatal("replay run has no timing block")
	}
	if tm.PhaseSeconds("script") <= 0 {
		t.Fatalf("replay booked no script time: %+v", tm.Phases)
	}
	if tm.PhaseSeconds("mobility") != 0 || tm.PhaseSeconds("scan") != 0 {
		t.Fatalf("replay booked detector phases: %+v", tm.Phases)
	}
}

func TestStripTiming(t *testing.T) {
	plain := []metrics.Summary{{Generated: 1}}
	if got := StripTiming(plain); &got[0] != &plain[0] {
		t.Fatal("timing-free input should be returned as-is")
	}
	timed := []metrics.Summary{{Generated: 1, Timing: &obs.Timing{Runs: 1}}, {Generated: 2}}
	got := StripTiming(timed)
	if got[0].Timing != nil || got[1].Timing != nil {
		t.Fatal("timing survived stripping")
	}
	if timed[0].Timing == nil {
		t.Fatal("StripTiming modified its input")
	}
	if got[0].Generated != 1 || got[1].Generated != 2 {
		t.Fatal("stripping altered summary values")
	}
	// Mean over stripped summaries stays timing-free; over profiled ones
	// it folds the blocks.
	if m := metrics.Mean(got); m.Timing != nil {
		t.Fatal("mean of stripped summaries grew timing")
	}
	if m := metrics.Mean(timed); m.Timing == nil || m.Timing.Runs != 1 {
		t.Fatalf("mean of profiled summaries lost timing: %+v", m.Timing)
	}
}

// TestCachedCellIsTimingFree pins that profiled sweep results enter the
// content-addressed store without their timing blocks: the stored bytes
// are identical whether or not the producing run was profiled.
func TestCachedCellIsTimingFree(t *testing.T) {
	sp := ScenarioSpec{
		Nodes:    Ptr(20),
		Duration: Ptr(300.0),
		Seeds:    []int64{1},
		Profile:  Ptr(true),
	}
	cells, err := (SweepSpec{Base: sp}).Cells()
	if err != nil {
		t.Fatal(err)
	}
	cell := cells[0]
	sums, err := RunSpecStore(context.Background(), cell.Spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sums[0].Timing == nil {
		t.Fatal("profiled cell run produced no timing")
	}
	res, err := CellResultOf(cell, sums)
	if err != nil {
		t.Fatal(err)
	}
	for i, ps := range res.PerSeed {
		if ps.Timing != nil {
			t.Fatalf("seed %d timing leaked into the cacheable result", i)
		}
	}
	if res.Mean.Timing != nil {
		t.Fatal("mean timing leaked into the cacheable result")
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "" && jsonContains(raw, "timing") {
		t.Fatalf("serialized result mentions timing: %s", raw)
	}
}

func jsonContains(raw []byte, sub string) bool {
	return json.Valid(raw) && containsStr(string(raw), `"`+sub+`"`)
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// BenchmarkProfilerOverhead reports tick cost with the profiler off and
// on, on a CityScale-shaped world shrunk to bench-smoke size. CI runs it
// alongside BenchmarkCityScale (which always runs the disabled path) so
// regressions in either path surface as benchmark deltas.
func BenchmarkProfilerOverhead(b *testing.B) {
	for _, mode := range []struct {
		name    string
		profile bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			s := smallCity(1000)
			w, runner := s.Build()
			var prof *obs.EngineProf
			if mode.profile {
				prof = &obs.EngineProf{}
				w.SetProfiler(prof)
				runner.Prof = prof
			}
			runner.Run(5) // warm up: first contacts, wheel, scratch sizing
			start := runner.Now()
			b.ResetTimer()
			runner.Run(start + float64(b.N)*s.Tick)
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ticks/s")
			if mode.profile && prof.Timing().Ticks == 0 {
				b.Fatal("profiler booked no ticks")
			}
		})
	}
}
