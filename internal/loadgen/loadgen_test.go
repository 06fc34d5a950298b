package loadgen

// The load smoke test: run the harness in-process against an
// httptest-backed dtnd and assert the service contract held under
// concurrency — no torn statuses, no duplicate simulations, monotone
// progress — and that /metrics reconciles with what the run did. CI runs
// this package under -race, so the harness doubles as the data-race
// probe for the whole submit/coalesce/stream/cancel surface.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

func newDaemon(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	if cfg.CacheDir == "" {
		cfg.CacheDir = t.TempDir()
	}
	if cfg.MaxConcurrentJobs == 0 {
		cfg.MaxConcurrentJobs = 4
	}
	if cfg.MaxQueuedJobs == 0 {
		cfg.MaxQueuedJobs = 256
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

func scrape(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseText(string(body))
	if err != nil {
		t.Fatal(err)
	}
	return obs.Values(fams)
}

// TestLoadSmokeMixed drives the full traffic mix — cache hits, fresh
// simulations, coalescing, sweeps, streams, cancellations — and requires
// a violation-free run.
func TestLoadSmokeMixed(t *testing.T) {
	_, ts := newDaemon(t, server.Config{})
	rep, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Clients:     32,
		Requests:    300,
		UniqueFrac:  0.30,
		SweepFrac:   0.10,
		StreamFrac:  0.40,
		CancelFrac:  0.20,
		SharedSpecs: 6,
		Seed:        42,
		Warm:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.String())
	if len(rep.Violations) > 0 {
		t.Fatalf("protocol violations under load:\n%s", strings.Join(rep.Violations, "\n"))
	}
	if rep.Submitted < 250 { // rejections are allowed, silence is not
		t.Fatalf("only %d submissions went through: %+v", rep.Submitted, rep)
	}
	if rep.Cached.Count == 0 || rep.Uncached.Count == 0 || rep.Sweeps.Count == 0 {
		t.Fatalf("traffic mix did not exercise all classes: %+v", rep)
	}
	if rep.Streamed == 0 || rep.Cancelled == 0 {
		t.Fatalf("stream/cancel paths never ran: streamed=%d cancelled=%d", rep.Streamed, rep.Cancelled)
	}
	assertNoJobPanics(t, scrape(t, ts.URL))
}

// assertNoJobPanics fails unless a scrape shows the job panic backstop
// exposed and never reached: spec validation screened every job.
func assertNoJobPanics(t *testing.T, m map[string]float64) {
	t.Helper()
	if v, ok := m["dtnd_job_panics_total"]; !ok || v != 0 {
		t.Fatalf("dtnd_job_panics_total = %g (exposed %v), want 0", v, ok)
	}
}

// TestLoadSmokeNoDuplicateSimulation: with cancellation off, every
// distinct content address simulates at most once no matter how many
// concurrent clients race to submit it — coalescing and both cache
// layers (disk + terminal-window snapshot) must close every gap.
func TestLoadSmokeNoDuplicateSimulation(t *testing.T) {
	s, ts := newDaemon(t, server.Config{})
	rep, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Clients:     24,
		Requests:    240,
		UniqueFrac:  0.10,
		SharedSpecs: 4,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.String())
	if len(rep.Violations) > 0 {
		t.Fatalf("protocol violations:\n%s", strings.Join(rep.Violations, "\n"))
	}
	if got := s.Simulated(); got > int64(rep.UniqueSpecs) {
		t.Fatalf("duplicate simulations: %d ran for %d distinct specs", got, rep.UniqueSpecs)
	}

	// /metrics must reconcile with the run: every submission classified
	// exactly once, simulations matching the server's own count, and the
	// queue fully drained (the deferred cleanup may trail the last
	// response by a moment).
	deadline := time.Now().Add(10 * time.Second)
	var m map[string]float64
	for {
		m = scrape(t, ts.URL)
		if m["dtnd_queue_depth"] == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m["dtnd_queue_depth"] != 0 {
		t.Fatalf("queue never drained: %g", m["dtnd_queue_depth"])
	}
	if m["dtnd_submissions_total"] != m["dtnd_submit_cache_hits_total"]+m["dtnd_submit_cache_misses_total"] {
		t.Fatalf("classification does not reconcile: subs=%g hits=%g misses=%g",
			m["dtnd_submissions_total"], m["dtnd_submit_cache_hits_total"], m["dtnd_submit_cache_misses_total"])
	}
	if m["dtnd_submissions_total"] != float64(rep.Submitted) {
		t.Fatalf("server saw %g submissions, harness issued %d", m["dtnd_submissions_total"], rep.Submitted)
	}
	if m["dtnd_jobs_simulated_total"] != float64(s.Simulated()) {
		t.Fatalf("metrics simulated=%g, server says %d", m["dtnd_jobs_simulated_total"], s.Simulated())
	}
	assertNoJobPanics(t, m)
}

// TestRunConfigValidation pins the config contract.
func TestRunConfigValidation(t *testing.T) {
	ctx := context.Background()
	for name, cfg := range map[string]Config{
		"no URL":       {Clients: 1, Requests: 1},
		"no clients":   {BaseURL: "http://x", Requests: 1},
		"no bound":     {BaseURL: "http://x", Clients: 1},
		"double bound": {BaseURL: "http://x", Clients: 1, Requests: 1, Duration: time.Second},
	} {
		if _, err := Run(ctx, cfg); err == nil {
			t.Errorf("%s: Run accepted a bad config", name)
		}
	}
}

// TestLoadSmokeCoordinator drives the same mixed load through a
// sweep-fabric coordinator backed by two in-process workers: the service
// contract must hold across the dispatch hop (no torn statuses, no
// duplicate simulations fleet-wide), the coordinator itself must never
// simulate, and the fleet registry must account for every dispatch.
func TestLoadSmokeCoordinator(t *testing.T) {
	w1, ts1 := newDaemon(t, server.Config{})
	w2, ts2 := newDaemon(t, server.Config{})
	coord, ts := newDaemon(t, server.Config{
		Workers:   []string{ts1.URL, ts2.URL},
		Heartbeat: 100 * time.Millisecond,
	})
	t.Cleanup(coord.Close) // LIFO: dispatcher stops before the listeners close

	rep, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Clients:     24,
		Requests:    200,
		UniqueFrac:  0.15,
		SweepFrac:   0.10,
		StreamFrac:  0.30,
		SharedSpecs: 5,
		Seed:        11,
		Warm:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.String())
	if len(rep.Violations) > 0 {
		t.Fatalf("protocol violations through the fabric:\n%s", strings.Join(rep.Violations, "\n"))
	}
	if rep.Submitted < 150 {
		t.Fatalf("only %d submissions went through: %+v", rep.Submitted, rep)
	}

	// Zero duplicates fleet-wide, and the coordinator never simulates.
	// UniqueSpecs counts submitted specs only, so each 2-cell sweep may
	// add up to 2 more distinct content addresses to the ceiling.
	if coord.Simulated() != 0 {
		t.Errorf("coordinator simulated %d jobs itself", coord.Simulated())
	}
	ceiling := int64(rep.UniqueSpecs) + 2*int64(rep.Sweeps.Count)
	if got := w1.Simulated() + w2.Simulated(); got > ceiling {
		t.Fatalf("duplicate simulations across the fleet: %d ran for at most %d distinct cells",
			got, ceiling)
	}

	fs, err := FetchFleet(context.Background(), nil, ts.URL)
	if err != nil || fs == nil {
		t.Fatalf("FetchFleet: %v (fs=%v)", err, fs)
	}
	t.Logf("\n%s", fs.String())
	if len(fs.Workers) != 2 {
		t.Fatalf("fleet registry has %d workers, want 2", len(fs.Workers))
	}
	var dispatched, completed int64
	for _, w := range fs.Workers {
		if !w.Healthy {
			t.Errorf("worker %s unhealthy after a clean run", w.URL)
		}
		dispatched += w.Dispatched
		completed += w.Completed
	}
	if dispatched == 0 || completed != dispatched {
		t.Errorf("dispatch accounting: dispatched=%d completed=%d", dispatched, completed)
	}
	for _, u := range []string{ts1.URL, ts2.URL} {
		assertNoJobPanics(t, scrape(t, u))
	}

	// A plain worker is not a coordinator: FetchFleet skips it.
	if fs, err := FetchFleet(context.Background(), nil, ts1.URL); err != nil || fs != nil {
		t.Errorf("FetchFleet against a worker: fs=%v err=%v", fs, err)
	}
}
