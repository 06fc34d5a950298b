package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// goldenConfigs are the two daemons whose fresh /metrics bodies
// testdata/metrics_<name>.prom pins: a standalone daemon, and a
// coordinator whose two workers still read healthy (the first heartbeat
// is an hour away, so nothing probes them).
var goldenConfigs = map[string]Config{
	"standalone":  {},
	"coordinator": {Workers: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}, Heartbeat: time.Hour},
}

// freshMetrics holds each golden daemon's first scrape. The trace
// recording and replay counters are process-wide, so TestMain scrapes
// before any test runs a simulation.
var freshMetrics = map[string]string{}

func TestMain(m *testing.M) {
	for name, cfg := range goldenConfigs {
		s, err := New(cfg)
		if err != nil {
			panic(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		freshMetrics[name] = rec.Body.String()
		s.Close()
	}
	os.Exit(m.Run())
}

// TestMetricsGolden: a fresh daemon's exposition is byte-identical to
// the pinned bodies, and the strict parser accepts both.
func TestMetricsGolden(t *testing.T) {
	for name := range goldenConfigs {
		want, err := os.ReadFile(filepath.Join("testdata", "metrics_"+name+".prom"))
		if err != nil {
			t.Fatal(err)
		}
		if got := freshMetrics[name]; got != string(want) {
			t.Errorf("%s: /metrics drifted from the pinned body:\n%s\nwant:\n%s", name, got, want)
		}
		if _, err := obs.ParseText(string(want)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// scrape fetches /metrics and parses it strictly.
func scrape(t *testing.T, ts *httptest.Server) []obs.Family {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseText(string(body))
	if err != nil {
		t.Fatal(err)
	}
	return fams
}

// scrapeMetrics scrapes /metrics into a map from sample key to value.
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	return obs.Values(scrape(t, ts))
}

// TestMetricsEndpoint drives a representative traffic mix and checks the
// exposition format plus the reconciliation invariant CI relies on:
// submissions == hits + misses, and every terminal job is counted.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// A zero-traffic scrape exposes every metric, all zero except gauges.
	m0 := scrapeMetrics(t, ts)
	for _, name := range []string{
		"dtnd_submissions_total", "dtnd_submit_cache_hits_total",
		"dtnd_submit_cache_misses_total", "dtnd_submit_coalesced_total",
		"dtnd_submit_rejected_total", "dtnd_sweep_submissions_total",
		"dtnd_jobs_done_total", "dtnd_jobs_failed_total", "dtnd_jobs_cancelled_total",
		"dtnd_job_panics_total",
		"dtnd_jobs_simulated_total", "dtnd_progress_events_total", "dtnd_sim_seconds_total",
		"dtnd_queue_depth", "dtnd_jobs_retained", "dtnd_sweeps_retained",
		"dtnd_stream_subscribers", "dtnd_cache_hits_total", "dtnd_cache_misses_total",
		"dtnd_cache_puts_total", "dtnd_cache_evictions_total", "dtnd_cache_bytes",
	} {
		if v, ok := m0[name]; !ok {
			t.Errorf("metric %s missing from scrape", name)
		} else if v != 0 {
			t.Errorf("fresh server: %s = %g, want 0", name, v)
		}
	}

	// Miss, then hit, then an invalid submission (must not count).
	sub, code := postSpec(t, ts, testSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitDone(t, ts, sub.JobID)
	if _, code = postSpec(t, ts, testSpec); code != http.StatusOK {
		t.Fatalf("resubmit status %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"nodes": -3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec status %d", resp.StatusCode)
	}
	// And one sweep, half of it cached (testSpec is not a testSweep cell).
	sw, _ := postSweep(t, ts, testSweep)
	waitSweepState(t, ts, sw.SweepID, stateDone)

	m := scrapeMetrics(t, ts)
	check := func(name string, want float64) {
		t.Helper()
		if m[name] != want {
			t.Errorf("%s = %g, want %g", name, m[name], want)
		}
	}
	check("dtnd_submissions_total", 2)
	check("dtnd_submit_cache_hits_total", 1)
	check("dtnd_submit_cache_misses_total", 1)
	check("dtnd_sweep_submissions_total", 1)
	check("dtnd_jobs_done_total", 3) // testSpec + 2 sweep cells
	check("dtnd_jobs_simulated_total", 3)
	check("dtnd_queue_depth", 0)
	check("dtnd_sweeps_retained", 1)
	check("dtnd_stream_subscribers", 0)
	if m["dtnd_submissions_total"] != m["dtnd_submit_cache_hits_total"]+m["dtnd_submit_cache_misses_total"] {
		t.Errorf("hit/miss classification does not reconcile: %+v", m)
	}
	if m["dtnd_cache_puts_total"] != 3 {
		t.Errorf("cache puts = %g, want 3", m["dtnd_cache_puts_total"])
	}
	if m["dtnd_progress_events_total"] < 3 || m["dtnd_sim_seconds_total"] <= 0 {
		t.Errorf("throughput counters did not advance: events=%g sim_s=%g",
			m["dtnd_progress_events_total"], m["dtnd_sim_seconds_total"])
	}
	if m["dtnd_jobs_retained"] != 3 {
		t.Errorf("jobs retained = %g, want 3", m["dtnd_jobs_retained"])
	}
}

// TestMetricsTerminalWindowHit: the inline-served terminal-window
// submission (the satellite-2 fix) counts as a hit, keeping the
// reconciliation invariant exact even for the race path.
func TestMetricsTerminalWindowHit(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	j, spec := fabricateJob(t, s, testSpec)
	j.terminal(finished(&Result{Key: j.key, Seeds: spec.SeedList()}, nil, nil))
	if _, code := postSpec(t, ts, testSpec); code != http.StatusOK {
		t.Fatalf("terminal-window submit status %d", code)
	}
	m := scrapeMetrics(t, ts)
	if m["dtnd_submissions_total"] != 1 || m["dtnd_submit_cache_hits_total"] != 1 || m["dtnd_submit_cache_misses_total"] != 0 {
		t.Errorf("terminal-window serve misclassified: subs=%g hits=%g misses=%g",
			m["dtnd_submissions_total"], m["dtnd_submit_cache_hits_total"], m["dtnd_submit_cache_misses_total"])
	}
	// Caching is off here: the store metrics must expose as zeros, not
	// panic on a nil store.
	if m["dtnd_cache_hits_total"] != 0 || m["dtnd_cache_bytes"] != 0 {
		t.Errorf("nil store scrape: %+v", m)
	}
}

// TestJobPanicCounted: a panicking job run is contained — the job fails
// with the panic's message, the daemon lives on — and counted in
// dtnd_job_panics_total, which otherwise reads 0. A panic after the job
// ended is counted too, but cannot end the job a second time.
func TestJobPanicCounted(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	j, _ := acceptJob(t, s, testSpec)
	s.run(j, func(*job) outcome { panic("unscreened shape") })
	if snap := j.snapshot(); snap.state != stateFailed || snap.errMsg != "job panicked: unscreened shape" {
		t.Fatalf("contained job: state %q, error %q", snap.state, snap.errMsg)
	}
	j2, _ := acceptJob(t, s, `{"preset": "quick", "protocol": "Direct", "nodes": 16, "duration": 300, "seeds": [61]}`)
	s.run(j2, func(j *job) outcome {
		s.end(j, cancelled)
		panic("after the end")
	})
	if snap := j2.snapshot(); snap.state != stateCancelled || len(snap.events) != 1 {
		t.Fatalf("job ended twice: state %q, %d terminal events", snap.state, len(snap.events))
	}
	m := scrapeMetrics(t, ts)
	if m["dtnd_job_panics_total"] != 2 || m["dtnd_jobs_failed_total"] != 1 || m["dtnd_jobs_cancelled_total"] != 1 || m["dtnd_queue_depth"] != 0 {
		t.Fatalf("panics=%g failed=%g cancelled=%g depth=%g, want 2, 1, 1 and 0", m["dtnd_job_panics_total"],
			m["dtnd_jobs_failed_total"], m["dtnd_jobs_cancelled_total"], m["dtnd_queue_depth"])
	}
}

// TestTerminalEventAfterRelease: a job releases its queue slot before it
// publishes its terminal event, so a subscriber reading the queue depth
// as the job ends reads 0 — for a local run and for a fleet dispatch.
// Holding the run permit keeps each job waiting until it is subscribed.
func TestTerminalEventAfterRelease(t *testing.T) {
	depthAtEnd := func(t *testing.T, s *Server, id string) <-chan int {
		t.Helper()
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		depth := make(chan int, 1)
		snap := j.subscribe(func(p metrics.Progress) {
			if p.Done {
				s.mu.Lock()
				depth <- s.queued // what dtnd_queue_depth reports
				s.mu.Unlock()
			}
		})
		if terminalState(snap.state) {
			t.Fatal("job ended before it was subscribed")
		}
		return depth
	}
	check := func(t *testing.T, depth <-chan int) {
		t.Helper()
		select {
		case d := <-depth:
			if d != 0 {
				t.Errorf("queue depth %d at the terminal event, want 0", d)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("job never ended")
		}
	}
	t.Run("local", func(t *testing.T) {
		s, ts := newTestServer(t, Config{MaxConcurrentJobs: 1})
		s.sem <- struct{}{}
		sub, code := postSpec(t, ts, testSpec)
		if code != http.StatusAccepted {
			t.Fatalf("submit status %d", code)
		}
		depth := depthAtEnd(t, s, sub.JobID)
		<-s.sem
		check(t, depth)
	})
	t.Run("fleet", func(t *testing.T) {
		w := startWorker(t, Config{MaxConcurrentJobs: 1})
		w.srv.sem <- struct{}{}
		s, ts := newCoordinator(t, Config{}, w.url)
		sub, code := postSpec(t, ts, testSpec)
		if code != http.StatusAccepted {
			t.Fatalf("submit status %d", code)
		}
		depth := depthAtEnd(t, s, sub.JobID)
		<-w.srv.sem
		check(t, depth)
	})
}

// BenchmarkMetricsScrape measures the scrape path itself (it takes
// Server.mu for the gauges, so it must stay cheap under load).
func BenchmarkMetricsScrape(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/metrics", nil)
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// TestMemoryHitsExported: repeat reads of one result are served from the
// store's memory tier, and /metrics counts them as a subset of the hits.
func TestMemoryHitsExported(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	key := strings.Repeat("ab", 32)
	if err := s.store.Put(&Result{Key: key, Seeds: []int64{1}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v1/results/" + key)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("read %d: status %d", i, resp.StatusCode)
		}
	}
	m := scrapeMetrics(t, ts)
	if m["dtnd_cache_hits_total"] != 3 || m["dtnd_cache_memory_hits_total"] != 2 {
		t.Errorf("hits %g, memory hits %g; want 3 and 2", m["dtnd_cache_hits_total"], m["dtnd_cache_memory_hits_total"])
	}
}
