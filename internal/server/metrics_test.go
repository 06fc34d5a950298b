package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// scrapeMetrics fetches /metrics and parses the sample lines into a map.
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
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
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed sample line %q", line)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("non-numeric sample %q: %v", line, err)
		}
		if _, dup := out[name]; dup {
			t.Fatalf("metric %s exposed twice", name)
		}
		out[name] = f
	}
	return out
}

// TestMetricsEndpoint drives a representative traffic mix and checks the
// exposition format plus the reconciliation invariant CI relies on:
// submissions == hits + misses, and every terminal job is counted.
func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})

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
	waitJobsReleased(t, s)

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
	j.finish(&Result{Key: j.key, Seeds: spec.SeedList()}, nil, nil)
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

// TestJobPanicCounted: a panicking job run is contained by runJob's
// backstop — the job fails with the panic's message, the daemon lives on
// — and counted in dtnd_job_panics_total, which otherwise reads 0.
func TestJobPanicCounted(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	j, _ := fabricateJob(t, s, testSpec)
	func() {
		defer s.containPanic(j)
		panic("unscreened shape")
	}()
	if snap := j.snapshot(); snap.state != stateFailed || snap.errMsg != "job panicked: unscreened shape" {
		t.Fatalf("contained job: state %q, error %q", snap.state, snap.errMsg)
	}
	m := scrapeMetrics(t, ts)
	if m["dtnd_job_panics_total"] != 1 || m["dtnd_jobs_failed_total"] != 1 {
		t.Fatalf("panics=%g failed=%g, want 1 and 1", m["dtnd_job_panics_total"], m["dtnd_jobs_failed_total"])
	}
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
