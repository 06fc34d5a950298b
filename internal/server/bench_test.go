package server

// Benchmarks of the hot service-layer paths — the numbers dtnload's
// throughput ultimately decomposes into — plus lock-discipline tests
// asserting that no Server.mu or job.mu hold ever spans a simulation or
// a network write: the daemon must answer status, submit and metrics
// requests promptly no matter what its jobs, subscribers or stream
// clients are doing.

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
)

// benchServer builds a daemon with a finished job to probe.
func benchServer(b *testing.B) (*Server, *job) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	j, spec := fabricateJob(b, s, testSpec)
	res := &Result{Key: j.key, Seeds: spec.SeedList(), PerSeed: []metrics.Summary{{Generated: 1}, {Generated: 2}}, Mean: metrics.Summary{Generated: 1}}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	j.finish(res, raw, nil)
	return s, j
}

// BenchmarkStatusHandler measures GET /v1/jobs/{id} of a finished job —
// the poll loop every synchronous client sits in.
func BenchmarkStatusHandler(b *testing.B) {
	s, j := benchServer(b)
	h := s.Handler()
	req := httptest.NewRequest("GET", "/v1/jobs/"+j.id, nil)
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

// BenchmarkSubmitCachedHit measures POST /v1/jobs answered from the
// terminal in-flight snapshot — the cached fast path under load.
func BenchmarkSubmitCachedHit(b *testing.B) {
	s, _ := benchServer(b)
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(testSpec))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkSubmitHit measures POST /v1/jobs answered from the on-disk
// content-addressed store — the common fast path of a warm daemon. The
// reply splices the store file's encoded bytes into the envelope; before
// the encoded-result fast path every hit re-marshalled the full per-seed
// summary table.
func BenchmarkSubmitHit(b *testing.B) {
	s, err := New(Config{CacheDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	spec, err := experiment.ParseSpec([]byte(testSpec))
	if err != nil {
		b.Fatal(err)
	}
	key, err := spec.CacheKey()
	if err != nil {
		b.Fatal(err)
	}
	res := &Result{Key: key, Seeds: spec.SeedList(), PerSeed: make([]metrics.Summary, len(spec.SeedList()))}
	if err := s.store.Put(res); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(testSpec))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkSubmitCoalesce measures POST /v1/jobs attaching to an
// identical live in-flight job — the path every duplicate submission of
// a popular spec takes while it simulates.
func BenchmarkSubmitCoalesce(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	fabricateJob(b, s, testSpec) // stays queued forever: never runs
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(testSpec))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkPublishFanout measures one progress event appended to the
// job's history and delivered to subscribers — the simulation-side cost
// of every stream line and sweep fold.
func BenchmarkPublishFanout(b *testing.B) {
	for _, subs := range []int{0, 1, 16, 64} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			s, err := New(Config{})
			if err != nil {
				b.Fatal(err)
			}
			j, _ := fabricateJob(b, s, testSpec)
			for i := 0; i < subs; i++ {
				j.subscribe(func(metrics.Progress) {})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j.publish(metrics.Progress{Seed: 1, Frac: 0.5})
			}
		})
	}
}

// BenchmarkSweepStatusPagination measures assembling the sweep reply for
// a 256-cell grid: the full table vs one 32-row page — the cost
// ?offset/limit exists to avoid.
func BenchmarkSweepStatusPagination(b *testing.B) {
	cells := make([]sweepCellRef, 256)
	for i := range cells {
		res := &Result{Key: fmt.Sprintf("k%03d", i), Mean: metrics.Summary{Generated: i}}
		cells[i] = sweepCellRef{
			cell:   experiment.SweepCell{Key: res.Key, Axes: []experiment.AxisValue{{Axis: "alpha", Value: fmt.Sprint(i)}}},
			cached: res,
		}
	}
	sw := newSweepJob("s1", cells)
	sw.seal()
	for _, bc := range []struct {
		name          string
		offset, limit int
	}{{"full", 0, -1}, {"page32", 128, 32}, {"aggregateOnly", 0, 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp := sweepStatus(sw, bc.offset, bc.limit)
				if resp.CellsTotal != 256 {
					b.Fatalf("cells %d", resp.CellsTotal)
				}
			}
		})
	}
}

// promptly runs fn with a generous deadline and fails if it does not
// return — the probe the lock-discipline tests use: any Server.mu/job.mu
// hold spanning a simulation or a blocked write turns these
// milliseconds-fast requests into multi-second stalls or deadlocks.
func promptly(t *testing.T, what string, fn func()) time.Duration {
	t.Helper()
	done := make(chan struct{})
	t0 := time.Now()
	go func() { fn(); close(done) }()
	select {
	case <-done:
		return time.Since(t0)
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not respond: a lock is held across simulation or network I/O", what)
		return 0
	}
}

// TestResponsiveDuringSimulation: while a multi-second job simulates,
// every control-plane request — status, metrics, sweep list, a cached
// submit, a fresh submit — answers promptly. If any handler or runJob
// held Server.mu or job.mu across the simulation, these would block for
// the simulation's lifetime.
func TestResponsiveDuringSimulation(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrentJobs: 2})
	// End every job the probes started (the "fresh submit" one outlives
	// the test body) before the cache TempDir is removed.
	stopJobsOnCleanup(t, s)
	// Seed the cache so one probe exercises the disk fast path.
	warm, code := postSpec(t, ts, testSpec)
	if code != http.StatusAccepted {
		t.Fatalf("warm submit %d", code)
	}
	waitDone(t, ts, warm.JobID)

	sub, code := postSpec(t, ts, longSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitState(t, ts, sub.JobID, stateRunning)

	probes := map[string]func(){
		"status poll": func() {
			var jr jobResponse
			getJSON(t, ts.URL+"/v1/jobs/"+sub.JobID, &jr)
		},
		"metrics scrape": func() {
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		},
		"sweep list": func() {
			var l struct{}
			getJSON(t, ts.URL+"/v1/sweeps", &l)
		},
		"cached submit": func() {
			if r, code := postSpec(t, ts, testSpec); code != http.StatusOK || !r.Cached {
				t.Errorf("cached submit during sim: %d %+v", code, r)
			}
		},
		"fresh submit": func() {
			// Only the acknowledgement must be prompt — the job itself
			// legitimately queues behind the running simulation for pool
			// workers.
			if _, code := postSpec(t, ts, `{"preset":"quick","protocol":"Direct","nodes":12,"duration":200,"seeds":[99]}`); code != http.StatusAccepted {
				t.Errorf("fresh submit during sim: %d", code)
			}
		},
	}
	for what, fn := range probes {
		promptly(t, what, fn)
	}
	// The probes must have run against a live simulation, or they proved
	// nothing.
	var jr jobResponse
	getJSON(t, ts.URL+"/v1/jobs/"+sub.JobID, &jr)
	if terminalState(jobState(jr.Status)) {
		t.Skipf("job finished before all probes ran (machine too fast/slow); re-run")
	}
	del(t, ts.URL+"/v1/jobs/"+sub.JobID)
	waitState(t, ts, sub.JobID, stateCancelled, stateDone)
}

// TestPublishHoldsNoLockAcrossSubscriber pins publish's contract: while
// a subscriber callback is blocked (a slow sweep fold, a slow write),
// the job's lock and the server's lock must already be released — status
// polls of the very same job, new submissions of the same spec, and
// metrics scrapes all answer promptly.
func TestPublishHoldsNoLockAcrossSubscriber(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	sub, code := postSpec(t, ts, longSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	s.mu.Lock()
	j := s.jobs[sub.JobID]
	s.mu.Unlock()

	blocked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	snap := j.subscribe(func(p metrics.Progress) {
		once.Do(func() {
			close(blocked)
			<-release
		})
	})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	if terminalState(snap.state) {
		t.Skip("job finished before subscription")
	}
	select {
	case <-blocked:
	case <-time.After(30 * time.Second):
		t.Fatal("job never published an event")
	}

	// The publishing goroutine is parked inside the subscriber callback.
	promptly(t, "status poll of the publishing job", func() {
		var jr jobResponse
		getJSON(t, ts.URL+"/v1/jobs/"+sub.JobID, &jr)
	})
	promptly(t, "coalescing submit onto the publishing job", func() {
		if r, code := postSpec(t, ts, longSpec); code != http.StatusOK || r.JobID != sub.JobID {
			t.Errorf("coalesce during publish: %d %+v", code, r)
		}
	})
	promptly(t, "metrics scrape during publish", func() {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	})
	close(release)
	del(t, ts.URL+"/v1/jobs/"+sub.JobID)
	waitState(t, ts, sub.JobID, stateCancelled, stateDone)
}

// TestStalledStreamClientDoesNotBlockJob: a stream client that stops
// reading must stall only its own handler goroutine. The job keeps
// simulating to completion and the control plane stays responsive —
// publishes never write to sockets, they only wake the per-client
// goroutines that do.
func TestStalledStreamClientDoesNotBlockJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sub, code := postSpec(t, ts, `{"protocol": "EER", "nodes": 80, "duration": 10000, "seeds": [1, 2]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}

	// A raw client that sends the stream request and never reads a byte.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetReadBuffer(1 << 10) // shrink the window so writes back up sooner
	}
	fmt.Fprintf(conn, "GET /v1/jobs/%s/stream HTTP/1.1\r\nHost: dtnd\r\n\r\n", sub.JobID)

	// The job must still finish, and status must stay prompt throughout.
	deadline := time.Now().Add(60 * time.Second)
	for {
		var jr jobResponse
		promptly(t, "status poll with a stalled stream client", func() {
			getJSON(t, ts.URL+"/v1/jobs/"+sub.JobID, &jr)
		})
		if jr.Status == string(stateDone) {
			if jr.Result == nil {
				t.Fatal("done without result")
			}
			return
		}
		if jr.Status == string(stateFailed) {
			t.Fatalf("job failed: %s", jr.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("job starved by a stalled stream client")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
