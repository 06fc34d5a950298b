package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
)

// testSpec is the e2e workload: small enough for every test run, rich
// enough to exercise the estimator core (EER gossips MI rows) and the
// multi-seed pool path.
const testSpec = `{
	"preset": "quick",
	"protocol": "EER",
	"nodes": 16,
	"duration": 400,
	"seeds": [1, 2]
}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.CacheDir == "" {
		cfg.CacheDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// stopJobsOnCleanup registers a cleanup that cancels every job of s and
// waits for them to end. Cleanups run last-registered first, so one
// registered after the server's cache TempDir ends pending store writes
// before the directory is removed.
func stopJobsOnCleanup(t *testing.T, s *Server) {
	t.Cleanup(func() {
		s.mu.Lock()
		for _, j := range s.jobs {
			j.cancel()
		}
		s.mu.Unlock()
		if err := s.Drain(context.Background()); err != nil {
			t.Error(err)
		}
	})
}

func postSpec(t *testing.T, ts *httptest.Server, spec string) (submitResponse, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	return out, resp.StatusCode
}

// TestEndToEnd is the acceptance pin: a spec submitted over HTTP yields a
// summary bit-identical to running the same scenario in-process; live
// NDJSON progress streams until completion; and a second submission of
// the same spec is served from the content-addressed cache without
// re-simulating.
func TestEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// Submit.
	sub, code := postSpec(t, ts, testSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %+v", code, sub)
	}
	if sub.JobID == "" || sub.Key == "" || sub.Cached {
		t.Fatalf("bad submit response %+v", sub)
	}

	// Stream progress to the end (replays history even if the job already
	// finished). Expect ordered fractions and a terminal summary frame.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.JobID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	var events []metrics.Progress
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var p metrics.Progress
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, p)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(events) < 3 {
		t.Fatalf("only %d progress events", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Frac < events[i-1].Frac {
			t.Fatalf("progress went backwards: %g after %g", events[i].Frac, events[i-1].Frac)
		}
	}
	last := events[len(events)-1]
	if !last.Done || last.Summary == nil || last.Error != "" {
		t.Fatalf("terminal event %+v", last)
	}

	// Job status: done, with the full result.
	var jr jobResponse
	getJSON(t, ts.URL+"/v1/jobs/"+sub.JobID, &jr)
	if jr.Status != string(stateDone) || jr.Result == nil || jr.Frac != 1 {
		t.Fatalf("job after stream end: %+v", jr)
	}

	// Bit-identical to the in-process run of the same spec.
	spec, err := experiment.ParseSpec([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	sums, err := experiment.RunSpecStore(nil, spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(jr.Result.PerSeed) != len(sums) {
		t.Fatalf("server ran %d seeds, in-process %d", len(jr.Result.PerSeed), len(sums))
	}
	for i := range sums {
		if jr.Result.PerSeed[i] != sums[i] {
			t.Errorf("seed %d summary diverged:\n  server     %+v\n  in-process %+v", i, jr.Result.PerSeed[i], sums[i])
		}
	}
	if jr.Result.Mean != metrics.Mean(sums) {
		t.Errorf("mean diverged: %+v vs %+v", jr.Result.Mean, metrics.Mean(sums))
	}
	if *last.Summary != jr.Result.Mean {
		t.Errorf("streamed summary %+v != result mean %+v", *last.Summary, jr.Result.Mean)
	}

	// Second submission: served from cache, identical result, no new
	// simulation.
	before := s.Simulated()
	sub2, code := postSpec(t, ts, testSpec)
	if code != http.StatusOK || !sub2.Cached || sub2.Result == nil {
		t.Fatalf("second submit not cached: code=%d %+v", code, sub2)
	}
	if sub2.Key != sub.Key {
		t.Errorf("cache key changed: %s vs %s", sub2.Key, sub.Key)
	}
	if sub2.Result.Mean != jr.Result.Mean {
		t.Errorf("cached mean diverged")
	}
	if got := s.Simulated(); got != before {
		t.Errorf("cached submission re-simulated (%d -> %d)", before, got)
	}

	// The result endpoint resolves the content address directly.
	var res Result
	getJSON(t, ts.URL+"/v1/results/"+sub.Key, &res)
	if res.Mean != jr.Result.Mean {
		t.Errorf("result endpoint diverged")
	}
	// A semantically different spec gets a different address and misses.
	other, _ := experiment.ParseSpec([]byte(testSpec))
	other.Seeds = []int64{3}
	otherKey, err := other.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if otherKey == sub.Key {
		t.Fatal("different seeds, same key")
	}
	if resp, err := http.Get(ts.URL + "/v1/results/" + otherKey); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("uncomputed result status %d", resp.StatusCode)
		}
	}
}

// TestSubmitValidation: malformed submissions are rejected up front.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"garbage":        `not json`,
		"unknown field":  `{"protocl": "EER"}`,
		"unknown preset": `{"preset": "helsinki"}`,
		"invalid nodes":  `{"nodes": 1}`,
		"bad protocol":   `{"protocol": "EERX"}`,
	} {
		if _, code := postSpec(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job status %d", resp.StatusCode)
		}
	}
	// Result keys must be hex content addresses: traversal-shaped keys
	// (".." would escape the cache dir through the 2-char fan-out) and
	// malformed keys resolve to nothing.
	for _, key := range []string{"..evil", "../../etc/passwd", strings.Repeat("Z", 64), "abc"} {
		resp, err := http.Get(ts.URL + "/v1/results/" + key)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("key %q: status %d, want 404", key, resp.StatusCode)
		}
	}
}

// TestCoalesce: an identical spec submitted while the first is in flight
// attaches to the same job instead of queueing a duplicate simulation.
func TestCoalesce(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := `{"preset": "quick", "protocol": "SprayAndWait", "nodes": 30, "duration": 2000}`
	first, code := postSpec(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	second, code := postSpec(t, ts, spec)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("resubmit status %d", code)
	}
	if second.Cached {
		return // first finished before the resubmission: valid, nothing to coalesce
	}
	if second.JobID != first.JobID {
		t.Errorf("duplicate in-flight spec got a new job: %s vs %s", second.JobID, first.JobID)
	}
	waitDone(t, ts, first.JobID)
}

// TestDrain: shutting down drains — the accepted job finishes and its
// result is served, while new submissions are refused with 503.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	sub, code := postSpec(t, ts, `{"preset": "quick", "protocol": "EBR", "nodes": 40, "duration": 2500}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// Submissions during the drain are refused once draining is visible.
	// Probe with a unique spec per attempt: cached results are served
	// before the draining check by design, so a fixed probe spec would
	// read 200 forever once its own first job completed and cached —
	// a race this test lost under a loaded `go test ./...`. Unique
	// probes accepted before the flag flips are just more jobs for the
	// drain to wait out.
	deadline := time.Now().Add(60 * time.Second)
	for i := 1; ; i++ {
		probe := fmt.Sprintf(`{"preset": "quick", "protocol": "Direct", "nodes": 16, "duration": 300, "seeds": [%d]}`, i)
		_, code := postSpec(t, ts, probe)
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain never refused submissions (last code %d)", code)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The in-flight job completed rather than being killed.
	var jr jobResponse
	getJSON(t, ts.URL+"/v1/jobs/"+sub.JobID, &jr)
	if jr.Status != string(stateDone) || jr.Result == nil {
		t.Fatalf("in-flight job did not drain to completion: %+v", jr)
	}
}

// TestListenAndServe: the daemon loop binds, reports its address, serves,
// and shuts down cleanly on context cancellation — the cmd/dtnd and
// `dtnsim -serve` path.
func TestListenAndServe(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	addr := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- ListenAndServe(ctx, "127.0.0.1:0", Config{CacheDir: t.TempDir()},
			func(a string) { addr <- a })
	}()
	var base string
	select {
	case a := <-addr:
		base = "http://" + a
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/v1/presets")
	if err != nil {
		t.Fatal(err)
	}
	var presets map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&presets); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, want := range []string{"default", "quick", "figure2", "cityscale"} {
		if _, ok := presets[want]; !ok {
			t.Errorf("preset %q missing", want)
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func waitDone(t *testing.T, ts *httptest.Server, id string) jobResponse {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var jr jobResponse
		getJSON(t, ts.URL+"/v1/jobs/"+id, &jr)
		switch jr.Status {
		case string(stateDone):
			return jr
		case string(stateFailed):
			t.Fatalf("job %s failed: %s", id, jr.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// longSpec is a job big enough (~seconds of wall time) that tests can
// reliably observe it queued or running before acting on it.
const longSpec = `{"protocol": "MaxProp", "nodes": 240, "duration": 10000, "seeds": [1, 2, 3, 4]}`

// waitState polls a job until it reaches one of the wanted states.
func waitState(t *testing.T, ts *httptest.Server, id string, want ...jobState) jobResponse {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var jr jobResponse
		getJSON(t, ts.URL+"/v1/jobs/"+id, &jr)
		for _, st := range want {
			if jr.Status == string(st) {
				return jr
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %v", id, jr.Status, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func del(t *testing.T, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestCancelRunning: DELETE on a running job stops the simulation, the
// job reports cancelled with its last progress fraction, and no result
// is produced or cached.
func TestCancelRunning(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	sub, code := postSpec(t, ts, longSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitState(t, ts, sub.JobID, stateRunning)
	code, body := del(t, ts.URL+"/v1/jobs/"+sub.JobID)
	if code != http.StatusAccepted {
		t.Fatalf("cancel status %d: %s", code, body)
	}
	jr := waitState(t, ts, sub.JobID, stateCancelled)
	if jr.Result != nil {
		t.Errorf("cancelled job has a result")
	}
	if jr.Error != "cancelled" {
		t.Errorf("cancelled job error %q", jr.Error)
	}
	if s.Simulated() != 0 {
		t.Errorf("cancelled job counted as simulated")
	}
	// The stream replays to a terminal done event carrying the error.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.JobID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last metrics.Progress
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON %q: %v", sc.Text(), err)
		}
	}
	if !last.Done || last.Error != "cancelled" {
		t.Fatalf("terminal stream event %+v", last)
	}
	// A second DELETE conflicts: the job is already terminal.
	if code, _ := del(t, ts.URL+"/v1/jobs/"+sub.JobID); code != http.StatusConflict {
		t.Errorf("re-cancel status %d, want 409", code)
	}
	// Resubmission after cancellation starts fresh (nothing was cached).
	sub2, code := postSpec(t, ts, longSpec)
	if code != http.StatusAccepted || sub2.Cached {
		t.Fatalf("resubmit after cancel: %d %+v", code, sub2)
	}
	del(t, ts.URL+"/v1/jobs/"+sub2.JobID)
	waitState(t, ts, sub2.JobID, stateCancelled)
}

// TestCancelQueued: a job cancelled while waiting for the concurrency
// permit never simulates and never takes the permit.
func TestCancelQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrentJobs: 1})
	blocker, code := postSpec(t, ts, longSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit blocker: %d", code)
	}
	waitState(t, ts, blocker.JobID, stateRunning)
	queued, code := postSpec(t, ts, testSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit queued job: %d", code)
	}
	if code, body := del(t, ts.URL+"/v1/jobs/"+queued.JobID); code != http.StatusAccepted {
		t.Fatalf("cancel queued: %d %s", code, body)
	}
	jr := waitState(t, ts, queued.JobID, stateCancelled)
	if jr.Frac != 0 || jr.Result != nil {
		t.Errorf("queued job simulated before cancel: %+v", jr)
	}
	del(t, ts.URL+"/v1/jobs/"+blocker.JobID)
	waitState(t, ts, blocker.JobID, stateCancelled)
	if s.Simulated() != 0 {
		t.Errorf("cancelled jobs counted as simulated")
	}
}

// TestCancelDoneConflicts: cancelling a finished job is refused with 409
// and does not disturb its result.
func TestCancelDoneConflicts(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sub, code := postSpec(t, ts, testSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitDone(t, ts, sub.JobID)
	if code, _ := del(t, ts.URL+"/v1/jobs/"+sub.JobID); code != http.StatusConflict {
		t.Errorf("cancel done job: status %d, want 409", code)
	}
	var jr jobResponse
	getJSON(t, ts.URL+"/v1/jobs/"+sub.JobID, &jr)
	if jr.Status != string(stateDone) || jr.Result == nil {
		t.Errorf("done job disturbed by cancel attempt: %+v", jr)
	}
	if code, _ := del(t, ts.URL+"/v1/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("cancel unknown job: status %d, want 404", code)
	}
}

// TestFailCarriesFrac pins the lifecycle bugfix: a job that fails after
// reporting progress keeps its last observed fraction in the terminal
// event and the status reply, instead of resetting to 0.
func TestFailCarriesFrac(t *testing.T) {
	j := &job{id: "j1", outcome: outcome{state: stateRunning}, notify: make(chan struct{})}
	j.publish(metrics.Progress{Frac: 0.4})
	j.publish(metrics.Progress{Frac: 0.9})
	j.terminal(failed(errGone))
	snap := j.snapshot()
	if snap.state != stateFailed || snap.errMsg != errGone.Error() {
		t.Fatalf("snapshot %+v", snap)
	}
	last := snap.events[len(snap.events)-1]
	if !last.Done || last.Frac != 0.9 {
		t.Fatalf("terminal event %+v, want Done with Frac 0.9", last)
	}
	if snap.result != nil {
		t.Errorf("failed job carries a result")
	}
}

var errGone = errors.New("engine exploded at 90%")

// TestSnapshotConsistency: state, result and error always travel
// together — a done snapshot has a result, a failed one an error, and a
// running one neither.
func TestSnapshotConsistency(t *testing.T) {
	j := &job{id: "j1", outcome: outcome{state: stateRunning}, notify: make(chan struct{})}
	if snap := j.snapshot(); snap.result != nil || snap.errMsg != "" {
		t.Fatalf("running snapshot carries outcome: %+v", snap)
	}
	j.terminal(finished(&Result{Seeds: []int64{1}, PerSeed: []metrics.Summary{{}}}, nil, nil))
	snap := j.snapshot()
	if snap.state != stateDone || snap.result == nil || snap.errMsg != "" {
		t.Fatalf("done snapshot inconsistent: %+v", snap)
	}
	if last := snap.events[len(snap.events)-1]; !last.Done || last.Frac != 1 || last.Summary == nil {
		t.Fatalf("done terminal event %+v", last)
	}
}
