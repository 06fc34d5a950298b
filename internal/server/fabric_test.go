package server

// Fabric acceptance tests: an in-process coordinator driving in-process
// worker daemons over real HTTP. Workers listen on real sockets (not
// httptest) so a test can kill one abruptly — http.Server.Close drops
// the listener and every live connection, which is what a crashed worker
// looks like from the coordinator's side. All servers share one process,
// so per-daemon attribution uses each Server's own counters
// (Simulated(), store stats), never the process-wide experiment atomics.

import (
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

// workerProc is one in-process worker daemon on a real listener.
type workerProc struct {
	srv      *Server
	url      string
	cacheDir string
	stop     func() // abrupt kill: listener and all connections drop
}

func startWorker(t *testing.T, cfg Config) *workerProc {
	t.Helper()
	if cfg.CacheDir == "" {
		cfg.CacheDir = t.TempDir()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			hs.Close()
		}
	}
	t.Cleanup(stop)
	return &workerProc{srv: srv, url: "http://" + ln.Addr().String(), cacheDir: cfg.CacheDir, stop: stop}
}

// newCoordinator builds a coordinator over the given workers, with a
// fast heartbeat so down/revive/reap transitions resolve in test time.
func newCoordinator(t *testing.T, cfg Config, workerURLs ...string) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Workers = workerURLs
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = 50 * time.Millisecond
	}
	if cfg.Logger == nil && testing.Verbose() {
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	s, ts := newTestServer(t, cfg)
	t.Cleanup(s.Close) // runs before ts.Close: dispatcher stops first
	return s, ts
}

// fabricSweep expands to 8 cells: 4 distinct worlds (nodes axis) × 2
// protocols sharing each world. markTraceGroups marks the pairs "auto",
// so placement must keep each pair on one worker (record then replay)
// while the 4 worlds scatter across the fleet.
const fabricSweep = `{
	"base": {"preset": "quick", "nodes": 16, "duration": 400, "seeds": [1, 2]},
	"protocols": ["EER", "CR"],
	"nodes": [12, 16, 20, 24]
}`

// TestFabricSweep is the tentpole acceptance: a 3-worker fleet completes
// a sweep with zero duplicate simulations, the resubmitted sweep is
// fully cache-served, and a fresh coordinator with an empty store is
// served entirely by remote pull-through from the workers' caches.
func TestFabricSweep(t *testing.T) {
	var ws []*workerProc
	var urls []string
	for i := 0; i < 3; i++ {
		w := startWorker(t, Config{})
		ws = append(ws, w)
		urls = append(urls, w.url)
	}
	coord, ts := newCoordinator(t, Config{}, urls...)

	sr, code := postSweep(t, ts, fabricSweep)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("sweep submit status %d: %+v", code, sr)
	}
	if sr.CellsTotal != 8 || sr.CellsCached != 0 {
		t.Fatalf("expected 8 fresh cells, got %+v", sr)
	}
	final := waitSweepState(t, ts, sr.SweepID, stateDone)
	for _, c := range final.Cells {
		if c.Status != string(stateDone) || c.Mean == nil {
			t.Fatalf("cell %s: %+v", c.Key, c)
		}
	}

	// Zero duplicates fleet-wide: every unique cell simulated exactly
	// once, across the whole fleet, and never on the coordinator.
	var simulated int64
	busy := 0
	for _, w := range ws {
		n := w.srv.Simulated()
		simulated += n
		if n > 0 {
			busy++
		}
	}
	if simulated != 8 {
		t.Errorf("fleet simulated %d jobs, want exactly 8 (zero duplicates)", simulated)
	}
	if coord.Simulated() != 0 {
		t.Errorf("coordinator simulated %d jobs itself", coord.Simulated())
	}
	// 4 independent units across 3 workers with 2 runner slots each: the
	// work cannot all land on one worker unless the others were idle the
	// whole time, which the shared queue forbids while units are waiting.
	if busy < 2 {
		t.Errorf("only %d of 3 workers simulated anything", busy)
	}

	// Dispatch accounting: 8 jobs dispatched, every one completed, no
	// retries, and the aggregate matches /v1/workers.
	m := scrapeMetrics(t, ts)
	if m["dtnd_fleet_retries_total"] != 0 {
		t.Errorf("retries = %g on a healthy fleet", m["dtnd_fleet_retries_total"])
	}
	if m["dtnd_fleet_workers_healthy"] != 3 {
		t.Errorf("healthy workers = %g", m["dtnd_fleet_workers_healthy"])
	}
	var wl struct {
		Workers []workerStatus `json:"workers"`
	}
	getJSON(t, ts.URL+"/v1/workers", &wl)
	var dispatched, completed int64
	for _, row := range wl.Workers {
		dispatched += row.Dispatched
		completed += row.Completed
	}
	if dispatched != 8 || completed != 8 {
		t.Errorf("fleet dispatched %d / completed %d, want 8/8 (%+v)", dispatched, completed, wl.Workers)
	}

	// Resubmit on the same coordinator: every cell was pulled through
	// into its local store at completion, so the sweep is served whole
	// with no new work anywhere.
	sr2, code2 := postSweep(t, ts, fabricSweep)
	if code2 != http.StatusOK || sr2.Status != string(stateDone) || sr2.CellsCached != 8 {
		t.Fatalf("resubmit not fully cached: code %d, %+v", code2, sr2)
	}

	// A fresh coordinator with an empty store, same fleet: the cache
	// pass pulls all 8 cells from the workers' stores — 100%
	// cache-served from any worker, still zero new simulations.
	_, ts3 := newCoordinator(t, Config{}, urls...)
	sr3, code3 := postSweep(t, ts3, fabricSweep)
	if code3 != http.StatusOK || sr3.Status != string(stateDone) || sr3.CellsCached != 8 {
		t.Fatalf("fresh coordinator not fully cache-served: code %d, %+v", code3, sr3)
	}
	m3 := scrapeMetrics(t, ts3)
	if m3["dtnd_cache_remote_hits_total"] != 8 {
		t.Errorf("fresh coordinator remote hits = %g, want 8", m3["dtnd_cache_remote_hits_total"])
	}
	var total int64
	for _, w := range ws {
		total += w.srv.Simulated()
	}
	if total != 8 {
		t.Errorf("fleet simulated %d after cached resubmits, want still 8", total)
	}
}

// TestFabricWorkerDeadOnArrival: a worker that died before the first
// dispatch is marked down on its first failure (or heartbeat) and the
// fleet completes the work on the survivors.
func TestFabricWorkerDeadOnArrival(t *testing.T) {
	dead := startWorker(t, Config{})
	live := startWorker(t, Config{})
	dead.stop()
	_, ts := newCoordinator(t, Config{}, dead.url, live.url)

	sub, code := postSpec(t, ts, testSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitDone(t, ts, sub.JobID)
	if live.srv.Simulated() != 1 {
		t.Errorf("survivor simulated %d jobs, want 1", live.srv.Simulated())
	}
}

// TestFabricWorkerLossMidRun: killing the worker that is streaming a
// running job breaks the stream, marks the worker down, and the unit is
// stolen by the survivor, which completes the job.
func TestFabricWorkerLossMidRun(t *testing.T) {
	a := startWorker(t, Config{})
	b := startWorker(t, Config{})
	// The killed worker's job keeps simulating in-process; end it (and
	// the survivor's) before the workers' cache TempDirs are removed, or
	// its late store write recreates them.
	stopJobsOnCleanup(t, a.srv)
	stopJobsOnCleanup(t, b.srv)
	_, ts := newCoordinator(t, Config{}, a.url, b.url)

	// Long enough to reliably catch mid-run (the poll below finds it in
	// tens of milliseconds), short enough that the survivor's re-run
	// finishes well inside waitDone's deadline even while the killed
	// worker's in-process zombie job keeps burning CPU.
	const midSpec = `{"protocol": "MaxProp", "nodes": 120, "duration": 4000, "seeds": [1, 2]}`
	sub, code := postSpec(t, ts, midSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	// Find the worker actually running it and kill that one.
	victim, survivor := a, b
	deadline := time.Now().Add(60 * time.Second)
	for {
		var jl jobListResponse
		getJSON(t, a.url+"/v1/jobs", &jl)
		if len(jl.Jobs) > 0 && jl.Jobs[0].Status == string(stateRunning) {
			break
		}
		getJSON(t, b.url+"/v1/jobs", &jl)
		if len(jl.Jobs) > 0 && jl.Jobs[0].Status == string(stateRunning) {
			victim, survivor = b, a
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running on any worker")
		}
		time.Sleep(5 * time.Millisecond)
	}
	victim.stop()

	jr := waitDone(t, ts, sub.JobID)
	if jr.Result == nil {
		t.Fatal("job done without result after worker loss")
	}
	if survivor.srv.Simulated() != 1 {
		t.Errorf("survivor simulated %d jobs, want 1", survivor.srv.Simulated())
	}
	m := scrapeMetrics(t, ts)
	if m["dtnd_fleet_retries_total"] < 1 {
		t.Errorf("retries = %g, want >= 1", m["dtnd_fleet_retries_total"])
	}
}

// TestFabricWorkerRestartServesCache: a worker that computed a result,
// died, and came back on the same cache directory serves the whole
// fleet from its store — a fresh coordinator's submission is a remote
// cache hit, zero simulations anywhere.
func TestFabricWorkerRestartServesCache(t *testing.T) {
	dir := t.TempDir()
	w := startWorker(t, Config{CacheDir: dir})

	// Compute directly on the worker (the fabric speaks the same API).
	sub, code := postSpecURL(t, w.url, testSpec)
	if code != http.StatusAccepted {
		t.Fatalf("worker submit status %d", code)
	}
	waitDoneURL(t, w.url, sub.JobID)
	w.stop()

	restarted := startWorker(t, Config{CacheDir: dir})
	coord, ts := newCoordinator(t, Config{}, restarted.url)
	got, code := postSpec(t, ts, testSpec)
	if code != http.StatusOK || !got.Cached || got.Result == nil {
		t.Fatalf("expected a pull-through cache hit, got %d %+v", code, got)
	}
	if coord.Simulated() != 0 || restarted.srv.Simulated() != 0 {
		t.Errorf("restart served %d/%d simulations, want 0/0",
			coord.Simulated(), restarted.srv.Simulated())
	}
	m := scrapeMetrics(t, ts)
	if m["dtnd_cache_remote_hits_total"] != 1 {
		t.Errorf("remote hits = %g, want 1", m["dtnd_cache_remote_hits_total"])
	}
}

// TestFabricClusterCancel: cancelling a sweep on the coordinator
// propagates to the worker running its current cell (DELETE on the
// worker's job) and reaps the cells still waiting in the dispatch
// queue, resolving the whole sweep as cancelled.
func TestFabricClusterCancel(t *testing.T) {
	w := startWorker(t, Config{})
	_, ts := newCoordinator(t, Config{WorkerInflight: 1}, w.url)

	// Three distinct long worlds: singleton units, so one runs on the
	// worker while two wait in the coordinator's dispatch queue.
	sweep := `{
		"base": {"protocol": "MaxProp", "duration": 10000, "seeds": [1, 2, 3, 4]},
		"nodes": [240, 250, 260]
	}`
	sr, code := postSweep(t, ts, sweep)
	if code != http.StatusAccepted {
		t.Fatalf("sweep submit status %d: %+v", code, sr)
	}
	// Wait until the worker is actually running a cell.
	deadline := time.Now().Add(60 * time.Second)
	for {
		var jl jobListResponse
		getJSON(t, w.url+"/v1/jobs", &jl)
		running := false
		for _, row := range jl.Jobs {
			running = running || row.Status == string(stateRunning)
		}
		if running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no cell ever ran on the worker")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if code, body := del(t, ts.URL+"/v1/sweeps/"+sr.SweepID); code != http.StatusAccepted {
		t.Fatalf("cancel status %d: %s", code, body)
	}
	final := waitSweepState(t, ts, sr.SweepID, stateCancelled)
	if final.Status != string(stateCancelled) {
		t.Fatalf("sweep final status %s", final.Status)
	}

	// The worker's in-flight job received the propagated DELETE: every
	// job on the worker reaches a terminal state, none keeps running.
	deadline = time.Now().Add(60 * time.Second)
	for {
		var jl jobListResponse
		getJSON(t, w.url+"/v1/jobs", &jl)
		live := 0
		for _, row := range jl.Jobs {
			if !terminalState(jobState(row.Status)) {
				live++
			}
		}
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker still has %d live jobs after cluster cancel", live)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if w.srv.Simulated() != 0 {
		t.Errorf("worker completed %d simulations of a cancelled sweep", w.srv.Simulated())
	}
}

// postSpecURL / waitDoneURL mirror postSpec/waitDone against a raw base
// URL (the in-process workers are not httptest servers).
func postSpecURL(t *testing.T, base, spec string) (submitResponse, int) {
	t.Helper()
	ts := &httptest.Server{URL: base}
	return postSpec(t, ts, spec)
}

func waitDoneURL(t *testing.T, base, id string) jobResponse {
	t.Helper()
	ts := &httptest.Server{URL: base}
	return waitDone(t, ts, id)
}

// TestJobListAndReadiness covers the two small API additions: the jobs
// listing with pagination, and the readiness probe flipping to 503 when
// the daemon drains.
func TestJobListAndReadiness(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	sub1, _ := postSpec(t, ts, testSpec)
	waitDone(t, ts, sub1.JobID)
	sub2, _ := postSpec(t, ts, testSweepCellSpec)
	waitDone(t, ts, sub2.JobID)

	var jl jobListResponse
	getJSON(t, ts.URL+"/v1/jobs", &jl)
	if jl.Total != 2 || len(jl.Jobs) != 2 {
		t.Fatalf("job list %+v", jl)
	}
	if jl.Jobs[0].JobID != sub1.JobID || jl.Jobs[1].JobID != sub2.JobID {
		t.Errorf("listing out of creation order: %+v", jl.Jobs)
	}
	for _, row := range jl.Jobs {
		if row.Status != string(stateDone) || row.Frac != 1 || row.Key == "" {
			t.Errorf("bad row %+v", row)
		}
	}
	var page jobListResponse
	getJSON(t, ts.URL+"/v1/jobs?offset=1&limit=1", &page)
	if page.Total != 2 || page.Offset != 1 || len(page.Jobs) != 1 || page.Jobs[0].JobID != sub2.JobID {
		t.Errorf("paginated listing %+v", page)
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs?offset=-1"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad offset answered %d", resp.StatusCode)
		}
	}

	// Readiness: 200 while serving, 503 once draining (liveness stays 200).
	for path, want := range map[string]int{"/v1/healthz": 200, "/healthz": 200} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	if err := s.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]int{"/v1/healthz": 503, "/healthz": 200} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s while draining = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestWorkersEndpointStandalone: a fleetless daemon has no registry.
func TestWorkersEndpointStandalone(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("standalone /v1/workers = %d, want 404", resp.StatusCode)
	}
}
