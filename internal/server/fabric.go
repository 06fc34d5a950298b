package server

// The distributed sweep fabric: a coordinator-mode dtnd fans accepted
// jobs out to a fleet of ordinary worker daemons over the existing job
// API — POST /v1/jobs, the NDJSON progress stream, DELETE for cancel —
// so a worker is just a dtnd that never heard of the fleet. Content
// addressing makes cells location-transparent: the coordinator submits
// the spec, the worker derives the same cache key, and any worker's
// cached result or recorded trace serves the whole fleet through the
// store's remote pull-through tier (GET /v1/results/{key},
// GET /v1/traces/{key} — both serve local-only, so probes cannot
// recurse).
//
// Dispatch is unit-based: experiment.Plan folds the cells of one trace
// group (record-then-replay) into a single unit so the recording and its
// replays land on one worker's store; everything else is a singleton
// unit. Each worker runs `inflight` runner goroutines
// that pull units off one shared queue — idle workers steal work by
// construction. An infrastructure failure (connect error, broken
// stream, 5xx) marks the worker down and requeues the unit's remaining
// jobs for any healthy worker (work stealing); a heartbeat probing
// /v1/healthz revives workers and reaps cancelled queued jobs.
// Deterministic job failures (the worker ran the spec and it failed)
// are never retried — a bad spec fails everywhere.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/resultcache"
)

const (
	defaultWorkerInflight = 2
	defaultHeartbeat      = time.Second
	// maxUnitAttempts bounds how many workers a dispatch unit may die on
	// before its remaining jobs fail: attempts are burned only by
	// infrastructure failures, so exhausting them means several distinct
	// workers were lost mid-unit.
	maxUnitAttempts = 3
	// maxRemoteEntryBytes bounds one fetched result or trace blob — a
	// corrupt or malicious peer cannot balloon the coordinator's memory.
	maxRemoteEntryBytes = 64 << 20
)

// fleetWorker is one registered worker daemon and its dispatch counters.
type fleetWorker struct {
	url string // base URL, no trailing slash

	healthy    atomic.Bool
	dispatched atomic.Int64 // jobs handed to this worker
	completed  atomic.Int64 // jobs that reached done via this worker
	failures   atomic.Int64 // infrastructure failures observed on it
	steals     atomic.Int64 // requeued units this worker picked up
}

// dispatchUnit is the scheduling granule: jobs that must run on one
// worker sequentially (a trace group's record-then-replay chain), or a
// single job. attempts counts workers the unit has died on; stolen marks
// a requeue, so the next worker to pick it up counts a steal.
type dispatchUnit struct {
	jobs     []*job
	attempts int
	stolen   bool
}

// fleet is the coordinator's dispatcher: the worker registry, the shared
// unit queue, the per-worker runner pools and the heartbeat.
type fleet struct {
	s         *Server
	client    *http.Client
	heartbeat time.Duration
	inflight  int

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*dispatchUnit
	closed  bool
	workers []*fleetWorker

	retries atomic.Int64 // units requeued after an infrastructure failure
	cached  atomic.Int64 // jobs satisfied from the tiered store at dispatch
}

// newFleet builds and starts the dispatcher: inflight runners per worker
// plus the heartbeat. Workers start optimistically healthy so dispatch
// works regardless of boot order; the first failure marks a worker down
// and the heartbeat revives it.
func newFleet(s *Server, cfg Config) *fleet {
	f := &fleet{
		s:         s,
		client:    &http.Client{},
		heartbeat: cfg.Heartbeat,
		inflight:  cfg.WorkerInflight,
	}
	if f.heartbeat <= 0 {
		f.heartbeat = defaultHeartbeat
	}
	if f.inflight <= 0 {
		f.inflight = defaultWorkerInflight
	}
	f.cond = sync.NewCond(&f.mu)
	f.ctx, f.cancel = context.WithCancel(context.Background())
	for _, u := range cfg.Workers {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			continue
		}
		w := &fleetWorker{url: u}
		w.healthy.Store(true)
		f.workers = append(f.workers, w)
	}
	for _, w := range f.workers {
		for i := 0; i < f.inflight; i++ {
			f.wg.Add(1)
			go f.runner(w)
		}
	}
	f.wg.Add(1)
	go f.heartbeatLoop()
	return f
}

// close stops the runners and heartbeat, then fails whatever the queue
// still holds so no accepted job is left un-terminal. Call after Drain —
// a drained server has an empty queue and this is pure goroutine
// cleanup.
func (f *fleet) close() {
	f.cancel()
	f.mu.Lock()
	f.closed = true
	rest := f.queue
	f.queue = nil
	f.mu.Unlock()
	f.cond.Broadcast()
	f.wg.Wait()
	for _, u := range rest {
		for _, j := range u.jobs {
			if j.ctx.Err() != nil {
				f.s.end(j, cancelled)
			} else {
				f.s.end(j, failed(errors.New("fleet shut down")))
			}
		}
	}
}

// healthyWorkerURLs lists the workers the store's remote tier may probe.
func (f *fleet) healthyWorkerURLs() []string {
	var urls []string
	for _, w := range f.workers {
		if w.healthy.Load() {
			urls = append(urls, w.url)
		}
	}
	return urls
}

// enqueue adds dispatch units and wakes idle runners.
func (f *fleet) enqueue(units []*dispatchUnit) {
	var orphans []*job
	f.mu.Lock()
	if f.closed {
		for _, u := range units {
			orphans = append(orphans, u.jobs...)
		}
	} else {
		f.queue = append(f.queue, units...)
	}
	f.mu.Unlock()
	f.cond.Broadcast()
	for _, j := range orphans {
		f.s.end(j, failed(errors.New("fleet shut down")))
	}
}

// queueDepth reports units waiting for a worker (the /metrics gauge).
func (f *fleet) queueDepth() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.queue)
}

// runner is one dispatch slot on one worker: pull a unit, run it, repeat
// until the fleet closes. A runner whose worker is down does not pull —
// its share of the queue flows to the healthy workers' runners.
func (f *fleet) runner(w *fleetWorker) {
	defer f.wg.Done()
	for {
		u := f.next(w)
		if u == nil {
			return
		}
		if u.stolen {
			w.steals.Add(1)
		}
		f.runUnit(w, u)
	}
}

// next blocks until a unit is available and this runner's worker is
// healthy, or the fleet closes (nil).
func (f *fleet) next(w *fleetWorker) *dispatchUnit {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.closed {
			return nil
		}
		if w.healthy.Load() && len(f.queue) > 0 {
			u := f.queue[0]
			f.queue = f.queue[1:]
			return u
		}
		f.cond.Wait()
	}
}

// runUnit executes a unit's jobs in order on one worker. Jobs cancelled
// while queued terminate without dispatch; jobs the tiered store can
// already serve (a retry whose first attempt completed, an overlapping
// sweep's cell) finish without dispatch. An infrastructure failure marks
// the worker down and requeues the unit's unfinished tail for the rest
// of the fleet.
func (f *fleet) runUnit(w *fleetWorker, u *dispatchUnit) {
	s := f.s
	for idx, j := range u.jobs {
		if j.ctx.Err() != nil {
			s.end(j, cancelled)
			continue
		}
		if res, raw, ok := s.store.GetRawLocal(j.key); ok && experiment.ServesSpec(res, j.spec) {
			f.cached.Add(1)
			s.end(j, finished(res, raw, nil))
			continue
		}
		s.queueWait.Observe(time.Since(j.accepted).Seconds())
		w.dispatched.Add(1)
		o, err := f.runRemote(w, j)
		if err == nil {
			s.end(j, o)
			continue
		}
		if j.ctx.Err() != nil {
			// The dispatch broke because the job was cancelled (or was
			// cancelled while broken) — that is a resolution, not a retry.
			s.end(j, cancelled)
			continue
		}
		w.failures.Add(1)
		if w.healthy.Swap(false) {
			s.log.Warn("fleet worker down", "worker", w.url, "err", err)
		}
		rest := u.jobs[idx:]
		if u.attempts+1 >= maxUnitAttempts {
			s.log.Error("fleet unit failed", "worker", w.url, "jobs", len(rest), "attempts", u.attempts+1, "err", err)
			for _, jj := range rest {
				if jj.ctx.Err() != nil {
					s.end(jj, cancelled)
				} else {
					s.end(jj, failed(fmt.Errorf("fleet: %d dispatch attempts failed, last on %s: %v", u.attempts+1, w.url, err)))
				}
			}
			return
		}
		f.retries.Add(1)
		s.log.Warn("fleet unit requeued", "worker", w.url, "jobs", len(rest), "attempt", u.attempts+1, "err", err)
		f.mu.Lock()
		f.queue = append(f.queue, &dispatchUnit{jobs: rest, attempts: u.attempts + 1, stolen: true})
		f.mu.Unlock()
		f.cond.Broadcast()
		return
	}
}

// runRemote drives one job through one worker: submit the spec, mirror
// the worker's NDJSON progress into the local job (so streams, sweeps
// and status replies work unchanged), then return the worker's outcome
// for the caller to end the job with. An error means the worker
// infrastructure failed and the caller should retry the job elsewhere.
func (f *fleet) runRemote(w *fleetWorker, j *job) (outcome, error) {
	j.setState(stateRunning)
	// The plain marshal keeps every resolved field the sweep layer set —
	// notably Trace="auto" from experiment.Plan, which the canonical
	// (key-defining) encoding deliberately strips. The worker re-derives
	// the same cache key because trace never enters it.
	body, err := json.Marshal(j.spec)
	if err != nil {
		return failed(err), nil
	}
	sctx, scancel := context.WithTimeout(j.ctx, 30*time.Second)
	resp, err := f.do(sctx, http.MethodPost, w.url+"/v1/jobs", body)
	scancel()
	if err != nil {
		return outcome{}, fmt.Errorf("submit: %w", err)
	}
	reply, raw, err := readJSON[submitResponse](resp)
	if err != nil {
		return outcome{}, fmt.Errorf("submit: %w", err)
	}
	switch {
	case resp.StatusCode == http.StatusBadRequest:
		// The worker rejected a spec the coordinator validated: version
		// skew, not infrastructure. Failing is deterministic — no retry.
		return failed(fmt.Errorf("worker %s rejected spec: %s", w.url, errBody(raw))), nil
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		return outcome{}, fmt.Errorf("submit: worker answered %d: %s", resp.StatusCode, errBody(raw))
	}
	if reply.Key != "" && reply.Key != j.key {
		// Key skew means the two daemons resolve specs differently —
		// results would be mis-addressed fleet-wide. Fail loudly.
		return failed(fmt.Errorf("worker %s derived key %s for %s (version skew?)", w.url, reply.Key, j.key)), nil
	}
	if reply.Cached && reply.Result != nil {
		return f.finishFromResult(w, j, nil)
	}
	if reply.JobID == "" {
		return outcome{}, fmt.Errorf("submit: worker answered %d with no job id", resp.StatusCode)
	}
	return f.followStream(w, j, reply.JobID)
}

// followStream mirrors the worker's NDJSON progress into the local job
// until its terminal line, then returns the outcome that matches it. The
// stream request runs under j.ctx, so a local cancel (DELETE on the
// coordinator, sweep cancel) tears the stream down immediately and is
// propagated to the worker as a DELETE.
func (f *fleet) followStream(w *fleetWorker, j *job, remoteID string) (outcome, error) {
	req, err := http.NewRequestWithContext(j.ctx, http.MethodGet, w.url+"/v1/jobs/"+remoteID+"/stream", nil)
	if err != nil {
		return outcome{}, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		if j.ctx.Err() != nil {
			f.cancelRemote(w, remoteID)
		}
		return outcome{}, fmt.Errorf("stream: %w", err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return outcome{}, fmt.Errorf("stream: worker answered %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var p metrics.Progress
		if err := dec.Decode(&p); err != nil {
			if j.ctx.Err() != nil {
				f.cancelRemote(w, remoteID)
				return cancelled, nil
			}
			return outcome{}, fmt.Errorf("stream broke: %w", err)
		}
		if !p.Done {
			f.s.m.progressEvents.Add(1)
			j.publish(p)
			continue
		}
		switch {
		case p.Error == "cancelled":
			if j.ctx.Err() != nil {
				return cancelled, nil
			}
			// The worker cancelled a job nobody here cancelled — it is
			// restarting or drained mid-run. Retry elsewhere.
			return outcome{}, errors.New("worker cancelled the job unilaterally")
		case p.Error != "":
			return failed(errors.New(p.Error)), nil
		default:
			return f.finishFromResult(w, j, p.Timing)
		}
	}
}

// finishFromResult completes a local job from the worker's cached result
// bytes: fetch GET /v1/results/{key}, persist into the local store
// (pull-through — later sweeps and peers are served from here), and
// return the exact bytes as the outcome. Fetch failures are
// infrastructure errors: the worker computed and cached the result, so
// a retry is a cache hit away.
func (f *fleet) finishFromResult(w *fleetWorker, j *job, tm *obs.Timing) (outcome, error) {
	raw, err := fetchEntry(f.client, w.url+"/v1/"+resultcache.Results+"/"+j.key, 30*time.Second)
	if err != nil {
		return outcome{}, fmt.Errorf("fetch result: %w", err)
	}
	res, err := resultcache.DecodeResult(j.key, raw)
	if err != nil {
		return outcome{}, fmt.Errorf("fetch result: worker %s served corrupt bytes: %w", w.url, err)
	}
	if err := f.s.store.PutEncoded(j.key, raw); err != nil {
		f.s.log.Warn("fleet: persist pulled result", "key", j.key, "err", err)
	}
	w.completed.Add(1)
	return finished(res, raw, tm), nil
}

// cancelRemote propagates a local cancellation to the worker,
// best-effort: the job context is already dead, so this uses its own
// short deadline.
func (f *fleet) cancelRemote(w *fleetWorker, remoteID string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := f.do(ctx, http.MethodDelete, w.url+"/v1/jobs/"+remoteID, nil)
	if err != nil {
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// heartbeatLoop probes every worker's /v1/healthz on a fixed cadence —
// reviving workers marked down by a failed dispatch, retiring drained
// ones (readiness answers 503 while draining) — and reaps cancelled jobs
// still waiting in the queue, so cluster-wide cancellation resolves even
// with every worker dead.
func (f *fleet) heartbeatLoop() {
	defer f.wg.Done()
	t := time.NewTicker(f.heartbeat)
	defer t.Stop()
	for {
		select {
		case <-f.ctx.Done():
			return
		case <-t.C:
		}
		f.probeAll()
		f.reapCancelled()
	}
}

// probeAll checks each worker's readiness endpoint once. The probe
// deadline is floored well above short heartbeat cadences so a worker
// that is merely busy (CPU-saturated by its own jobs) is not mistaken
// for a dead one.
func (f *fleet) probeAll() {
	probeTimeout := f.heartbeat
	if probeTimeout < 500*time.Millisecond {
		probeTimeout = 500 * time.Millisecond
	}
	for _, w := range f.workers {
		ctx, cancel := context.WithTimeout(f.ctx, probeTimeout)
		resp, err := f.do(ctx, http.MethodGet, w.url+"/v1/healthz", nil)
		ok := err == nil && resp.StatusCode == http.StatusOK
		if resp != nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
		}
		cancel()
		was := w.healthy.Swap(ok)
		switch {
		case ok && !was:
			f.s.log.Info("fleet worker revived", "worker", w.url)
			f.cond.Broadcast()
		case !ok && was:
			f.s.log.Warn("fleet worker down", "worker", w.url)
		}
	}
}

// reapCancelled terminates queued jobs whose context died while they
// waited for a worker.
func (f *fleet) reapCancelled() {
	var dead []*job
	f.mu.Lock()
	live := f.queue[:0]
	for _, u := range f.queue {
		keep := u.jobs[:0]
		for _, j := range u.jobs {
			if j.ctx.Err() != nil {
				dead = append(dead, j)
			} else {
				keep = append(keep, j)
			}
		}
		u.jobs = keep
		if len(u.jobs) > 0 {
			live = append(live, u)
		}
	}
	f.queue = live
	f.mu.Unlock()
	for _, j := range dead {
		f.s.end(j, cancelled)
	}
}

// do issues one request with a JSON body (if any) through the fleet's
// shared client.
func (f *fleet) do(ctx context.Context, method, url string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = strings.NewReader(string(body))
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return f.client.Do(req)
}

// fetchEntry GETs one bounded entry (result JSON or trace blob) within
// timeout.
func fetchEntry(client *http.Client, url string, timeout time.Duration) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		return nil, fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxRemoteEntryBytes))
}

// readJSON decodes a bounded response body into T, returning the raw
// bytes alongside for error reporting.
func readJSON[T any](resp *http.Response) (T, []byte, error) {
	var v T
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxRemoteEntryBytes))
	resp.Body.Close()
	if err != nil {
		return v, nil, err
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return v, data, fmt.Errorf("decode reply: %w", err)
	}
	return v, data, nil
}

// errBody extracts the {"error": ...} message from a reply, falling back
// to a clipped raw body.
func errBody(raw []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	s := strings.TrimSpace(string(raw))
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// remoteTier adapts the fleet (and any statically configured peers) to
// resultcache.Remote: on a local store miss, probe each peer's local-only
// serving route for the entry kind in order and return the first hit.
// The coordinator's peer list is its healthy workers plus Config.Peers; a
// plain worker configured with -peers probes those.
type remoteTier struct {
	client *http.Client
	peers  func() []string
}

func (rt *remoteTier) Fetch(kind, key string) ([]byte, bool) {
	for _, base := range rt.peers() {
		if data, err := fetchEntry(rt.client, base+"/v1/"+kind+"/"+key, 10*time.Second); err == nil {
			return data, true
		}
	}
	return nil, false
}

// workerStatus is one row of GET /v1/workers: a worker's health and
// dispatch counters.
type workerStatus struct {
	URL        string `json:"url"`
	Healthy    bool   `json:"healthy"`
	Dispatched int64  `json:"dispatched"`
	Completed  int64  `json:"completed"`
	Failures   int64  `json:"failures"`
	Steals     int64  `json:"steals"`
}

// handleWorkers serves GET /v1/workers: the fleet registry (coordinator
// mode only — a plain worker answers 404).
func (s *Server) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	if s.fleet == nil {
		writeErr(w, http.StatusNotFound, errors.New("not a coordinator"))
		return
	}
	rows := make([]workerStatus, 0, len(s.fleet.workers))
	for _, fw := range s.fleet.workers {
		rows = append(rows, workerStatus{
			URL:        fw.url,
			Healthy:    fw.healthy.Load(),
			Dispatched: fw.dispatched.Load(),
			Completed:  fw.completed.Load(),
			Failures:   fw.failures.Load(),
			Steals:     fw.steals.Load(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"workers":     rows,
		"queue_depth": s.fleet.queueDepth(),
	})
}

// startJobs launches accepted jobs, grouped into the dispatch units admit
// mapped from the plan: on the local engine every job runs on its own,
// and on a coordinator each unit is dispatched whole, so a
// record-then-replay chain stays on one worker's store while independent
// cells scatter across the fleet. Followers neither run nor dispatch:
// on either, Server.follow serves each from the job it follows.
func (s *Server) startJobs(units [][]*job) {
	var dus []*dispatchUnit
	for _, u := range units {
		var dispatch []*job
		for _, j := range u {
			switch {
			case j.follows != nil: // served locally from the job it follows
				go s.run(j, s.follow)
			case s.fleet == nil:
				go s.run(j, s.runJob)
			default:
				dispatch = append(dispatch, j)
			}
		}
		if len(dispatch) > 0 {
			dus = append(dus, &dispatchUnit{jobs: dispatch})
		}
	}
	if len(dus) > 0 {
		s.fleet.enqueue(dus)
	}
}
