// Package server implements dtnd, the long-running simulation service: an
// HTTP/JSON daemon that accepts declarative scenario specs
// (experiment.ScenarioSpec) and whole parameter studies
// (experiment.SweepSpec), runs them as jobs on the shared
// GOMAXPROCS-bounded experiment pool, streams live progress as NDJSON and
// serves results from a content-addressed cache — the hash of the
// canonicalized spec addresses its summary on disk, so resubmitting a
// sweep cell costs one file read instead of a simulation.
//
// API (see DESIGN.md "Simulation service" and "Sweep jobs & cancellation"):
//
//	POST   /v1/jobs             submit a spec; returns job id or cached result
//	GET    /v1/jobs/{id}        job status (+ result when done)
//	GET    /v1/jobs/{id}/stream live NDJSON progress until the job ends
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	POST   /v1/sweeps           submit a sweep; cells reuse the cell cache
//	GET    /v1/sweeps             list sweeps (id, status, aggregate frac)
//	GET    /v1/sweeps/{id}        sweep status + per-cell result table
//	                              (?offset=N&limit=M paginates the table)
//	GET    /v1/sweeps/{id}/stream live NDJSON progress: per-cell key+frac
//	                              lines interleaved with the aggregate
//	DELETE /v1/sweeps/{id}        cancel the sweep's remaining cells
//	GET    /v1/results/{key}    cached result by content address
//	GET    /v1/presets          the named base specs
//	GET    /metrics             Prometheus text counters (see metrics.go)
//	GET    /healthz             liveness
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/resultcache"
)

// Config parameterises the daemon.
type Config struct {
	// CacheDir is the content-addressed result store. Empty disables
	// persistent caching (every submission simulates).
	CacheDir string
	// MaxCacheBytes bounds the result store's total size (0 = unbounded):
	// after every write, oldest-mtime entries are evicted until the total
	// fits, and cache hits touch their entry's mtime, so the cells a
	// repeated sweep keeps reusing stay resident.
	MaxCacheBytes int64
	// MaxConcurrentJobs bounds jobs simulating at once (default 1). Each
	// job already fans its seeds out over the shared GOMAXPROCS-bounded
	// pool, so one job saturates the machine; raise this only to
	// interleave many small jobs.
	MaxConcurrentJobs int
	// MaxQueuedJobs bounds accepted-but-not-finished jobs (default 64);
	// beyond it submissions are refused with 429. Sweep cells count
	// individually: a sweep whose uncached cells would not fit is refused
	// whole.
	MaxQueuedJobs int
	// Logger receives the daemon's structured log lines (job and sweep
	// lifecycle, each line carrying the relevant job/sweep/cell IDs). nil
	// discards them — the default for tests and embedded use.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/* on the same
	// listener. Off by default: the daemon may face untrusted clients,
	// and profiles leak timing/heap internals.
	EnablePprof bool

	// Workers turns the daemon into a coordinator: accepted jobs are
	// dispatched to these base URLs (ordinary dtnd workers, spoken to
	// over the public job API) instead of the local engine. Empty means
	// plain worker/standalone mode. See fabric.go.
	Workers []string
	// Peers are base URLs whose result stores back this daemon's store as
	// a remote pull-through tier (a coordinator's workers are probed
	// implicitly; Peers adds static extras, e.g. sibling workers).
	Peers []string
	// WorkerInflight bounds jobs dispatched concurrently per worker
	// (default 2: one running under the worker's single permit, one
	// queued behind it so the worker never idles between cells).
	WorkerInflight int
	// Heartbeat is the worker health-probe cadence (default 1s).
	Heartbeat time.Duration
}

// jobState is the lifecycle of a submitted job.
type jobState string

const (
	stateQueued    jobState = "queued"
	stateRunning   jobState = "running"
	stateDone      jobState = "done"
	stateFailed    jobState = "failed"
	stateCancelled jobState = "cancelled"
)

// terminalState reports whether st is a final lifecycle state.
func terminalState(st jobState) bool {
	return st == stateDone || st == stateFailed || st == stateCancelled
}

// job is one accepted submission. Progress events accumulate under mu;
// notify is closed and replaced on every append, so any number of
// streaming subscribers replay the history and then follow live.
// Subscribed callbacks (sweeps aggregating their cells) receive each
// event after the append, outside mu.
type job struct {
	id       string
	key      string
	spec     experiment.ScenarioSpec
	ctx      context.Context // cancelled to stop the job
	cancel   context.CancelFunc
	accepted time.Time // when the submission was queued (queue-wait metric)

	// holders counts submissions referencing this job — the direct POST
	// or owning sweep, every coalesced attach and every follower — and is
	// guarded by Server.mu. Sweep cancellation, and a follower's, releases
	// one hold and only cancels the job when none remain; DELETE
	// /v1/jobs/{id} is an explicit operator action and cancels
	// unconditionally.
	holders int

	// follows, when set, is the job whose run serves this one: the cell
	// runs the same simulation under another key (experiment.Plan's
	// SameRun), so it never simulates and ends in follows' state (see
	// Server.follow).
	follows *job

	// ended marks a job Server.end has ended, so it ends exactly once;
	// guarded by Server.mu.
	ended bool

	mu sync.Mutex
	outcome
	events []metrics.Progress
	notify chan struct{}
	subs   []func(metrics.Progress)
}

// Result is the persisted outcome of a job — the value the content
// address resolves to (resultcache.Result; the store is shared with the
// sweep/figures CLIs, so cells computed on either side serve the other).
type Result = resultcache.Result

// Server is the dtnd daemon state. Create with New; serve Handler().
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	store *resultcache.Store // nil when caching is disabled
	fleet *fleet             // nil unless coordinator mode (Config.Workers)

	mu        sync.Mutex
	jobs      map[string]*job // by job id
	active    map[string]*job // in-flight (and, with a store, retained done) jobs by cache key
	finished  []string        // finished job ids, completion order (retention ring)
	sweeps    map[string]*sweepJob
	sweepRing []string // sweep ids, creation order (retention ring)
	nextID    int
	queued    int
	draining  bool

	sem       chan struct{}  // MaxConcurrentJobs permits
	wg        sync.WaitGroup // accepted jobs not yet finished
	simulated atomic.Int64   // jobs that actually ran (cache misses)
	m         serverCounters // /metrics state (see metrics.go)
	log       *slog.Logger

	// Latency histogram families served by /metrics (see metrics.go).
	httpDur   [len(respClasses)]*obs.Histogram // request duration by response class
	queueWait *obs.Histogram                   // accepted -> permit acquired
}

// New returns a server, creating the cache directory if configured.
func New(cfg Config) (*Server, error) {
	if cfg.MaxConcurrentJobs <= 0 {
		cfg.MaxConcurrentJobs = 1
	}
	if cfg.MaxQueuedJobs <= 0 {
		cfg.MaxQueuedJobs = 64
	}
	s := &Server{
		cfg:       cfg,
		jobs:      make(map[string]*job),
		active:    make(map[string]*job),
		sweeps:    make(map[string]*sweepJob),
		sem:       make(chan struct{}, cfg.MaxConcurrentJobs),
		log:       cfg.Logger,
		queueWait: obs.NewHistogram(obs.DefaultDurationBuckets()),
	}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	for i := range s.httpDur {
		s.httpDur[i] = obs.NewHistogram(obs.DefaultDurationBuckets())
	}
	if cfg.CacheDir != "" {
		st, err := resultcache.Open(cfg.CacheDir, cfg.MaxCacheBytes)
		if err != nil {
			return nil, fmt.Errorf("server: cache dir: %w", err)
		}
		s.store = st
	}
	if len(cfg.Workers) > 0 {
		s.fleet = newFleet(s, cfg)
	}
	// Back the local store with the fleet's stores: on a local miss, the
	// coordinator probes its healthy workers (plus any static peers), a
	// plain worker probes its configured peers. Pull-through persists
	// fetches locally, so any daemon's cached cell or recorded trace
	// serves the whole fleet exactly once over the wire.
	if s.store != nil && (s.fleet != nil || len(cfg.Peers) > 0) {
		peers := make([]string, 0, len(cfg.Peers))
		for _, p := range cfg.Peers {
			if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" {
				peers = append(peers, p)
			}
		}
		s.store.SetRemote(&remoteTier{client: &http.Client{}, peers: func() []string {
			var urls []string
			if s.fleet != nil {
				urls = s.fleet.healthyWorkerURLs()
			}
			return append(urls, peers...)
		}})
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweep)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/stream", s.handleSweepStream)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancelSweep)
	s.mux.HandleFunc("GET /v1/results/{key}", s.handleResult)
	s.mux.HandleFunc("GET /v1/traces/{key}", s.handleTrace)
	s.mux.HandleFunc("GET /v1/workers", s.handleWorkers)
	s.mux.HandleFunc("GET /v1/presets", s.handlePresets)
	s.mux.HandleFunc("GET /v1/sweeps", s.handleSweepList)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /v1/healthz", s.handleReady)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Handler returns the HTTP handler (also usable under httptest): the
// route mux wrapped in the request-duration middleware.
func (s *Server) Handler() http.Handler { return s.timed(s.mux) }

// respClasses are the response classes the duration histogram is
// partitioned by; classIdx maps a status code onto them.
var respClasses = [4]string{"2xx", "3xx", "4xx", "5xx"}

func classIdx(status int) int {
	switch {
	case status < 300:
		return 0
	case status < 400:
		return 1
	case status < 500:
		return 2
	default:
		return 3
	}
}

// statusWriter captures the response status for the duration histogram.
// It passes Flush through — the NDJSON streaming endpoints type-assert
// http.Flusher on the writer they are handed.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// timed is the request-duration middleware: every request lands in the
// histogram of its response class, long-lived NDJSON streams included
// (they book their full lifetime — the histogram's +Inf bucket absorbs
// them rather than skewing the finite buckets).
func (s *Server) timed(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		s.httpDur[classIdx(status)].Observe(time.Since(start).Seconds())
	})
}

// Simulated returns how many jobs ran a simulation (cache misses) — the
// observability hook the cache tests assert on.
func (s *Server) Simulated() int64 { return s.simulated.Load() }

// Drain stops accepting jobs and waits until every accepted job has
// finished (queued jobs still run — they were acknowledged), or until ctx
// expires. It is the graceful-shutdown half; closing the listener is the
// caller's (ListenAndServe's) other half.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

// Close releases the server's background resources — in coordinator mode
// the fleet's runner and heartbeat goroutines. Call after Drain (a
// drained coordinator's dispatch queue is empty); a fleetless server
// no-ops.
func (s *Server) Close() {
	if s.fleet != nil {
		s.fleet.close()
	}
}

// submitResponse is the POST /v1/jobs reply.
type submitResponse struct {
	JobID  string  `json:"job_id,omitempty"`
	Key    string  `json:"key"`
	Status string  `json:"status"`
	Cached bool    `json:"cached"`
	Result *Result `json:"result,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	spec, err := experiment.ParseSpec(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	key, err := spec.CacheKey() // resolves and validates the spec
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}

	s.m.submissions.Add(1)
	adm, units, code, err := s.admit([]experiment.SweepCell{{Spec: spec, Key: key}})
	if err != nil {
		s.m.submitRejected.Add(1)
		writeErr(w, code, err)
		return
	}
	a := adm[0]
	switch {
	case a.cached != nil:
		// Served without a job. A store hit splices the file's bytes
		// verbatim — one file read, zero JSON marshalling.
		s.m.submitHits.Add(1)
		s.log.Debug("job cache hit", "key", key)
		if a.raw != nil {
			writeCachedResult(w, a.from, key, a.raw)
		} else {
			writeJSON(w, http.StatusOK, submitResponse{JobID: a.from, Key: key, Status: string(stateDone), Cached: true, Result: a.cached})
		}
	case !a.started:
		s.m.submitCoalesced.Add(1)
		s.log.Debug("job coalesced", "job", a.job.id, "key", key)
		writeJSON(w, http.StatusOK, submitResponse{JobID: a.job.id, Key: key, Status: string(a.state)})
	default:
		s.log.Info("job accepted", "job", a.job.id, "key", key)
		s.startJobs(units)
		writeJSON(w, http.StatusAccepted, submitResponse{JobID: a.job.id, Key: key, Status: string(stateQueued)})
	}
}

// admitted is one submitted cell's admission: the ref a sweep keeps, plus
// what a single-job reply needs.
type admitted struct {
	sweepCellRef
	raw     []byte   // cached's encoded bytes, when it has them
	from    string   // the done in-flight job whose snapshot is cached
	started bool     // this cell created its job
	state   jobState // job's state when the cell attached to it
}

// admit is the one admission path of POST /v1/jobs and POST /v1/sweeps.
// experiment.Plan reads the store before s.mu is taken; then one pass
// under the lock settles each to-run key: attach to a live job, take a
// done job's snapshot result, or become a new job. A cancelled or failed
// job will never serve the key, so it queues fresh. A new job whose cell
// shares the run of an earlier cell (SameRun) follows the job serving
// that cell and holds it. Duplicates follow their primary cell, and
// every cell bound to a job holds it once. The submission is refused
// whole — 503 while draining unless every cell is store-cached, 429 when
// its new jobs do not fit the queue — with the status in code. units are
// the plan's dispatch units mapped onto the new jobs, for startJobs once
// the caller has published them.
func (s *Server) admit(cells []experiment.SweepCell) (adm []admitted, units [][]*job, code int, err error) {
	plan := experiment.Plan(cells, s.store)
	adm = make([]admitted, len(cells))
	allCached := true
	for i, pc := range plan.Cells {
		adm[i].cell, adm[i].cached, adm[i].raw = pc.Cell, pc.Cached, pc.Raw
		allCached = allCached && pc.Cached != nil
	}
	if allCached {
		return adm, nil, 0, nil // no queue slot needed: served even while draining
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, nil, http.StatusServiceUnavailable, errors.New("server draining, not accepting jobs")
	}
	var fresh []int
	serving := make([]*job, len(cells)) // the job serving each to-run cell
	for i, pc := range plan.Cells {
		if !pc.ToRun() {
			continue
		}
		if j := s.active[pc.Cell.Key]; j != nil && j.ctx.Err() == nil {
			switch snap := j.snapshot(); {
			case !terminalState(snap.state):
				adm[i].job, adm[i].state, serving[i] = j, snap.state, j
				continue
			case snap.state == stateDone && snap.result != nil:
				adm[i].cached, adm[i].raw, adm[i].from, serving[i] = snap.result, snap.resultJSON, j.id, j
				continue
			}
		}
		fresh = append(fresh, i)
	}
	if s.queued+len(fresh) > s.cfg.MaxQueuedJobs {
		return nil, nil, http.StatusTooManyRequests,
			fmt.Errorf("submission needs %d queue slots, %d free", len(fresh), s.cfg.MaxQueuedJobs-s.queued)
	}
	for _, i := range fresh {
		j := s.newJobLocked(plan.Cells[i].Cell.Key, plan.Cells[i].Cell.Spec)
		if first := plan.Cells[i].SameRun; first >= 0 && serving[first] != nil {
			j.follows = serving[first]
			j.follows.holders++
		}
		adm[i].job, adm[i].started, serving[i] = j, true, j
	}
	for i, pc := range plan.Cells {
		a := &adm[i]
		if pc.DupOf >= 0 {
			cell := a.cell
			*a = adm[pc.DupOf]
			a.cell, a.started = cell, false
		}
		if a.job != nil && !a.started {
			a.job.holders++
		}
	}
	for _, u := range plan.Units {
		var jobs []*job
		for _, i := range u {
			if adm[i].started {
				jobs = append(jobs, adm[i].job)
			}
		}
		if len(jobs) > 0 {
			units = append(units, jobs)
		}
	}
	return adm, units, 0, nil
}

// newJobLocked creates and registers a queued job (s.mu must be held).
// The caller starts the job after releasing the lock.
func (s *Server) newJobLocked(key string, spec experiment.ScenarioSpec) *job {
	s.nextID++
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:       fmt.Sprintf("j%d", s.nextID),
		key:      key,
		spec:     spec,
		ctx:      ctx,
		cancel:   cancel,
		accepted: time.Now(),
		holders:  1,
		outcome:  outcome{state: stateQueued},
		notify:   make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.active[key] = j
	s.queued++
	s.wg.Add(1)
	return j
}

// end is the one way an accepted job ends, exactly once whichever path
// gets there first (local run, follower, fleet dispatch, shutdown, a
// contained panic). It releases the job's queue slot, then publishes
// the terminal event, then lets Drain count the job finished: a client
// that sees the job end never reads it in dtnd_queue_depth.
func (s *Server) end(j *job, o outcome) {
	s.mu.Lock()
	if j.ended {
		s.mu.Unlock()
		return
	}
	j.ended = true
	// Only remove the active entry if it is still ours: a fresh
	// submission may have replaced a cancelled job's. A done job keeps
	// it through the publish, so a submission meanwhile is served the
	// snapshot instead of simulating again — with a store, while
	// retained, as a submission whose store read raced the job's Put
	// reaches its admission pass only after this point.
	if s.active[j.key] == j && o.state != stateDone {
		delete(s.active, j.key)
	}
	s.queued--
	// Retention: keep the most recent finished jobs addressable by id
	// (status/stream replay), dropping the oldest beyond the ring so a
	// long-lived daemon's per-job state is bounded. Their results stay
	// servable forever through the on-disk cache by key.
	s.finished = append(s.finished, j.id)
	for len(s.finished) > maxRetainedJobs {
		if old := s.jobs[s.finished[0]]; s.active[old.key] == old {
			delete(s.active, old.key)
		}
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()
	defer s.wg.Done()
	s.m.noteTerminal(o.state)
	s.log.Info("job terminal", "job", j.id, "key", j.key, "status", string(o.state))
	j.terminal(o)
	if o.state == stateDone && s.store == nil {
		s.mu.Lock()
		if s.active[j.key] == j {
			delete(s.active, j.key)
		}
		s.mu.Unlock()
	}
}

// run runs one accepted job's body on its own goroutine and ends the
// job with the outcome the body returns.
func (s *Server) run(j *job, body func(*job) outcome) {
	defer s.containPanic(j)
	s.end(j, body(j))
}

// containPanic is run's backstop, deferred directly so recover sees the
// panic. Spec validation screens known-bad shapes, but the engine
// panics on combinations nobody has tried yet; contain those to the one
// job instead of killing the daemon (and every queued job) with it, and
// count them: dtnd_job_panics_total above 0 names a shape Validate misses.
func (s *Server) containPanic(j *job) {
	if r := recover(); r != nil {
		s.m.jobPanics.Add(1)
		s.end(j, failed(fmt.Errorf("job panicked: %v", r)))
	}
}

// runJob executes one accepted job on the local engine: wait for a
// concurrency permit (or cancellation — a cancelled queued job never
// takes a permit), simulate with live progress, persist the result.
func (s *Server) runJob(j *job) outcome {
	select {
	case s.sem <- struct{}{}:
	case <-j.ctx.Done():
		return cancelled // cancelled while queued: release nothing, run nothing
	}
	defer func() { <-s.sem }()
	s.queueWait.Observe(time.Since(j.accepted).Seconds())
	if j.ctx.Err() != nil {
		return cancelled
	}

	j.setState(stateRunning)
	s.log.Info("job running", "job", j.id, "key", j.key)
	// Meter simulation throughput off the progress feed: events arrive
	// serialized (RunSpecStore delivers under its own lock), so the
	// per-seed last-T table needs no further locking. Sim-time deltas sum
	// into dtnd_sim_seconds_total.
	lastT := make(map[int]float64)
	progress := func(p metrics.Progress) {
		s.m.progressEvents.Add(1)
		if dt := p.T - lastT[p.Seed]; dt > 0 {
			s.m.simMillis.Add(int64(dt * 1000))
			lastT[p.Seed] = p.T
		}
		j.publish(p)
	}
	// The store-threaded run path enables the spec's trace mode: with a
	// store attached, sweep cells marked "auto" replay their shared
	// recorded world instead of re-simulating mobility (see
	// experiment.RunSpecStore); without one, every seed runs live.
	//
	// Every daemon job runs profiled unless the spec opted out: the
	// profiler is bit-neutral and near-free, the per-phase breakdown feeds
	// /metrics and the job's status/terminal event, and the cacheable
	// result bytes are stripped of timing either way (CellResultOf).
	spec := j.spec
	if spec.Profile == nil {
		spec.Profile = experiment.Ptr(true)
	}
	sums, err := experiment.RunSpecStore(j.ctx, spec, s.store, progress)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return cancelled
		}
		return failed(err)
	}
	s.simulated.Add(1)
	// Fold the per-seed phase profiles into one job-level timing block
	// (feeding the /metrics phase counters) before CellResultOf strips
	// them from the cacheable result.
	var tm *obs.Timing
	for i := range sums {
		tm = obs.MergeTiming(tm, sums[i].Timing)
	}
	s.m.noteTiming(tm)
	return s.complete(j, sums, tm)
}

// complete stores the job's per-seed summaries as its cell's result
// under its own key — the end of every local run, simulated or
// followed.
func (s *Server) complete(j *job, perSeed []metrics.Summary, tm *obs.Timing) outcome {
	res, err := experiment.CellResultOf(experiment.SweepCell{Spec: j.spec, Key: j.key}, perSeed)
	if err != nil {
		return failed(err)
	}
	if err := s.store.Put(res); err != nil {
		return failed(fmt.Errorf("persist result: %w", err))
	}
	// Encode once at completion; every later cache-hit serve of this job's
	// snapshot splices these bytes instead of re-marshalling.
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return failed(err)
	}
	return finished(res, raw, tm)
}

// follow serves a follower job from the job it follows, the way RunSweep
// serves a SameRun cell: it mirrors that job's progress and ends in its
// state — on success with the followed run's per-seed summaries stored
// under the follower's own key and canonical spec. It never simulates.
// Cancelling the follower releases its hold on the followed job.
func (s *Server) follow(j *job) outcome {
	src := j.follows
	sent := 0
	for {
		snap := src.snapshot()
		if snap.state != stateQueued {
			j.setState(stateRunning)
		}
		for _, p := range snap.events[sent:] {
			if !p.Done {
				j.publish(p)
			}
		}
		sent = len(snap.events)
		switch {
		case snap.state == stateDone && snap.result != nil:
			return s.complete(j, snap.result.PerSeed, nil)
		case snap.state == stateFailed:
			return failed(errors.New(snap.errMsg))
		case terminalState(snap.state):
			return cancelled
		}
		select {
		case <-snap.notify:
		case <-j.ctx.Done():
			s.mu.Lock()
			src.holders--
			drop := src.holders <= 0
			s.mu.Unlock()
			if drop {
				src.cancel()
			}
			return cancelled
		}
	}
}

// jobResponse is the GET /v1/jobs/{id} reply.
type jobResponse struct {
	JobID  string      `json:"job_id"`
	Key    string      `json:"key"`
	Status string      `json:"status"`
	Error  string      `json:"error,omitempty"`
	Frac   float64     `json:"frac"`
	Result *Result     `json:"result,omitempty"`
	Timing *obs.Timing `json:"timing,omitempty"` // engine phase breakdown (jobs that simulated here)
}

func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
	}
	return j
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	// One snapshot: state, progress, result and error are read atomically,
	// so a reply can never pair "running" with a result or "done" without
	// one.
	snap := j.snapshot()
	resp := jobResponse{
		JobID:  j.id,
		Key:    j.key,
		Status: string(snap.state),
		Error:  snap.errMsg,
		Result: snap.result,
		Timing: snap.timing,
	}
	if n := len(snap.events); n > 0 {
		resp.Frac = snap.events[n-1].Frac
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCancelJob cancels a queued or running job: the job's context is
// cancelled, so a queued job never starts and a running one stops
// simulating after its current tick and releases its permit. Jobs already
// in a terminal state answer 409.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	if st := j.snapshot().state; terminalState(st) {
		writeErr(w, http.StatusConflict, fmt.Errorf("job %s already %s", j.id, st))
		return
	}
	s.log.Info("job cancel requested", "job", j.id, "key", j.key)
	j.cancel()
	writeJSON(w, http.StatusAccepted, map[string]string{"job_id": j.id, "status": "cancelling"})
}

// handleStream replays the job's progress history and follows it live as
// NDJSON — one metrics.Progress per line — until the job ends. The final
// line carries done=true and the mean summary (or the error).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	s.m.streamSubs.Add(1)
	defer s.m.streamSubs.Add(-1)
	streamNDJSON(w, r, func() ([]metrics.Progress, chan struct{}) {
		snap := j.snapshot()
		return snap.events, snap.notify
	}, func(p metrics.Progress) bool { return p.Done })
}

// streamNDJSON replays an event history and follows it live as NDJSON —
// one event per line — until an event isFinal reports true for has been
// sent or the client goes away. snapshot must return the full event
// slice and the channel that closes on the next append, atomically.
// Writes stop at the first failed Encode: no flushing after a dead
// client.
func streamNDJSON[T any](w http.ResponseWriter, r *http.Request, snapshot func() ([]T, chan struct{}), isFinal func(T) bool) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sent := 0
	for {
		events, notify := snapshot()
		final := false
		for _, p := range events[sent:] {
			if enc.Encode(p) != nil {
				return // client went away; no further writes or flushes
			}
			final = final || isFinal(p)
		}
		sent = len(events)
		if flusher != nil {
			flusher.Flush()
		}
		if final {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

// handleResult serves a cached result by content address. The read is
// local-only: this is the endpoint the fleet's pull-through tier probes,
// and a local-only serve guarantees probes cannot recurse peer-to-peer.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if _, raw, ok := s.store.GetRawLocal(key); ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(raw) // the store file is the reply: already indented JSON
		return
	}
	writeErr(w, http.StatusNotFound, fmt.Errorf("no cached result for %s", key))
}

// handleTrace serves a recorded contact-script blob by trace content
// address — local-only, like handleResult, for the same loop-freedom.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if data, ok := s.store.GetTraceLocal(key); ok {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		w.Write(data)
		return
	}
	writeErr(w, http.StatusNotFound, fmt.Errorf("no recorded trace for %s", key))
}

// handleReady serves GET /v1/healthz, the readiness probe the fleet
// registry and load balancers poll: 200 while accepting work, 503 once
// draining — a draining worker leaves the dispatch rotation before its
// listener closes. (GET /healthz remains pure liveness: 200 until the
// process dies.)
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// jobListEntry is one row of GET /v1/jobs: the job's identity and
// aggregate progress, without its result payload.
type jobListEntry struct {
	JobID  string  `json:"job_id"`
	Key    string  `json:"key"`
	Status string  `json:"status"`
	Frac   float64 `json:"frac"`
	Error  string  `json:"error,omitempty"`
}

// jobListResponse is the GET /v1/jobs reply: every retained job in
// creation order. Total counts before pagination; Jobs holds the
// requested window.
type jobListResponse struct {
	Total  int            `json:"total"`
	Offset int            `json:"offset,omitempty"`
	Jobs   []jobListEntry `json:"jobs"`
}

// handleJobList serves GET /v1/jobs — the jobs-side twin of the sweep
// listing, with the same ?offset/limit pagination. Rows are ordered by
// creation (job ids are sequential); the retention ring bounds the list,
// and dropped jobs' results remain addressable through the store by key.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	offset, limit, err := pageParams(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	all := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		all = append(all, j)
	}
	s.mu.Unlock()
	sort.Slice(all, func(i, k int) bool {
		a, _ := strconv.Atoi(strings.TrimPrefix(all[i].id, "j"))
		b, _ := strconv.Atoi(strings.TrimPrefix(all[k].id, "j"))
		return a < b
	})
	total := len(all)
	offset = min(offset, total)
	end := total
	if limit >= 0 && offset+limit < end {
		end = offset + limit
	}
	rows := make([]jobListEntry, 0, end-offset)
	for _, j := range all[offset:end] {
		snap := j.snapshot()
		e := jobListEntry{JobID: j.id, Key: j.key, Status: string(snap.state), Error: snap.errMsg}
		if n := len(snap.events); n > 0 {
			e.Frac = snap.events[n-1].Frac
		}
		rows = append(rows, e)
	}
	writeJSON(w, http.StatusOK, jobListResponse{Total: total, Offset: offset, Jobs: rows})
}

// writeCachedResult writes the submit fast-path reply — submitResponse
// with cached=true — by splicing the result's pre-encoded bytes (a store
// file or a done job's one-time encoding) into a hand-built envelope, so
// a cache hit never re-marshals the per-seed summary table. Field order
// and formatting mirror writeJSON's encoding of submitResponse.
func writeCachedResult(w http.ResponseWriter, jobID, key string, raw []byte) {
	var b bytes.Buffer
	b.WriteString("{\n")
	if jobID != "" {
		fmt.Fprintf(&b, "  %q: %q,\n", "job_id", jobID)
	}
	fmt.Fprintf(&b, "  %q: %q,\n", "key", key)
	fmt.Fprintf(&b, "  %q: %q,\n", "status", string(stateDone))
	fmt.Fprintf(&b, "  %q: true,\n", "cached")
	fmt.Fprintf(&b, "  %q: ", "result")
	b.Write(bytes.TrimRight(raw, "\n"))
	b.WriteString("\n}\n")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b.Bytes())
}

func (s *Server) handlePresets(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, experiment.PresetSpecs())
}

// maxRetainedJobs bounds finished jobs kept addressable in memory.
const maxRetainedJobs = 512

// jobSnap is one atomic observation of a job: every field a status reply
// needs, read under one lock acquisition so replies can never tear (e.g.
// "running" with a non-nil result).
type jobSnap struct {
	outcome
	events []metrics.Progress
	notify chan struct{}
}

// snapshot returns the job's state, progress history, result, error and
// the channel that closes on the next append — atomically.
func (j *job) snapshot() jobSnap {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobSnap{outcome: j.outcome, events: j.events, notify: j.notify}
}

func (j *job) setState(st jobState) {
	j.mu.Lock()
	j.state = st
	j.mu.Unlock()
}

// subscribe registers fn to receive every event appended after this call
// (outside the job's lock) and returns the snapshot taken at registration
// — together they hand the caller the full ordered event sequence with no
// gap and no overlap.
func (j *job) subscribe(fn func(metrics.Progress)) jobSnap {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.subs = append(j.subs, fn)
	return jobSnap{outcome: j.outcome, events: j.events, notify: j.notify}
}

// publish appends one event, wakes streamers, and delivers to subscribers
// outside the lock (subscriber callbacks take sweep locks and read other
// jobs; holding j.mu across them would order locks job→sweep→job).
func (j *job) publish(p metrics.Progress) {
	j.mu.Lock()
	j.events = append(j.events, p)
	close(j.notify)
	j.notify = make(chan struct{})
	subs := j.subs
	j.mu.Unlock()
	for _, fn := range subs {
		fn(p)
	}
}

// outcome is a job's state and, once it ends, what its terminal event
// and status replies carry.
type outcome struct {
	state  jobState
	result *Result
	// resultJSON is the result encoded once at completion, so the submit
	// fast paths (disk hit, coalesce onto a done job) splice bytes instead
	// of re-marshalling the full per-seed summary table per request.
	resultJSON []byte
	errMsg     string
	// timing is the job's engine phase profile (nil for cache hits and
	// unprofiled jobs). It lives outside result so the cached bytes stay
	// deterministic; job status and the terminal stream event carry it.
	timing *obs.Timing
}

// finished is a successful outcome: the result, its one-time encoding
// and the job's phase profile.
func finished(res *Result, raw []byte, tm *obs.Timing) outcome {
	return outcome{state: stateDone, result: res, resultJSON: raw, timing: tm}
}

// failed is a failure outcome carrying err's message.
func failed(err error) outcome { return outcome{state: stateFailed, errMsg: err.Error()} }

// cancelled is the cancellation outcome.
var cancelled = outcome{state: stateCancelled, errMsg: "cancelled"}

// terminal moves the job to its final state and publishes the terminal
// progress event. The event carries the last observed completion fraction
// — a job that dies at 90% reports 90%, not 0 — or 1 on success, plus the
// job's engine phase profile when it simulated here.
func (j *job) terminal(o outcome) {
	j.mu.Lock()
	p := metrics.Progress{Done: true, Error: o.errMsg, Timing: o.timing}
	if n := len(j.events); n > 0 {
		p.Frac = j.events[n-1].Frac
	}
	if o.state == stateDone && o.result != nil {
		mean := o.result.Mean
		p.Frac = 1
		p.Seed = len(o.result.Seeds) - 1
		p.Seeds = len(o.result.Seeds)
		p.Summary = &mean
	}
	j.outcome = o
	j.events = append(j.events, p)
	close(j.notify)
	j.notify = make(chan struct{})
	subs := j.subs
	j.mu.Unlock()
	for _, fn := range subs {
		fn(p)
	}
}

// writeJSON writes one JSON reply. The returned error reports a failed or
// short write (client gone); callers that would otherwise keep writing or
// flushing should stop.
func writeJSON(w http.ResponseWriter, code int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// ListenAndServe runs the daemon on addr until ctx is cancelled, then
// drains in-flight jobs and shuts the listener down. The bound address is
// reported through ready (if non-nil) once the listener is up — callers
// using ":0" learn the port. It is the one serving loop cmd/dtnd and
// `dtnsim -serve` share.
func ListenAndServe(ctx context.Context, addr string, cfg Config, ready func(addr string)) error {
	s, err := New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(ln.Addr().String())
	}
	s.log.Info("listening", "addr", ln.Addr().String(), "pprof", cfg.EnablePprof)
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Drain: finish accepted jobs (submissions now get 503), then close
	// idle connections and outstanding streams.
	s.log.Info("draining")
	drainErr := s.Drain(context.Background())
	shutErr := hs.Shutdown(context.Background())
	s.Close()
	if drainErr != nil {
		return drainErr
	}
	return shutErr
}
