package server

// Runtime observability: GET /metrics serves the daemon's counters in
// Prometheus text exposition format. metricDefs lists every family as
// data and obs.WriteText renders them. Counters live as atomics on
// serverCounters and are incremented at the point the event happens;
// gauges (queue depth, open NDJSON streams, cache size) are read at
// scrape time. The one invariant CI reconciles after a smoke run:
//
//	dtnd_submissions_total == dtnd_submit_cache_hits_total
//	                        + dtnd_submit_cache_misses_total
//
// i.e. every valid job submission is classified exactly once — served a
// result immediately (hit: disk cache or a terminal in-flight snapshot)
// or handed a job (miss: coalesced onto one or queued fresh).

import (
	"net/http"
	"sync/atomic"

	"repro/internal/experiment"
	"repro/internal/obs"
)

// serverCounters is the daemon's metric state. All fields are atomics so
// the hot paths (submit, progress publish) never take a lock to count.
type serverCounters struct {
	submissions      atomic.Int64 // valid POST /v1/jobs reaching classification
	submitHits       atomic.Int64 // served a result immediately, no job
	submitCoalesced  atomic.Int64 // attached to an identical in-flight job
	submitRejected   atomic.Int64 // refused: queue full or draining
	sweepSubmissions atomic.Int64 // valid POST /v1/sweeps accepted
	sweepRejected    atomic.Int64 // sweeps refused: queue room or draining

	jobsDone      atomic.Int64 // jobs reaching state done
	jobsFailed    atomic.Int64 // jobs reaching state failed
	jobsCancelled atomic.Int64 // jobs reaching state cancelled
	jobPanics     atomic.Int64 // job runs whose panic containPanic contained

	progressEvents atomic.Int64 // simulation progress events published
	simMillis      atomic.Int64 // simulated scenario-milliseconds completed
	streamSubs     atomic.Int64 // gauge: NDJSON streams currently open

	// Engine phase accounting, accumulated from every profiled job's
	// merged timing block (runJob): wall-nanoseconds per tick phase, plus
	// the routing-exchange share nested inside the contact phases.
	phaseNanos    [obs.NumPhases]atomic.Int64
	exchangeNanos atomic.Int64
}

// noteTiming folds one job's phase profile into the daemon-lifetime phase
// counters. Phases are matched by name, so the counters stay correct even
// if a timing block carries a partial phase list.
func (m *serverCounters) noteTiming(tm *obs.Timing) {
	if tm == nil {
		return
	}
	for i, name := range obs.PhaseNames() {
		if ns := int64(tm.PhaseSeconds(name) * 1e9); ns > 0 {
			m.phaseNanos[i].Add(ns)
		}
	}
	if ns := int64(tm.ExchangeSeconds * 1e9); ns > 0 {
		m.exchangeNanos.Add(ns)
	}
}

// noteTerminal records a job's final state (Server.end).
func (m *serverCounters) noteTerminal(st jobState) {
	switch st {
	case stateDone:
		m.jobsDone.Add(1)
	case stateFailed:
		m.jobsFailed.Add(1)
	case stateCancelled:
		m.jobsCancelled.Add(1)
	}
}

// metricDefs builds the scrape, every family in exposition order: the
// Server.mu gauges read under one hold, the store counters from one
// Stats call, everything else by an atomic load.
func (s *Server) metricDefs() []obs.Family {
	scalar := func(name, typ, help string, v float64) obs.Family {
		return obs.Family{Name: name, Help: help, Type: typ, Samples: []obs.Sample{{Value: v}}}
	}
	counter := func(name, help string, v *atomic.Int64) obs.Family {
		return scalar(name, "counter", help, float64(v.Load()))
	}
	m := &s.m
	s.mu.Lock()
	queued, jobs, sweeps := s.queued, len(s.jobs), len(s.sweeps)
	s.mu.Unlock()
	st := s.store.Stats() // zeros when caching is disabled: Stats is nil-safe
	defs := []obs.Family{
		counter("dtnd_submissions_total", "Valid job submissions (direct POST /v1/jobs) classified against the cache.", &m.submissions),
		counter("dtnd_submit_cache_hits_total", "Submissions served a result immediately: disk cache or terminal in-flight snapshot.", &m.submitHits),
		scalar("dtnd_submit_cache_misses_total", "counter", "Submissions handed a job (coalesced or queued): submissions - hits.", float64(m.submissions.Load()-m.submitHits.Load())),
		counter("dtnd_submit_coalesced_total", "Submissions attached to an identical in-flight job.", &m.submitCoalesced),
		counter("dtnd_submit_rejected_total", "Submissions refused: queue full or draining.", &m.submitRejected),
		counter("dtnd_sweep_submissions_total", "Valid sweep submissions accepted.", &m.sweepSubmissions),
		counter("dtnd_sweep_rejected_total", "Sweep submissions refused: queue room or draining.", &m.sweepRejected),
		counter("dtnd_jobs_done_total", "Jobs finished successfully.", &m.jobsDone),
		counter("dtnd_jobs_failed_total", "Jobs finished in failure.", &m.jobsFailed),
		counter("dtnd_jobs_cancelled_total", "Jobs cancelled before completion.", &m.jobsCancelled),
		counter("dtnd_job_panics_total", "Job runs that panicked and were failed by the recover backstop behind spec validation (0 = never reached).", &m.jobPanics),
		counter("dtnd_jobs_simulated_total", "Jobs that actually ran a simulation (cache misses that completed).", &s.simulated),
		counter("dtnd_progress_events_total", "Simulation progress events published to streams and sweeps.", &m.progressEvents),
		scalar("dtnd_sim_seconds_total", "counter", "Simulated scenario-seconds completed across all jobs (rate() gives sim-time throughput).", float64(m.simMillis.Load())/1000),
		scalar("dtnd_sim_exchange_seconds_total", "counter", "Wall-seconds spent in routing exchange callbacks (nested inside the contact phases of dtnd_sim_phase_seconds_total).", float64(m.exchangeNanos.Load())/1e9),
		scalar("dtnd_queue_depth", "gauge", "Accepted-but-not-finished jobs (queued + running).", float64(queued)),
		scalar("dtnd_jobs_retained", "gauge", "Job records addressable in memory (bounded retention ring).", float64(jobs)),
		scalar("dtnd_sweeps_retained", "gauge", "Sweep records addressable in memory (bounded retention ring).", float64(sweeps)),
		scalar("dtnd_stream_subscribers", "gauge", "NDJSON progress streams currently open (jobs and sweeps).", float64(m.streamSubs.Load())),
		// Contact-trace fast path: how often sweep cells replayed a
		// recorded world instead of re-simulating mobility, and the
		// store's trace-blob traffic. Recording/replay counts are
		// process-wide (experiment-layer atomics); blob counters are
		// kept apart from result counters so the submissions == hits +
		// misses invariant above stays exact.
		scalar("dtnd_trace_recordings_total", "counter", "Contact-trace recordings performed (live runs doubling as recordings, or bare pre-records).", float64(experiment.TraceRecordings())),
		scalar("dtnd_trace_replays_total", "counter", "Simulation runs served by contact replay instead of live mobility.", float64(experiment.TraceReplays())),
		scalar("dtnd_trace_cache_hits_total", "counter", "Trace-store reads that found a recorded contact script.", float64(st.TraceHits)),
		scalar("dtnd_trace_cache_misses_total", "counter", "Trace-store reads that found nothing.", float64(st.TraceMisses)),
		scalar("dtnd_trace_cache_puts_total", "counter", "Contact scripts persisted to the store.", float64(st.TracePuts)),
		scalar("dtnd_cache_hits_total", "counter", "Result-store reads that found an intact entry (submits, sweep cells, /v1/results).", float64(st.Hits)),
		scalar("dtnd_cache_misses_total", "counter", "Result-store reads that found nothing (or a corrupt entry).", float64(st.Misses)),
		scalar("dtnd_cache_puts_total", "counter", "Results persisted to the store.", float64(st.Puts)),
		scalar("dtnd_cache_evictions_total", "counter", "Entries removed by size-bound eviction.", float64(st.Evictions)),
		scalar("dtnd_cache_evicted_bytes_total", "counter", "Bytes reclaimed by size-bound eviction.", float64(st.EvictedBytes)),
		scalar("dtnd_cache_eviction_scans_total", "counter", "Eviction directory walks.", float64(st.Scans)),
		scalar("dtnd_cache_bytes", "gauge", "Approximate result-store size (bounded stores only).", float64(st.CurBytes)),
		// Fleet cache attribution: of the hits above, how many were pulled
		// through from another daemon's store rather than found locally.
		scalar("dtnd_cache_remote_hits_total", "counter", "Result hits served by remote pull-through (another daemon's store).", float64(st.RemoteHits)),
		scalar("dtnd_cache_remote_misses_total", "counter", "Remote-tier probes that found nothing on any peer.", float64(st.RemoteMisses)),
		scalar("dtnd_trace_cache_remote_hits_total", "counter", "Trace hits served by remote pull-through.", float64(st.TraceRemoteHits)),
	}
	// Coordinator-only families: the fleet dispatcher's aggregate state.
	f := s.fleet
	if f != nil {
		defs = append(defs,
			scalar("dtnd_fleet_workers", "gauge", "Registered fleet workers.", float64(len(f.workers))),
			scalar("dtnd_fleet_workers_healthy", "gauge", "Fleet workers currently passing readiness.", float64(len(f.healthyWorkerURLs()))),
			scalar("dtnd_fleet_queue_depth", "gauge", "Dispatch units waiting for a worker.", float64(f.queueDepth())),
			counter("dtnd_fleet_retries_total", "Dispatch units requeued after a worker infrastructure failure (work stealing).", &f.retries),
			counter("dtnd_fleet_cached_total", "Fleet jobs satisfied from the tiered store at dispatch, no worker involved.", &f.cached),
		)
	}
	// Labeled families carry every series from the first scrape, so
	// rate() never sees one appear mid-flight: one per engine tick phase,
	// and on a coordinator one per registered worker.
	phases := obs.Family{Name: "dtnd_sim_phase_seconds_total", Type: "counter",
		Help: "Wall-seconds spent per engine tick phase across all profiled jobs."}
	for i, ph := range obs.PhaseNames() {
		phases.Samples = append(phases.Samples, obs.Sample{Labels: []obs.Label{{Name: "phase", Value: ph}},
			Value: float64(m.phaseNanos[i].Load()) / 1e9})
	}
	defs = append(defs, phases)
	if f != nil {
		perWorker := func(name, typ, help string, v func(*fleetWorker) int64) obs.Family {
			fam := obs.Family{Name: name, Help: help, Type: typ, Ints: true}
			for _, w := range f.workers {
				fam.Samples = append(fam.Samples, obs.Sample{Labels: []obs.Label{{Name: "worker", Value: w.url}}, Value: float64(v(w))})
			}
			return fam
		}
		healthy := func(w *fleetWorker) int64 {
			if w.healthy.Load() {
				return 1
			}
			return 0
		}
		defs = append(defs,
			perWorker("dtnd_fleet_dispatch_total", "counter", "Jobs dispatched to each worker.", func(w *fleetWorker) int64 { return w.dispatched.Load() }),
			perWorker("dtnd_fleet_completed_total", "counter", "Jobs completed via each worker.", func(w *fleetWorker) int64 { return w.completed.Load() }),
			perWorker("dtnd_fleet_failures_total", "counter", "Infrastructure failures observed on each worker.", func(w *fleetWorker) int64 { return w.failures.Load() }),
			perWorker("dtnd_fleet_steals_total", "counter", "Requeued (stolen) units each worker picked up.", func(w *fleetWorker) int64 { return w.steals.Load() }),
			perWorker("dtnd_fleet_worker_healthy", "gauge", "Per-worker readiness (1 healthy, 0 down).", healthy),
		)
	}
	// Latency histograms: request duration by response class, and the
	// queue wait from acceptance to a run permit.
	httpDur := obs.Family{Name: "dtnd_http_request_duration_seconds", Type: "histogram",
		Help: "HTTP request duration by response class (streams book their full lifetime)."}
	for i, class := range respClasses {
		httpDur.Samples = append(httpDur.Samples, obs.Sample{Labels: []obs.Label{{Name: "class", Value: class}}, Hist: s.httpDur[i].Snapshot()})
	}
	return append(defs, httpDur, obs.Family{Name: "dtnd_queue_wait_seconds", Type: "histogram",
		Help:    "Time jobs waited from acceptance to acquiring a run permit.",
		Samples: []obs.Sample{{Hist: s.queueWait.Snapshot()}}})
}

// handleMetrics serves GET /metrics in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	obs.WriteText(w, s.metricDefs())
}
