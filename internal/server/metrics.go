package server

// Runtime observability: GET /metrics serves the daemon's counters in
// Prometheus text exposition format (hand-rolled — the format is three
// line shapes, no client library needed). Counters live as atomics on
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
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/resultcache"
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
	jobPanics     atomic.Int64 // job runs whose panic runJob contained

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

// noteTerminal records a job's final state (the job's onTerminal hook).
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

// metricDef is one exposition entry: name, HELP text, TYPE and a value
// read at scrape time.
type metricDef struct {
	name  string
	help  string
	typ   string // "counter" or "gauge"
	value func() float64
}

// metricDefs builds the scrape table. Queue depth and retained-object
// gauges read Server.mu once each; everything else is an atomic load.
func (s *Server) metricDefs() []metricDef {
	counter := func(name, help string, v *atomic.Int64) metricDef {
		return metricDef{name: name, help: help, typ: "counter", value: func() float64 { return float64(v.Load()) }}
	}
	m := &s.m
	defs := []metricDef{
		counter("dtnd_submissions_total", "Valid job submissions (direct POST /v1/jobs) classified against the cache.", &m.submissions),
		counter("dtnd_submit_cache_hits_total", "Submissions served a result immediately: disk cache or terminal in-flight snapshot.", &m.submitHits),
		{name: "dtnd_submit_cache_misses_total", help: "Submissions handed a job (coalesced or queued): submissions - hits.", typ: "counter",
			value: func() float64 { return float64(m.submissions.Load() - m.submitHits.Load()) }},
		counter("dtnd_submit_coalesced_total", "Submissions attached to an identical in-flight job.", &m.submitCoalesced),
		counter("dtnd_submit_rejected_total", "Submissions refused: queue full or draining.", &m.submitRejected),
		counter("dtnd_sweep_submissions_total", "Valid sweep submissions accepted.", &m.sweepSubmissions),
		counter("dtnd_sweep_rejected_total", "Sweep submissions refused: queue room or draining.", &m.sweepRejected),
		counter("dtnd_jobs_done_total", "Jobs finished successfully.", &m.jobsDone),
		counter("dtnd_jobs_failed_total", "Jobs finished in failure.", &m.jobsFailed),
		counter("dtnd_jobs_cancelled_total", "Jobs cancelled before completion.", &m.jobsCancelled),
		counter("dtnd_job_panics_total", "Job runs that panicked and were failed by the recover backstop behind spec validation (0 = never reached).", &m.jobPanics),
		{name: "dtnd_jobs_simulated_total", help: "Jobs that actually ran a simulation (cache misses that completed).", typ: "counter",
			value: func() float64 { return float64(s.simulated.Load()) }},
		counter("dtnd_progress_events_total", "Simulation progress events published to streams and sweeps.", &m.progressEvents),
		{name: "dtnd_sim_seconds_total", help: "Simulated scenario-seconds completed across all jobs (rate() gives sim-time throughput).", typ: "counter",
			value: func() float64 { return float64(m.simMillis.Load()) / 1000 }},
		{name: "dtnd_sim_exchange_seconds_total", help: "Wall-seconds spent in routing exchange callbacks (nested inside the contact phases of dtnd_sim_phase_seconds_total).", typ: "counter",
			value: func() float64 { return float64(m.exchangeNanos.Load()) / 1e9 }},
		{name: "dtnd_queue_depth", help: "Accepted-but-not-finished jobs (queued + running).", typ: "gauge",
			value: func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.queued) }},
		{name: "dtnd_jobs_retained", help: "Job records addressable in memory (bounded retention ring).", typ: "gauge",
			value: func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(len(s.jobs)) }},
		{name: "dtnd_sweeps_retained", help: "Sweep records addressable in memory (bounded retention ring).", typ: "gauge",
			value: func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(len(s.sweeps)) }},
		{name: "dtnd_stream_subscribers", help: "NDJSON progress streams currently open (jobs and sweeps).", typ: "gauge",
			value: func() float64 { return float64(m.streamSubs.Load()) }},
	}
	// Result-store counters (zeros when caching is disabled: s.store is
	// nil and Stats() is nil-safe).
	stat := func(name, help, typ string, v func(resultcache.Stats) int64) metricDef {
		return metricDef{name: name, help: help, typ: typ, value: func() float64 { return float64(v(s.store.Stats())) }}
	}
	defs = append(defs,
		// Contact-trace fast path: how often sweep cells replayed a
		// recorded world instead of re-simulating mobility, and the
		// store's trace-blob traffic. Recording/replay counts are
		// process-wide (experiment-layer atomics); blob counters are
		// kept apart from result counters so the submissions == hits +
		// misses invariant above stays exact.
		metricDef{name: "dtnd_trace_recordings_total", help: "Contact-trace recordings performed (live runs doubling as recordings, or bare pre-records).", typ: "counter",
			value: func() float64 { return float64(experiment.TraceRecordings()) }},
		metricDef{name: "dtnd_trace_replays_total", help: "Simulation runs served by contact replay instead of live mobility.", typ: "counter",
			value: func() float64 { return float64(experiment.TraceReplays()) }},
		stat("dtnd_trace_cache_hits_total", "Trace-store reads that found a recorded contact script.", "counter",
			func(st resultcache.Stats) int64 { return st.TraceHits }),
		stat("dtnd_trace_cache_misses_total", "Trace-store reads that found nothing.", "counter",
			func(st resultcache.Stats) int64 { return st.TraceMisses }),
		stat("dtnd_trace_cache_puts_total", "Contact scripts persisted to the store.", "counter",
			func(st resultcache.Stats) int64 { return st.TracePuts }),
	)
	defs = append(defs,
		stat("dtnd_cache_hits_total", "Result-store reads that found an intact entry (submits, sweep cells, /v1/results).", "counter",
			func(st resultcache.Stats) int64 { return st.Hits }),
		stat("dtnd_cache_misses_total", "Result-store reads that found nothing (or a corrupt entry).", "counter",
			func(st resultcache.Stats) int64 { return st.Misses }),
		stat("dtnd_cache_puts_total", "Results persisted to the store.", "counter",
			func(st resultcache.Stats) int64 { return st.Puts }),
		stat("dtnd_cache_evictions_total", "Entries removed by size-bound eviction.", "counter",
			func(st resultcache.Stats) int64 { return st.Evictions }),
		stat("dtnd_cache_evicted_bytes_total", "Bytes reclaimed by size-bound eviction.", "counter",
			func(st resultcache.Stats) int64 { return st.EvictedBytes }),
		stat("dtnd_cache_eviction_scans_total", "Eviction directory walks.", "counter",
			func(st resultcache.Stats) int64 { return st.Scans }),
		stat("dtnd_cache_bytes", "Approximate result-store size (bounded stores only).", "gauge",
			func(st resultcache.Stats) int64 { return st.CurBytes }),
		// Fleet cache attribution: of the hits above, how many were pulled
		// through from another daemon's store rather than found locally.
		stat("dtnd_cache_remote_hits_total", "Result hits served by remote pull-through (another daemon's store).", "counter",
			func(st resultcache.Stats) int64 { return st.RemoteHits }),
		stat("dtnd_cache_remote_misses_total", "Remote-tier probes that found nothing on any peer.", "counter",
			func(st resultcache.Stats) int64 { return st.RemoteMisses }),
		stat("dtnd_trace_cache_remote_hits_total", "Trace hits served by remote pull-through.", "counter",
			func(st resultcache.Stats) int64 { return st.TraceRemoteHits }),
	)
	// Coordinator-only families: the fleet dispatcher's aggregate state.
	// Per-worker dispatch/retry/steal series live in writeFleetFamilies.
	if f := s.fleet; f != nil {
		defs = append(defs,
			metricDef{name: "dtnd_fleet_workers", help: "Registered fleet workers.", typ: "gauge",
				value: func() float64 { return float64(len(f.workers)) }},
			metricDef{name: "dtnd_fleet_workers_healthy", help: "Fleet workers currently passing readiness.", typ: "gauge",
				value: func() float64 { return float64(len(f.healthyWorkerURLs())) }},
			metricDef{name: "dtnd_fleet_queue_depth", help: "Dispatch units waiting for a worker.", typ: "gauge",
				value: func() float64 { return float64(f.queueDepth()) }},
			metricDef{name: "dtnd_fleet_retries_total", help: "Dispatch units requeued after a worker infrastructure failure (work stealing).", typ: "counter",
				value: func() float64 { return float64(f.retries.Load()) }},
			metricDef{name: "dtnd_fleet_cached_total", help: "Fleet jobs satisfied from the tiered store at dispatch, no worker involved.", typ: "counter",
				value: func() float64 { return float64(f.cached.Load()) }},
		)
	}
	return defs
}

// writeFleetFamilies renders the per-worker labeled counter families —
// every registered worker present from the first scrape, so rate()
// never sees a series appear mid-flight. Coordinator mode only.
func (s *Server) writeFleetFamilies(b *strings.Builder) {
	f := s.fleet
	if f == nil {
		return
	}
	fam := func(name, help string, v func(*fleetWorker) int64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, w := range f.workers {
			fmt.Fprintf(b, "%s{worker=%q} %d\n", name, w.url, v(w))
		}
	}
	fam("dtnd_fleet_dispatch_total", "Jobs dispatched to each worker.",
		func(w *fleetWorker) int64 { return w.dispatched.Load() })
	fam("dtnd_fleet_completed_total", "Jobs completed via each worker.",
		func(w *fleetWorker) int64 { return w.completed.Load() })
	fam("dtnd_fleet_failures_total", "Infrastructure failures observed on each worker.",
		func(w *fleetWorker) int64 { return w.failures.Load() })
	fam("dtnd_fleet_steals_total", "Requeued (stolen) units each worker picked up.",
		func(w *fleetWorker) int64 { return w.steals.Load() })
	const hname = "dtnd_fleet_worker_healthy"
	fmt.Fprintf(b, "# HELP %s Per-worker readiness (1 healthy, 0 down).\n# TYPE %s gauge\n", hname, hname)
	for _, w := range f.workers {
		v := 0
		if w.healthy.Load() {
			v = 1
		}
		fmt.Fprintf(b, "%s{worker=%q} %d\n", hname, w.url, v)
	}
}

// handleMetrics serves GET /metrics in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	for _, d := range s.metricDefs() {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", d.name, d.help, d.name, d.typ, d.name, d.value())
	}
	s.writePhaseFamily(&b)
	s.writeFleetFamilies(&b)
	s.writeHistograms(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, b.String())
}

// writePhaseFamily renders the labeled per-phase counter family — one
// series per engine tick phase, all present from the first scrape so
// rate() never sees a series appear mid-flight.
func (s *Server) writePhaseFamily(b *strings.Builder) {
	const name = "dtnd_sim_phase_seconds_total"
	fmt.Fprintf(b, "# HELP %s Wall-seconds spent per engine tick phase across all profiled jobs.\n# TYPE %s counter\n", name, name)
	for i, ph := range obs.PhaseNames() {
		fmt.Fprintf(b, "%s{phase=%q} %g\n", name, ph, float64(s.m.phaseNanos[i].Load())/1e9)
	}
}

// histogramFamily is one exposition histogram family: a name, HELP text
// and one labeled series per histogram.
type histogramFamily struct {
	name   string
	help   string
	label  string // label key, "" for an unlabeled single-series family
	series []struct {
		value string
		h     *obs.Histogram
	}
}

// histogramFamilies lists the daemon's histogram families in scrape order.
func (s *Server) histogramFamilies() []histogramFamily {
	httpFam := histogramFamily{
		name:  "dtnd_http_request_duration_seconds",
		help:  "HTTP request duration by response class (streams book their full lifetime).",
		label: "class",
	}
	for i, class := range respClasses {
		httpFam.series = append(httpFam.series, struct {
			value string
			h     *obs.Histogram
		}{class, s.httpDur[i]})
	}
	waitFam := histogramFamily{
		name: "dtnd_queue_wait_seconds",
		help: "Time jobs waited from acceptance to acquiring a run permit.",
	}
	waitFam.series = append(waitFam.series, struct {
		value string
		h     *obs.Histogram
	}{"", s.queueWait})
	return []histogramFamily{httpFam, waitFam}
}

// writeHistograms renders the histogram families in Prometheus text
// format: cumulative _bucket series ending at le="+Inf", then _sum and
// _count per labeled series.
func (s *Server) writeHistograms(b *strings.Builder) {
	for _, fam := range s.histogramFamilies() {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", fam.name, fam.help, fam.name)
		for _, ser := range fam.series {
			snap := ser.h.Snapshot()
			lbl := ""
			if fam.label != "" {
				lbl = fam.label + "=" + strconv.Quote(ser.value) + ","
			}
			cum := int64(0)
			for i, c := range snap.Counts {
				cum += c
				le := "+Inf"
				if i < len(snap.Bounds) {
					le = strconv.FormatFloat(snap.Bounds[i], 'g', -1, 64)
				}
				fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", fam.name, lbl, le, cum)
			}
			sfx := ""
			if fam.label != "" {
				sfx = "{" + strings.TrimSuffix(lbl, ",") + "}"
			}
			fmt.Fprintf(b, "%s_sum%s %g\n%s_count%s %d\n", fam.name, sfx, snap.Sum, fam.name, sfx, snap.Count)
		}
	}
}
