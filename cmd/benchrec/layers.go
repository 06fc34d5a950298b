package main

import (
	"repro/internal/metrics"
	"repro/internal/obs"
)

// layers is what a traced run measured inside the layers. A nil part is a
// layer the workload does not exercise; its metrics read 0, and every
// metric of such a layer has a unit that is not a time (%, count, 1/s,
// MB/s), so a zero there is a fact, not a missing measurement.
type layers struct {
	ops    int         // traced ops the per-op engine and work counts add up over
	timing *obs.Timing // engine phases of the traced ops
	work   work        // simulation work of the traced ops

	cellSecs map[string]float64 // paper-live: seconds per protocol over the traced rounds
	core     *coreProbe
	sweep    *sweepLayer
	server   *serverLayer
}

// work is simulation work as the engine counts it.
type work struct {
	contacts, relays, generated, delivered, gossipBytes float64
}

func (w *work) add(s metrics.Summary) {
	w.contacts += float64(s.Contacts)
	w.relays += float64(s.Relays)
	w.generated += float64(s.Generated)
	w.delivered += float64(s.Delivered)
	w.gossipBytes += float64(s.GossipBytes)
}

// coreProbe times the estimator core on EER's end-of-run state (clones
// where the call mutates).
type coreProbe struct {
	memdPerS, snapshotPerS, syncPerS float64
	knownRows                        float64 // mean MI rows known per node
}

// sweepLayer holds the trace, result-store and experiment-layer numbers of
// sweep-replay, per pass unless the name says otherwise.
type sweepLayer struct {
	traceEvents, traceBytes  float64
	decodeMBps, encodeMBps   float64
	recordings, replays      float64
	poolUtilPct              float64
	resubmitCellsPerS        float64
	puts, hits, traceHits    float64
	getRawPerS, getTraceMBps float64
}

// serverLayer holds the dtnd numbers of dtnd-mixed.
type serverLayer struct {
	hitPct, coalescedPct, rejectedPct, simPct float64 // of submissions
	clientOverheadPct                         float64 // (client mean − handler mean) ÷ client mean
	maxRateOK                                 float64 // highest ladder rate meeting the latency limit
	latePct                                   float64 // requests dispatched over 1 ms after their due time
	backlogMax                                float64 // most requests due but not yet sent
}

func pct(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * part / whole
}

func perOp(x float64, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return x / float64(ops)
}

// layerMetrics assembles the per-layer metrics of a traced run.
func (e *env) layerMetrics(res *result) (map[string]float64, error) {
	L := res.layers
	m := map[string]float64{}

	// Engine phases as shares of profiled engine time; exchange and
	// transfer are "of which" parts of the contact-handling phases.
	t := L.timing
	if t == nil {
		t = &obs.Timing{}
	}
	layerOf := map[string]string{"events": "sim"}
	for _, name := range obs.PhaseNames() {
		layer := layerOf[name]
		if layer == "" {
			layer = "network"
		}
		m[layer+"."+name] = pct(t.PhaseSeconds(name), t.Seconds)
	}
	transfer := t.PhaseSeconds("contacts") + t.PhaseSeconds("script") - t.ExchangeSeconds
	m["routing.exchange"] = pct(t.ExchangeSeconds, t.Seconds)
	m["routing.transfer"] = pct(max(transfer, 0), t.Seconds)
	m["network.ticks"] = perOp(float64(t.Ticks), L.ops)
	m["routing.exchanges"] = perOp(float64(t.ExchangeCount), L.ops)

	m["work.contacts"] = perOp(L.work.contacts, L.ops)
	m["work.relays"] = perOp(L.work.relays, L.ops)
	m["work.generated"] = perOp(L.work.generated, L.ops)
	m["work.delivered"] = perOp(L.work.delivered, L.ops)
	m["work.gossip_bytes"] = perOp(L.work.gossipBytes, L.ops)

	round := 0.0
	for _, s := range L.cellSecs {
		round += s
	}
	for _, p := range paperProtocols {
		m["cell."+string(p)] = pct(L.cellSecs[string(p)], round)
	}

	c := L.core
	if c == nil {
		c = &coreProbe{}
	}
	m["core.memd_per_s"] = c.memdPerS
	m["core.snapshot_eev_per_s"] = c.snapshotPerS
	m["core.sync_per_s"] = c.syncPerS
	m["core.known_rows"] = c.knownRows

	sw := L.sweep
	if sw == nil {
		sw = &sweepLayer{}
	}
	m["trace.events"] = sw.traceEvents
	m["trace.bytes"] = sw.traceBytes
	m["trace.decode_mb_per_s"] = sw.decodeMBps
	m["trace.encode_mb_per_s"] = sw.encodeMBps
	m["experiment.trace_recordings"] = sw.recordings
	m["experiment.trace_replays"] = sw.replays
	m["experiment.pool_util"] = sw.poolUtilPct
	m["experiment.resubmit_cells_per_s"] = sw.resubmitCellsPerS
	m["resultcache.puts"] = sw.puts
	m["resultcache.hits"] = sw.hits
	m["resultcache.trace_hits"] = sw.traceHits
	m["resultcache.get_raw_per_s"] = sw.getRawPerS
	m["resultcache.get_trace_mb_per_s"] = sw.getTraceMBps

	sv := L.server
	if sv == nil {
		sv = &serverLayer{}
	}
	m["server.hit_ratio"] = sv.hitPct
	m["server.coalesced"] = sv.coalescedPct
	m["server.rejected"] = sv.rejectedPct
	m["server.simulations"] = sv.simPct
	m["http.client_overhead"] = sv.clientOverheadPct
	m["loadgen.max_rate_ok"] = sv.maxRateOK
	m["loadgen.late"] = sv.latePct
	m["loadgen.backlog_max"] = sv.backlogMax

	ops := res.attempted
	secs := e.measured.Seconds()
	m["runtime.mallocs_per_op"] = perOp(float64(e.mem1.Mallocs-e.mem0.Mallocs), ops)
	m["runtime.alloc_mb_per_op"] = perOp(float64(e.mem1.TotalAlloc-e.mem0.TotalAlloc)/(1<<20), ops)
	m["runtime.gc_per_s"] = 0
	if secs > 0 {
		m["runtime.gc_per_s"] = float64(e.mem1.NumGC-e.mem0.NumGC) / secs
	}
	m["runtime.gc_pause"] = pct(float64(e.mem1.PauseTotalNs-e.mem0.PauseTotalNs)/1e9, secs)

	// Tracing overhead: traced ÷ untraced op time. The tail is taken over
	// the untraced ops (requests, where an op is a window of them).
	m["obs.overhead"] = ratio(median(res.tracedOpMs), median(res.opMs))
	lat := res.latMs
	if lat == nil {
		lat = res.opMs
	}
	p, v, n := tail(lat)
	m["op.tail_ms"] = v
	m["op.tail_pct"] = p
	m["op.samples"] = float64(n)

	shares, util, err := cpuShares(e.profPath, e.measured)
	if err != nil {
		return nil, err
	}
	for _, mod := range cpuModules {
		m["cpu."+mod] = shares[mod]
	}
	m["cpu.util"] = util
	return m, nil
}
