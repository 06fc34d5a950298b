// Package obs is the engine's in-line instrumentation layer: monotonic
// phase timers and atomic counters cheap enough to leave on in
// production-shaped runs, with a disabled fast path that costs a nil
// check per phase boundary.
//
// The design contract is bit-neutrality: profiling observes wall time
// only and never touches simulation state, so a profiled run produces
// byte-identical summaries (minus the timing block itself) to an
// unprofiled one. The content-addressed result cache depends on this —
// timing is stripped before results are persisted (see
// experiment.CellResultOf).
//
// Two halves live here:
//
//   - EngineProf / Timing: per-tick phase breakdown for the simulation
//     engine (live and scripted ticks), per-shard busy time of
//     multi-worker ticks for imbalance detection, and routing-exchange
//     timing.
//   - Histogram: a fixed-bucket atomic histogram for the service layer
//     (HTTP request duration, queue wait).
//
// text.go holds the one Prometheus text exposition codec: WriteText
// renders the daemon's /metrics families and ParseText, strict and
// fuzzed, reads them back (load harness, tests).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Phase identifies one segment of engine work. The live tick pipeline
// books its data-parallel phases under Mobility..Expiry and the
// reconciliation loops between them under Merge; the scripted
// (trace-replay) path books contact dispatch under Script; Events is the
// discrete event queue drained between ticks by sim.Runner.
type Phase int

const (
	PhaseEvents   Phase = iota // discrete event queue (traffic, TTL, departures)
	PhaseMobility              // node position advance
	PhaseRebucket              // spatial-grid cell updates for moved nodes
	PhaseScan                  // neighbourhood scan for candidate pairs
	PhasePairs                 // due-pair wheel checks and verdicts
	PhaseLinks                 // active-link distance sweep
	PhaseContacts              // contact establishment + router callbacks
	PhaseExpiry                // buffer TTL expiry sweep
	PhaseMerge                 // reconciliation on the caller between parallel phases
	PhaseScript                // trace replay: scripted contact dispatch
	NumPhases
)

var phaseNames = [NumPhases]string{
	"events", "mobility", "rebucket", "scan", "pairs", "links",
	"contacts", "expiry", "merge", "script",
}

func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return phaseNames[p]
}

// PhaseNames lists the phase labels in enum order (for metric families).
func PhaseNames() []string { return append([]string(nil), phaseNames[:]...) }

// epoch anchors Now: time.Since carries the monotonic clock reading, so
// phase laps are immune to wall-clock steps.
var epoch = time.Now()

// Now returns monotonic nanoseconds since process start. Exported so
// callers that need custom spans (per-shard busy time) share the
// profiler's clock.
func Now() int64 { return int64(time.Since(epoch)) }

// EngineProf accumulates phase time for one engine run. All fields are
// atomics: a multi-worker tick records per-shard busy time from worker
// goroutines while the coordinating goroutine laps phases.
//
// The nil receiver is the disabled state: every method is nil-safe and
// returns immediately, so instrumented code holds a possibly-nil
// *EngineProf and calls through unconditionally.
type EngineProf struct {
	phaseNanos [NumPhases]atomic.Int64
	phaseCount [NumPhases]atomic.Int64
	ticks      atomic.Int64
	exchNanos  atomic.Int64 // router contact callbacks (estimator gossip)
	exchCount  atomic.Int64
	shardBusy  []atomic.Int64 // per-shard worker busy nanos (multi-worker ticks)
}

// Start opens a lap window; pass the result to Lap. Returns 0 when
// disabled.
func (p *EngineProf) Start() int64 {
	if p == nil {
		return 0
	}
	return Now()
}

// Lap books the time since start under ph and returns a fresh start for
// the next phase. No-op when disabled.
func (p *EngineProf) Lap(ph Phase, start int64) int64 {
	if p == nil {
		return 0
	}
	now := Now()
	p.phaseNanos[ph].Add(now - start)
	p.phaseCount[ph].Add(1)
	return now
}

// TickDone counts one completed engine tick.
func (p *EngineProf) TickDone() {
	if p == nil {
		return
	}
	p.ticks.Add(1)
}

// Exchange books one routing-exchange span (router ContactUp/ContactDown
// callbacks — where estimator gossip happens). The span is nested inside
// whatever phase is being lapped; Timing reports it as a separate
// "of which" line rather than an additional phase.
func (p *EngineProf) Exchange(start int64) {
	if p == nil {
		return
	}
	p.exchNanos.Add(Now() - start)
	p.exchCount.Add(1)
}

// EnsureShards sizes the per-shard busy table. Called once when a
// multi-worker world attaches the profiler; not safe concurrently with
// AddShardBusy.
func (p *EngineProf) EnsureShards(n int) {
	if p == nil || n <= len(p.shardBusy) {
		return
	}
	grown := make([]atomic.Int64, n)
	for i := range p.shardBusy {
		grown[i].Store(p.shardBusy[i].Load())
	}
	p.shardBusy = grown
}

// AddShardBusy books worker busy nanos against shard i (out-of-range
// indices are dropped rather than grown — sizing is EnsureShards's job).
func (p *EngineProf) AddShardBusy(i int, nanos int64) {
	if p == nil || i < 0 || i >= len(p.shardBusy) {
		return
	}
	p.shardBusy[i].Add(nanos)
}

// Timing snapshots the accumulated profile. Safe to call while the
// engine runs (the snapshot is merely approximately consistent then);
// callers normally take it once after the run completes.
func (p *EngineProf) Timing() *Timing {
	if p == nil {
		return nil
	}
	t := &Timing{
		Runs:   1,
		Ticks:  p.ticks.Load(),
		Phases: make([]PhaseTiming, NumPhases),
	}
	for i := 0; i < int(NumPhases); i++ {
		s := float64(p.phaseNanos[i].Load()) / 1e9
		t.Phases[i] = PhaseTiming{Phase: Phase(i).String(), Seconds: s, Count: p.phaseCount[i].Load()}
		t.Seconds += s
	}
	t.ExchangeSeconds = float64(p.exchNanos.Load()) / 1e9
	t.ExchangeCount = p.exchCount.Load()
	if len(p.shardBusy) > 0 {
		t.ShardBusySeconds = make([]float64, len(p.shardBusy))
		for i := range p.shardBusy {
			t.ShardBusySeconds[i] = float64(p.shardBusy[i].Load()) / 1e9
		}
	}
	return t
}

// PhaseTiming is one phase's share of a Timing block.
type PhaseTiming struct {
	Phase   string  `json:"phase"`
	Seconds float64 `json:"seconds"`
	Count   int64   `json:"count,omitempty"`
}

// Timing is the wire/report form of an engine profile: the per-run
// phase breakdown attached to metrics.Summary (and stripped before
// results enter the content-addressed cache). Merging is associative,
// so per-seed timings fold into a per-job block and job blocks into a
// figures-run block.
type Timing struct {
	Runs    int     `json:"runs"`    // engine runs merged into this block
	Ticks   int64   `json:"ticks"`   // engine ticks across those runs
	Seconds float64 `json:"seconds"` // total measured phase time

	// Phases holds every phase in enum order, zeros included, so merged
	// blocks align by index and reports are shape-stable.
	Phases []PhaseTiming `json:"phases"`

	// Exchange time is nested inside the contacts/merge/script phases
	// (router ContactUp/Down callbacks), reported as an "of which" line.
	ExchangeSeconds float64 `json:"exchange_seconds"`
	ExchangeCount   int64   `json:"exchange_count,omitempty"`

	// ShardBusySeconds is per-shard worker busy time (multi-worker runs
	// only) — the imbalance lens: max/mean > ~1.2 means uneven shards.
	ShardBusySeconds []float64 `json:"shard_busy_seconds,omitempty"`
}

// MergeTiming folds two timing blocks (either may be nil) into a new
// one. Phase lists align by name so blocks from different code versions
// still merge; shard busy tables align by index.
func MergeTiming(a, b *Timing) *Timing {
	if a == nil && b == nil {
		return nil
	}
	out := &Timing{}
	for _, t := range []*Timing{a, b} {
		if t == nil {
			continue
		}
		out.Runs += t.Runs
		out.Ticks += t.Ticks
		out.Seconds += t.Seconds
		out.ExchangeSeconds += t.ExchangeSeconds
		out.ExchangeCount += t.ExchangeCount
		for _, ph := range t.Phases {
			idx := -1
			for i := range out.Phases {
				if out.Phases[i].Phase == ph.Phase {
					idx = i
					break
				}
			}
			if idx < 0 {
				out.Phases = append(out.Phases, PhaseTiming{Phase: ph.Phase})
				idx = len(out.Phases) - 1
			}
			out.Phases[idx].Seconds += ph.Seconds
			out.Phases[idx].Count += ph.Count
		}
		for i, s := range t.ShardBusySeconds {
			if i >= len(out.ShardBusySeconds) {
				out.ShardBusySeconds = append(out.ShardBusySeconds, make([]float64, i+1-len(out.ShardBusySeconds))...)
			}
			out.ShardBusySeconds[i] += s
		}
	}
	return out
}

// PhaseSeconds returns the booked seconds for the named phase (0 when
// absent).
func (t *Timing) PhaseSeconds(name string) float64 {
	if t == nil {
		return 0
	}
	for _, ph := range t.Phases {
		if ph.Phase == name {
			return ph.Seconds
		}
	}
	return 0
}

// Report renders the block as an aligned human-readable table: phase
// seconds, share of measured time, and per-tick cost; then the exchange
// "of which" line and — when more than one worker ran — the busy-time
// imbalance.
func (t *Timing) Report(w io.Writer) {
	if t == nil {
		fmt.Fprintln(w, "timing: not profiled")
		return
	}
	fmt.Fprintf(w, "engine phase breakdown — %d run(s), %d ticks, %.3f s measured\n", t.Runs, t.Ticks, t.Seconds)
	fmt.Fprintf(w, "  %-10s %10s %7s %12s\n", "phase", "seconds", "share", "per-tick")
	for _, ph := range t.Phases {
		if ph.Count == 0 && ph.Seconds == 0 {
			continue
		}
		share := 0.0
		if t.Seconds > 0 {
			share = 100 * ph.Seconds / t.Seconds
		}
		perTick := "-"
		if t.Ticks > 0 {
			perTick = time.Duration(ph.Seconds / float64(t.Ticks) * 1e9).Round(100 * time.Nanosecond).String()
		}
		fmt.Fprintf(w, "  %-10s %10.3f %6.1f%% %12s\n", ph.Phase, ph.Seconds, share, perTick)
	}
	if t.ExchangeCount > 0 || t.ExchangeSeconds > 0 {
		fmt.Fprintf(w, "  of which routing exchange: %.3f s over %d contacts\n", t.ExchangeSeconds, t.ExchangeCount)
	}
	if n := len(t.ShardBusySeconds); n > 1 {
		var sum, max float64
		for _, s := range t.ShardBusySeconds {
			sum += s
			if s > max {
				max = s
			}
		}
		// One worker has no imbalance to show, and only multi-worker
		// ticks book busy time: report only when they actually ran.
		if max > 0 {
			mean := sum / float64(n)
			fmt.Fprintf(w, "  shard busy: %d shards, mean %.3f s, max %.3f s (imbalance %.2fx)\n", n, mean, max, max/mean)
		}
	}
}

// Histogram is a fixed-bucket atomic histogram: lock-free Observe, read
// via Snapshot. Buckets follow the Prometheus convention — counts[i]
// holds observations <= bounds[i], with one overflow bucket (+Inf) at
// the end.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64  // float64 bits, CAS-accumulated
	total   atomic.Int64
}

// DefaultDurationBuckets spans 1 ms to 30 s — the service's request and
// queue-wait latencies.
func DefaultDurationBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}
}

// NewHistogram builds a histogram over the given strictly ascending
// upper bounds (the +Inf bucket is implicit).
func NewHistogram(bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must be ascending")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] == bounds[i-1] {
			panic("obs: duplicate histogram bound")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 { return h.total.Load() }

// HistogramSnapshot is a point-in-time read of a Histogram. Count sums the
// bucket counts read, so the two agree; Sum may trail or lead them.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds; the +Inf bucket is Counts[len(Bounds)]
	Counts []int64   // per-bucket (non-cumulative) counts
	Sum    float64
	Count  int64
}

// Snapshot reads the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// Quantile estimates the q-quantile (0..1) by linear interpolation
// within the containing bucket. Observations in the +Inf bucket pin the
// estimate to the last finite bound. Returns 0 for an empty histogram
// or one with no finite bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	if total == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if float64(cum) >= rank {
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			if c == 0 {
				return hi
			}
			frac := (rank - float64(cum-c)) / float64(c)
			return lo + frac*(hi-lo)
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}
