package experiment

// Contact-trace record/replay orchestration: the world-defining subset of
// a scenario is hashed into a trace content address, recorded contact
// scripts are persisted as blobs in the shared result store, and the
// store-threaded run path (RunSpecStore, sweeps, dtnd jobs) dispatches on
// Scenario.Trace to run replayed worlds that skip mobility and contact
// detection entirely. Replay is sound because the contact sequence
// depends only on the world fields below — routers, traffic, buffers and
// gossip never read positions or perturb movers — and the engine is
// bit-deterministic, so a replayed run's summary is identical to the
// live run it stands in for (pinned by TestReplayParity*).

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/mapgen"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/network"
	"repro/internal/resultcache"
	"repro/internal/trace"
)

// TraceVersion is baked into every trace content address. Bump it
// whenever the recorded contact sequence could change for an unchanged
// world (mover RNG streams, detector semantics, script wire format).
const TraceVersion = 1

// traceWorld is the hashed trace-key payload: exactly the fields that
// determine a world's contact sequence. Protocol, traffic, buffers,
// bandwidth, gossip and sharding are deliberately absent — scenarios
// differing only in those share one recorded world.
type traceWorld struct {
	Version  int
	Nodes    int
	Seed     int64
	Duration float64
	Tick     float64
	Range    float64
	Mobility string
	MinSpeed float64
	MaxSpeed float64
	MinDwell float64
	MaxDwell float64
	Map      mapgen.Config
	MapSeed  int64
}

func traceWorldOf(s Scenario) traceWorld {
	return traceWorld{
		Version:  TraceVersion,
		Nodes:    s.Nodes,
		Seed:     s.Seed,
		Duration: s.Duration,
		Tick:     s.Tick,
		Range:    s.Range,
		Mobility: s.Mobility,
		MinSpeed: s.MinSpeed,
		MaxSpeed: s.MaxSpeed,
		MinDwell: s.MinDwell,
		MaxDwell: s.MaxDwell,
		Map:      s.Map,
		MapSeed:  s.MapSeed,
	}
}

// TraceKey returns the content address of the scenario's recorded world:
// the SHA-256 of its world-defining fields (seed included). Scenarios
// that differ only in protocol or routing parameters share a key.
func TraceKey(s Scenario) string {
	data, err := json.Marshal(traceWorldOf(s))
	if err != nil {
		panic("experiment: trace key marshal: " + err.Error()) // fixed struct, cannot fail
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// traceGroupKey is TraceKey with the seed zeroed: scenarios with the same
// group key (protocol/routing-only differences) share recorded worlds
// across their whole seed list. Plan groups cells by it.
func traceGroupKey(s Scenario) string {
	s.Seed = 0
	return TraceKey(s)
}

// Process-wide trace counters, for tests and the daemon's /metrics: how
// many worlds were recorded (live or bare) and how many runs were served
// by replay instead of live simulation.
var (
	traceRecordings atomic.Int64
	traceReplays    atomic.Int64
)

// TraceRecordings returns the number of contact-trace recordings
// performed by this process.
func TraceRecordings() int64 { return traceRecordings.Load() }

// TraceReplays returns the number of simulation runs served by contact
// replay instead of live mobility in this process.
func TraceReplays() int64 { return traceReplays.Load() }

// loadScript fetches and decodes the recorded script for the scenario.
// Any failure — absent blob, torn write, format drift, node-count
// mismatch — is a miss; the caller records instead.
func loadScript(store *resultcache.Store, s Scenario, key string) (*trace.Script, bool) {
	data, ok := store.GetTrace(key)
	if !ok {
		return nil, false
	}
	sc, err := trace.DecodeScript(data)
	if err != nil || sc.N != s.Nodes {
		return nil, false
	}
	return sc, true
}

// scriptTable decodes each recorded world once per RunSpecsStore call:
// every replay of one (world, seed) in the call shares one immutable
// *trace.Script. Only hits are kept. A miss is read from the store again
// on the next lookup, because an auto run may have recorded the world
// meanwhile, and the store stays the source of truth across calls. A nil
// table reads the store on every lookup.
type scriptTable struct {
	mu    sync.Mutex
	slots map[string]*scriptSlot
}

// scriptSlot is one trace key's entry; once guards the load.
type scriptSlot struct {
	once   sync.Once
	script *trace.Script
}

func newScriptTable() *scriptTable {
	return &scriptTable{slots: map[string]*scriptSlot{}}
}

// load returns the decoded script for the scenario's trace key, from the
// table or, on its first use in the call, from the store.
func (t *scriptTable) load(store *resultcache.Store, s Scenario, key string) (*trace.Script, bool) {
	if t == nil {
		return loadScript(store, s, key)
	}
	t.mu.Lock()
	slot := t.slots[key]
	if slot == nil {
		slot = &scriptSlot{}
		t.slots[key] = slot
	}
	t.mu.Unlock()
	slot.once.Do(func() { slot.script, _ = loadScript(store, s, key) })
	if slot.script != nil {
		return slot.script, true
	}
	t.mu.Lock()
	if t.slots[key] == slot {
		delete(t.slots, key) // misses are not kept
	}
	t.mu.Unlock()
	return nil, false
}

// nullRouter is the passive router of bare recording worlds: with no
// traffic generator installed, no messages ever exist and contacts carry
// no transfers, so a bare run costs mobility + detection only — and its
// contact sequence is identical to any protocol run of the same world.
type nullRouter struct{}

func (nullRouter) Init(*network.Node, *network.World)                {}
func (nullRouter) InitialReplicas(*msg.Message) int                  { return 1 }
func (nullRouter) ContactUp(float64, *network.Node)                  {}
func (nullRouter) ContactDown(float64, *network.Node)                {}
func (nullRouter) NextTransfer(float64, *network.Node) *network.Plan { return nil }
func (nullRouter) Created(float64, *msg.Copy)                        {}
func (nullRouter) Received(float64, *msg.Copy, *network.Node)        {}
func (nullRouter) Sent(float64, *network.Plan, *network.Node, bool)  {}

// RecordTrace runs a bare mobility-only world for the scenario (no
// routers, no traffic), records its contact script and persists it under
// the scenario's trace key. It returns the script and its key. The
// context cancels between ticks; a cancelled recording persists nothing.
func RecordTrace(ctx context.Context, s Scenario, store *resultcache.Store) (*trace.Script, string, error) {
	key := TraceKey(s)
	w, runner := BuildBare(s, func(int) network.Router { return nullRouter{} })
	rec := trace.NewScriptRecorder(s.Nodes)
	w.OnContact(rec.Note)
	every := pollEvery(s)
	if err := runner.RunContext(ctx, s.Duration, every, nil); err != nil {
		return nil, key, err
	}
	sc := rec.Script()
	traceRecordings.Add(1)
	if store != nil {
		if err := store.PutTrace(key, sc.Encode()); err != nil {
			return sc, key, fmt.Errorf("experiment: persist trace %s: %w", key, err)
		}
	}
	return sc, key, nil
}

// pollEvery is the shared tick granularity for progress emission and
// cancellation polling: ~2% of the run, at least every tick.
func pollEvery(s Scenario) int {
	every := int(s.Duration / s.Tick / 50)
	if every < 1 {
		every = 1
	}
	return every
}

// recordTraces pre-records the given worlds on the shared pool. Failures
// of individual recordings are tolerated — the affected cells fall back
// to live runs (recording again, best effort) — but cancellation aborts.
func recordTraces(ctx context.Context, scens []Scenario, store *resultcache.Store) error {
	forEachJobCtx(ctx, len(scens), func(i int) {
		_, _, _ = RecordTrace(ctx, scens[i], store)
	})
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}

// runScenario executes one resolved (scenario, seed) through the trace
// dispatch: live, replayed, or live-while-recording, per s.Trace and
// what the store holds. hook (optional) observes tick progress. It
// returns done=false without error when ctx cancelled the run mid-way.
func runScenario(ctx context.Context, s Scenario, store *resultcache.Store, hook func(t float64)) (sum metrics.Summary, done bool, err error) {
	return runScenarioScripts(ctx, s, store, nil, hook)
}

// runScenarioScripts is runScenario reading recorded scripts through
// scripts (nil: straight from the store).
func runScenarioScripts(ctx context.Context, s Scenario, store *resultcache.Store, scripts *scriptTable, hook func(t float64)) (sum metrics.Summary, done bool, err error) {
	mode := s.Trace
	if store == nil && mode != "" {
		if mode == "record" || mode == "replay" {
			return sum, false, fmt.Errorf("trace mode %q requires a result store", mode)
		}
		mode = "" // auto degrades to live when there is nowhere to look
	}

	var script *trace.Script
	key := ""
	switch mode {
	case "":
	case "record":
		key = TraceKey(s)
	case "replay", "auto":
		key = TraceKey(s)
		if sc, ok := scripts.load(store, s, key); ok {
			script = sc
		} else if mode == "replay" {
			return sum, false, fmt.Errorf("no recorded trace %s for replay", key)
		}
	default:
		return sum, false, fmt.Errorf("unknown trace mode %q (have record, replay, auto)", mode)
	}

	if script != nil {
		w, runner := s.BuildReplay(script)
		prof := s.attachProfiler(w, runner)
		if runner.RunContext(ctx, s.Duration, pollEvery(s), hook) != nil {
			return sum, false, nil // cancelled mid-run
		}
		traceReplays.Add(1)
		sum = w.Metrics.Summary()
		sum.Timing = prof.Timing()
		return sum, true, nil
	}

	// Live run; in record (or auto-with-no-script) mode the protocol run
	// doubles as the recording — mobility is simulated once, not twice.
	w, runner := s.Build()
	prof := s.attachProfiler(w, runner)
	var rec *trace.ScriptRecorder
	if key != "" {
		rec = trace.NewScriptRecorder(s.Nodes)
		w.OnContact(rec.Note)
	}
	if runner.RunContext(ctx, s.Duration, pollEvery(s), hook) != nil {
		return sum, false, nil // cancelled mid-run; persist nothing
	}
	if rec != nil {
		traceRecordings.Add(1)
		if err := store.PutTrace(key, rec.Script().Encode()); err != nil && mode == "record" {
			// Explicit record mode promised a persisted trace; auto mode
			// treats the blob as a best-effort optimization and the run's
			// summary stands either way.
			return sum, false, fmt.Errorf("experiment: persist trace %s: %w", key, err)
		}
	}
	sum = w.Metrics.Summary()
	sum.Timing = prof.Timing()
	return sum, true, nil
}
