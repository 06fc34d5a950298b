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
	_, script, err := s.runWorld(ctx, store, nil, true, nil)
	return script, TraceKey(s), err
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

// runWorld is the one world runner: every (scenario, seed) world — a
// Scenario.Run, a dtnd job's seed, a sweep job, a bare recording — is
// built, profiled, run and summarised here. s.Trace and what the store
// holds pick the world: live, replayed from a recorded script, or live
// while recording ("record", or "auto" on a miss), so mobility is
// simulated once, not twice. A bare world (RecordTrace) has null routers
// and no traffic and is always recorded, with or without a store. A
// recording is persisted to store under TraceKey(s) and returned.
// scripts shares decoded scripts across a job list (nil: read the store
// on every lookup); hook (optional) observes tick progress. A cancelled
// run returns ctx.Err() and persists nothing.
func (s Scenario) runWorld(ctx context.Context, store *resultcache.Store, scripts *scriptTable, bare bool, hook func(t float64)) (metrics.Summary, *trace.Script, error) {
	var sum metrics.Summary
	mode := s.Trace
	switch {
	case bare:
		mode = "record"
	case store == nil && (mode == "record" || mode == "replay"):
		return sum, nil, fmt.Errorf("trace mode %q requires a result store", mode)
	case store == nil:
		mode = "" // auto degrades to live when there is nowhere to look
	}

	var replay *trace.Script
	key := ""
	switch mode {
	case "":
	case "record":
		key = TraceKey(s)
	case "replay", "auto":
		key = TraceKey(s)
		if sc, ok := scripts.load(store, s, key); ok {
			replay = sc
		} else if mode == "replay" {
			return sum, nil, fmt.Errorf("no recorded trace %s for replay", key)
		}
	default:
		return sum, nil, fmt.Errorf("unknown trace mode %q (have record, replay, auto)", mode)
	}

	var router func(int) network.Router
	if bare {
		router = func(int) network.Router { return nullRouter{} }
	}
	w, runner := s.build(replay, router)
	prof := s.attachProfiler(w, runner)
	var rec *trace.ScriptRecorder
	if replay == nil && key != "" {
		rec = trace.NewScriptRecorder(s.Nodes)
		w.OnContact(rec.Note)
	}
	if err := runner.RunContext(ctx, s.Duration, pollEvery(s), hook); err != nil {
		return sum, nil, err // cancelled mid-run; persist nothing
	}
	sum = w.Metrics.Summary()
	sum.Timing = prof.Timing()
	if replay != nil {
		traceReplays.Add(1)
	}
	if rec == nil {
		return sum, nil, nil
	}
	traceRecordings.Add(1)
	script := rec.Script()
	if store != nil {
		if err := store.PutTrace(key, script.Encode()); err != nil && mode == "record" {
			// Record mode promised a persisted trace; auto mode treats the
			// blob as a best-effort optimization and the run's summary
			// stands either way.
			return sum, script, fmt.Errorf("experiment: persist trace %s: %w", key, err)
		}
	}
	return sum, script, nil
}
