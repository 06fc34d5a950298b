package experiment

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/resultcache"
)

// This file is the declarative face of the experiment layer: ScenarioSpec
// is a JSON document describing one simulation job — a preset name plus
// field overrides — that resolves to exactly one Scenario and seed list.
// The named presets re-express the hard-coded scenario constructors
// (Quick, CityScale, the Figure-2 column base) as specs, so "a scenario
// someone imagined" and "a scenario the paper ran" travel through one code
// path: spec → resolve → validate → Scenario. dtnd accepts specs over
// HTTP; the canonical serialization of the resolved job is hashed into the
// content address its result cache is keyed by.

// SpecVersion is baked into every cache key. Bump it whenever simulation
// semantics change (protocol behaviour, RNG streams, engine physics), so
// stale cached results can never be served for a new engine.
const SpecVersion = 1

// ScenarioSpec is a declarative simulation job: a base preset and a set of
// optional overrides. Pointer fields distinguish "leave the preset value"
// (absent) from "set to the zero value" (explicit 0/false). The zero spec
// resolves to the paper's Section V-A defaults with seed 1.
type ScenarioSpec struct {
	// Preset names the base scenario: "default" (or empty), "quick",
	// "figure2" (alias of default — the Figure-2 column base; pick
	// protocol and nodes per point), "cityscale" or "metroscale".
	Preset string `json:"preset,omitempty"`

	Protocol *string `json:"protocol,omitempty"`
	Nodes    *int    `json:"nodes,omitempty"`
	// Seeds lists the seeds to run and average over; default [1].
	Seeds []int64 `json:"seeds,omitempty"`

	// Protocol parameters.
	Lambda            *int     `json:"lambda,omitempty"`
	Alpha             *float64 `json:"alpha,omitempty"`
	Window            *int     `json:"window,omitempty"`
	ForwardHysteresis *float64 `json:"forward_hysteresis,omitempty"`
	SparseEstimators  *bool    `json:"sparse_estimators,omitempty"`
	MaxSparseRows     *int     `json:"max_sparse_rows,omitempty"`
	// Gossip selects the estimator exchange metering: "fresher" (default),
	// "flood" or "delta" (see Scenario.Gossip).
	Gossip *string `json:"gossip,omitempty"`

	// Simulation parameters.
	Duration *float64 `json:"duration,omitempty"`
	Tick     *float64 `json:"tick,omitempty"`
	// Shards accepts a worker count or the string "auto" (size to the
	// machine's cores at run time).
	Shards *ShardCount `json:"shards,omitempty"`

	// Physical layer.
	Range     *float64 `json:"range,omitempty"`
	Bandwidth *float64 `json:"bandwidth,omitempty"`
	BufBytes  *int     `json:"buf_bytes,omitempty"`

	// Traffic.
	MsgSize        *int     `json:"msg_size,omitempty"`
	TTL            *float64 `json:"ttl,omitempty"`
	MsgIntervalMin *float64 `json:"msg_interval_min,omitempty"`
	MsgIntervalMax *float64 `json:"msg_interval_max,omitempty"`
	TrafficStop    *float64 `json:"traffic_stop,omitempty"`

	// Mobility.
	Mobility *string  `json:"mobility,omitempty"`
	MinSpeed *float64 `json:"min_speed,omitempty"`
	MaxSpeed *float64 `json:"max_speed,omitempty"`
	MinDwell *float64 `json:"min_dwell,omitempty"`
	MaxDwell *float64 `json:"max_dwell,omitempty"`
	MapSeed  *int64   `json:"map_seed,omitempty"`
	Map      *MapSpec `json:"map,omitempty"`

	// Trace selects the contact-trace fast path: "record", "replay" or
	// "auto" (see Scenario.Trace). It requires a result store (dtnd, or a
	// CLI with -cache) and never changes the result — replayed runs are
	// bit-identical to live ones — so it is excluded from the cache key.
	Trace *string `json:"trace,omitempty"`

	// Profile attaches the engine phase profiler (see Scenario.Profile):
	// fresh runs return summaries carrying a timing block. Profiling
	// never changes simulation results, so like Trace it is excluded
	// from the cache key — a cached (timing-free) result satisfies a
	// profiled request.
	Profile *bool `json:"profile,omitempty"`
}

// MapSpec overrides road-map generation parameters (mapgen.Config).
type MapSpec struct {
	Width        *float64 `json:"width,omitempty"`
	Height       *float64 `json:"height,omitempty"`
	GridX        *int     `json:"grid_x,omitempty"`
	GridY        *int     `json:"grid_y,omitempty"`
	Diagonals    *int     `json:"diagonals,omitempty"`
	Jitter       *float64 `json:"jitter,omitempty"`
	Lines        *int     `json:"lines,omitempty"`
	StopsPerLine *int     `json:"stops_per_line,omitempty"`
	Districts    *int     `json:"districts,omitempty"`
}

// ShardCount is a spec-level shard count: a JSON number, or the string
// "auto" for network.AutoShards (resolve to the machine's core count when
// the world is built — the right setting for presets that must scale to
// whatever machine runs them, like metroscale).
type ShardCount int

// AutoShards mirrors network.AutoShards at the spec level.
const AutoShards = ShardCount(network.AutoShards)

// UnmarshalJSON accepts a non-negative integer or the string "auto".
func (c *ShardCount) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		if s != "auto" {
			return fmt.Errorf("bad shards %q (want a count or \"auto\")", s)
		}
		*c = AutoShards
		return nil
	}
	var n int
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("bad shards %s (want a count or \"auto\")", data)
	}
	*c = ShardCount(n)
	return nil
}

// MarshalJSON emits "auto" for the sentinel so specs round-trip.
func (c ShardCount) MarshalJSON() ([]byte, error) {
	if c < 0 {
		return []byte(`"auto"`), nil
	}
	return json.Marshal(int(c))
}

// ParseShards parses a command-line shard count: a number, or "auto" for
// network.AutoShards. The CLIs share it so every -shards flag speaks the
// same dialect as the spec field.
func ParseShards(s string) (int, error) {
	if s == "auto" {
		return network.AutoShards, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad shards %q (want a count or \"auto\")", s)
	}
	return n, nil
}

// ptr returns a pointer to v — spec-literal shorthand.
func ptr[T any](v T) *T { return &v }

// Ptr returns a pointer to v: shorthand for building ScenarioSpec
// override fields (cmd/sweep and cmd/figures assemble bases with it).
func Ptr[T any](v T) *T { return &v }

// QuickSpec declares the scaled-down test scenario (Quick) as a spec.
func QuickSpec() ScenarioSpec {
	return ScenarioSpec{
		Nodes:    ptr(60),
		Duration: ptr(2500.0),
		Tick:     ptr(0.5),
	}
}

// CityScaleSpec declares the >=10k-node city scenario (CityScale) as a
// spec: a metropolitan-sized map, "city" mobility (buses + district
// walkers) and an engine-benchmark default protocol.
func CityScaleSpec() ScenarioSpec {
	return ScenarioSpec{
		Protocol: ptr(string(SprayAndWait)),
		Nodes:    ptr(10000),
		Mobility: ptr("city"),
		Duration: ptr(600.0),
		Tick:     ptr(0.5),
		Map: &MapSpec{
			Width:        ptr(12000.0),
			Height:       ptr(9000.0),
			GridX:        ptr(40),
			GridY:        ptr(30),
			Diagonals:    ptr(8),
			Lines:        ptr(40),
			StopsPerLine: ptr(8),
			Districts:    ptr(8),
		},
	}
}

// MetroScaleSpec declares the 100k-node metropolitan scenario: a city map
// double CityScale's extent with triple the transit lines and districts,
// auto-sized tick sharding (sub-grid re-bucketing keeps the serial merge
// boundary-only at this density) and delta gossip — at 100k nodes a smart
// protocol's link-state exchange is the dominant byte stream, so the
// estimator runs the digest protocol rather than the accounting-only
// default. The default protocol is EER over the sparse estimator core;
// Duration is kept short (the fleet covers the map from tick one, so even
// minutes of simulated time exercise steady-state churn) and can be
// overridden for long-horizon runs.
func MetroScaleSpec() ScenarioSpec {
	return ScenarioSpec{
		Protocol:       ptr(string(EER)),
		Nodes:          ptr(100_000),
		Mobility:       ptr("city"),
		Duration:       ptr(300.0),
		Tick:           ptr(0.5),
		Shards:         ptr(AutoShards),
		Gossip:         ptr("delta"),
		MaxSparseRows:  ptr(256),
		MsgIntervalMin: ptr(5.0),
		MsgIntervalMax: ptr(10.0),
		Map: &MapSpec{
			Width:        ptr(24000.0),
			Height:       ptr(18000.0),
			GridX:        ptr(60),
			GridY:        ptr(45),
			Diagonals:    ptr(12),
			Lines:        ptr(120),
			StopsPerLine: ptr(10),
			Districts:    ptr(24),
		},
	}
}

// Figure2Spec declares one cell of the paper's Figure-2 sweep — protocol p
// at the given node count — as a spec over the default (Section V-A) base.
func Figure2Spec(p Protocol, nodes int, seeds []int64) ScenarioSpec {
	return ScenarioSpec{
		Preset:   "figure2",
		Protocol: ptr(string(p)),
		Nodes:    ptr(nodes),
		Seeds:    seeds,
	}
}

// PresetSpecs returns the named base specs dtnd advertises. Each value
// resolves on top of the paper defaults, so presets themselves travel the
// same resolve path as user-authored specs.
func PresetSpecs() map[string]ScenarioSpec {
	return map[string]ScenarioSpec{
		"default":    {},
		"figure2":    {},
		"quick":      QuickSpec(),
		"cityscale":  CityScaleSpec(),
		"metroscale": MetroScaleSpec(),
	}
}

// presetScenario resolves a preset name to its base Scenario.
func presetScenario(name string) (Scenario, error) {
	switch name {
	case "", "default", "figure2":
		return Default(), nil
	case "quick":
		return QuickSpec().apply(Default()), nil
	case "cityscale":
		return CityScaleSpec().apply(Default()), nil
	case "metroscale":
		return MetroScaleSpec().apply(Default()), nil
	default:
		return Scenario{}, fmt.Errorf("unknown preset %q (have default, figure2, quick, cityscale, metroscale)", name)
	}
}

// apply overlays the spec's overrides onto base, without validation.
func (sp ScenarioSpec) apply(base Scenario) Scenario {
	s := base
	if sp.Protocol != nil {
		s.Protocol = Protocol(*sp.Protocol)
	}
	if sp.Nodes != nil {
		s.Nodes = *sp.Nodes
	}
	if sp.Lambda != nil {
		s.Lambda = *sp.Lambda
	}
	if sp.Alpha != nil {
		s.Alpha = *sp.Alpha
	}
	if sp.Window != nil {
		s.Window = *sp.Window
	}
	if sp.ForwardHysteresis != nil {
		s.ForwardHysteresis = *sp.ForwardHysteresis
	}
	if sp.SparseEstimators != nil {
		s.SparseEstimators = *sp.SparseEstimators
	}
	if sp.MaxSparseRows != nil {
		s.MaxSparseRows = *sp.MaxSparseRows
	}
	if sp.Gossip != nil {
		s.Gossip = *sp.Gossip
	}
	if sp.Duration != nil {
		s.Duration = *sp.Duration
	}
	if sp.Tick != nil {
		s.Tick = *sp.Tick
	}
	if sp.Shards != nil {
		s.Shards = int(*sp.Shards)
	}
	if sp.Range != nil {
		s.Range = *sp.Range
	}
	if sp.Bandwidth != nil {
		s.Bandwidth = *sp.Bandwidth
	}
	if sp.BufBytes != nil {
		s.BufBytes = *sp.BufBytes
	}
	if sp.MsgSize != nil {
		s.MsgSize = *sp.MsgSize
	}
	if sp.TTL != nil {
		s.TTL = *sp.TTL
	}
	if sp.MsgIntervalMin != nil {
		s.MsgIntervalMin = *sp.MsgIntervalMin
	}
	if sp.MsgIntervalMax != nil {
		s.MsgIntervalMax = *sp.MsgIntervalMax
	}
	if sp.TrafficStop != nil {
		s.TrafficStop = *sp.TrafficStop
	}
	if sp.Mobility != nil {
		s.Mobility = *sp.Mobility
	}
	if sp.MinSpeed != nil {
		s.MinSpeed = *sp.MinSpeed
	}
	if sp.MaxSpeed != nil {
		s.MaxSpeed = *sp.MaxSpeed
	}
	if sp.MinDwell != nil {
		s.MinDwell = *sp.MinDwell
	}
	if sp.MaxDwell != nil {
		s.MaxDwell = *sp.MaxDwell
	}
	if sp.MapSeed != nil {
		s.MapSeed = *sp.MapSeed
	}
	if sp.Trace != nil {
		s.Trace = *sp.Trace
	}
	if sp.Profile != nil {
		s.Profile = *sp.Profile
	}
	if m := sp.Map; m != nil {
		if m.Width != nil {
			s.Map.Width = *m.Width
		}
		if m.Height != nil {
			s.Map.Height = *m.Height
		}
		if m.GridX != nil {
			s.Map.GridX = *m.GridX
		}
		if m.GridY != nil {
			s.Map.GridY = *m.GridY
		}
		if m.Diagonals != nil {
			s.Map.Diagonals = *m.Diagonals
		}
		if m.Jitter != nil {
			s.Map.Jitter = *m.Jitter
		}
		if m.Lines != nil {
			s.Map.Lines = *m.Lines
		}
		if m.StopsPerLine != nil {
			s.Map.StopsPerLine = *m.StopsPerLine
		}
		if m.Districts != nil {
			s.Map.Districts = *m.Districts
		}
	}
	return s
}

// Scenario resolves the spec — preset base, then overrides — and
// validates the result. The returned scenario carries the first seed of
// the seed list; RunSpec substitutes the others.
func (sp ScenarioSpec) Scenario() (Scenario, error) {
	base, err := presetScenario(sp.Preset)
	if err != nil {
		return Scenario{}, err
	}
	s := sp.apply(base)
	s.Seed = sp.SeedList()[0]
	if len(sp.SeedList()) > maxSeeds {
		return Scenario{}, fmt.Errorf("at most %d seeds per job, got %d", maxSeeds, len(sp.SeedList()))
	}
	if err := validateScenario(s); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// SeedList returns the spec's seeds, defaulting to [1].
func (sp ScenarioSpec) SeedList() []int64 {
	if len(sp.Seeds) == 0 {
		return []int64{1}
	}
	return sp.Seeds
}

// Resource ceilings for spec-submitted jobs. dtnd is network-facing: a
// validated spec must not be able to wedge the daemon's only job slot or
// OOM the process, so beyond the engine's lower bounds, specs get upper
// bounds too. The limits are far above every paper scenario (CityScale is
// 10k nodes, 1.2k ticks, ~400 messages) yet small enough that an accepted
// job always terminates in bounded memory. CLI paths construct Scenario
// directly and are not subject to them.
const (
	maxNodes  = 200_000    // 20x CityScale; per-node engine state stays allocatable
	maxTicks  = 50_000_000 // duration/tick steps per seed
	maxEvents = 10_000_000 // generated messages per seed (duration/min interval)
	maxSeeds  = 64         // seeds per job
	maxShards = 256        // per-shard scratch is allocated eagerly; beyond cores it only slows ticks
)

// CheckProtocol reports whether p names a registered protocol — the check
// spec validation applies, for CLIs to run on their flags up front.
func CheckProtocol(p Protocol) error {
	if _, ok := routerFactories[p]; !ok {
		return fmt.Errorf("unknown protocol %q", p)
	}
	return nil
}

// CheckMobility reports whether m names a mobility model ("" selects the
// default), as spec validation does.
func CheckMobility(m string) error {
	switch m {
	case "", "bus", "rwp", "city":
		return nil
	}
	return fmt.Errorf("unknown mobility model %q (have bus, rwp, city)", m)
}

// validateScenario rejects resolved scenarios the engine would panic on or
// silently misbehave with, and scenarios beyond the service ceilings.
func validateScenario(s Scenario) error {
	if err := CheckProtocol(s.Protocol); err != nil {
		return err
	}
	if err := CheckMobility(s.Mobility); err != nil {
		return err
	}
	if s.Nodes < 2 {
		return fmt.Errorf("need at least two nodes, got %d", s.Nodes)
	}
	if s.Nodes > maxNodes {
		return fmt.Errorf("at most %d nodes, got %d", maxNodes, s.Nodes)
	}
	if s.Lambda < 1 {
		return fmt.Errorf("lambda must be >= 1, got %d", s.Lambda)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("duration must be positive, got %g", s.Duration)
	}
	if s.Tick <= 0 {
		return fmt.Errorf("tick must be positive, got %g", s.Tick)
	}
	if s.Duration/s.Tick > maxTicks {
		return fmt.Errorf("duration/tick = %g steps exceeds the %d-step job ceiling", s.Duration/s.Tick, maxTicks)
	}
	if (s.Shards < 0 && s.Shards != network.AutoShards) || s.Shards > maxShards {
		return fmt.Errorf("shards must be in [0, %d] or %d (auto), got %d", maxShards, network.AutoShards, s.Shards)
	}
	if s.Range <= 0 || s.Bandwidth <= 0 {
		return fmt.Errorf("range and bandwidth must be positive, got %g and %g", s.Range, s.Bandwidth)
	}
	if s.MsgSize <= 0 {
		return fmt.Errorf("message size must be positive, got %d", s.MsgSize)
	}
	if s.TTL <= 0 {
		return fmt.Errorf("ttl must be positive, got %g", s.TTL)
	}
	if s.MsgIntervalMin <= 0 || s.MsgIntervalMax < s.MsgIntervalMin {
		return fmt.Errorf("message interval must satisfy 0 < min <= max, got [%g, %g]",
			s.MsgIntervalMin, s.MsgIntervalMax)
	}
	if s.Duration/s.MsgIntervalMin > maxEvents {
		return fmt.Errorf("duration/message interval = %g messages exceeds the %d-message job ceiling",
			s.Duration/s.MsgIntervalMin, maxEvents)
	}
	if s.MaxSparseRows < 0 {
		return fmt.Errorf("max_sparse_rows must be >= 0, got %d", s.MaxSparseRows)
	}
	if _, err := core.ParseExchangeMode(s.Gossip); err != nil {
		return err
	}
	switch s.Trace {
	case "", "record", "replay", "auto":
	default:
		return fmt.Errorf("unknown trace mode %q (have record, replay, auto)", s.Trace)
	}
	if s.Map.GridX < 2 || s.Map.GridY < 2 || s.Map.Lines < 1 || s.Map.StopsPerLine < 2 ||
		s.Map.Districts < 1 || s.Map.Width <= 0 || s.Map.Height <= 0 {
		return fmt.Errorf("degenerate map config %+v", s.Map)
	}
	return nil
}

// ParseSpec decodes a JSON spec strictly: unknown fields are errors, so a
// typo like "protocl" fails the submission instead of silently running the
// preset default.
func ParseSpec(data []byte) (ScenarioSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp ScenarioSpec
	if err := dec.Decode(&sp); err != nil {
		return ScenarioSpec{}, fmt.Errorf("bad scenario spec: %w", err)
	}
	return sp, nil
}

// canonicalJob is the hashed cache-key payload: the fully resolved
// scenario (all defaults filled, per-run seed zeroed — the seed axis lives
// in Seeds) plus the spec version. Two specs that resolve to the same
// simulation share a key no matter how they were written; any semantic
// difference — one field, one seed — produces a different key.
type canonicalJob struct {
	Version  int
	Scenario Scenario
	Seeds    []int64
}

// CanonicalJSON returns the canonical serialization of the resolved job —
// the cache-key preimage, also useful for humans diffing what two specs
// actually run.
func (sp ScenarioSpec) CanonicalJSON() ([]byte, error) {
	s, err := sp.Scenario()
	if err != nil {
		return nil, err
	}
	s.Seed = 0
	return json.Marshal(canonicalJob{Version: SpecVersion, Scenario: s, Seeds: sp.SeedList()})
}

// CacheKey returns the content address of the spec's result: the SHA-256
// of its canonical serialization, hex-encoded.
func (sp ScenarioSpec) CacheKey() (string, error) {
	data, err := sp.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// RunSpec executes the spec over its seed list through the shared bounded
// pool and returns the per-seed summaries in seed order.
func RunSpec(sp ScenarioSpec) ([]metrics.Summary, error) {
	return RunSpecProgress(sp, nil)
}

// RunSpecProgress is RunSpec with live progress: when progress is non-nil
// it receives throttled per-seed metrics.Progress events (from pool worker
// goroutines — the callback must be safe for concurrent use) whose Frac
// aggregates completion across all seeds. Observation does not perturb the
// run: summaries are bit-identical with and without a progress callback.
func RunSpecProgress(sp ScenarioSpec, progress func(metrics.Progress)) ([]metrics.Summary, error) {
	return RunSpecContext(nil, sp, progress)
}

// RunSpecContext is RunSpecProgress with cooperative cancellation: once
// ctx is cancelled, seeds not yet started are skipped (even while waiting
// for a pool permit) and running seeds stop after their current tick, so a
// cancelled dtnd job stops simulating and releases its compute promptly.
// It returns ctx.Err() on cancellation; a nil ctx never cancels, and a
// run that completes is bit-identical to an uncancellable one.
func RunSpecContext(ctx context.Context, sp ScenarioSpec, progress func(metrics.Progress)) ([]metrics.Summary, error) {
	return RunSpecStore(ctx, sp, nil, progress)
}

// RunSpecStore is RunSpecContext with a result store attached, enabling
// the spec's trace mode ("record"/"replay"/"auto"): recorded contact
// scripts are looked up and persisted there. A nil store runs every seed
// live ("auto" degrades gracefully; explicit "record"/"replay" error).
func RunSpecStore(ctx context.Context, sp ScenarioSpec, store *resultcache.Store, progress func(metrics.Progress)) ([]metrics.Summary, error) {
	s, err := sp.Scenario()
	if err != nil {
		return nil, err
	}
	seeds := sp.SeedList()
	sums := make([]metrics.Summary, len(seeds))
	errs := make([]error, len(seeds))

	var mu sync.Mutex
	fracs := make([]float64, len(seeds)) // per-seed completion in [0,1]
	emit := func(i int, t, duration float64) {
		mu.Lock()
		defer mu.Unlock()
		fracs[i] = t / duration
		total := 0.0
		for _, f := range fracs {
			total += f
		}
		// Deliver under the lock: events arrive in non-decreasing Frac
		// order even when seeds run on parallel workers. Callbacks are
		// cheap (dtnd appends to a slice), so serializing them costs
		// nothing against the simulation work between two emits.
		progress(metrics.Progress{
			Seed:     i,
			Seeds:    len(seeds),
			T:        t,
			Duration: duration,
			Frac:     total / float64(len(seeds)),
		})
	}

	forEachJobCtx(ctx, len(seeds), func(i int) {
		sc := s
		sc.Seed = seeds[i]
		var hook func(t float64)
		if progress != nil {
			hook = func(t float64) { emit(i, t, sc.Duration) }
		}
		sum, done, err := runScenario(ctx, sc, store, hook)
		if err != nil {
			errs[i] = fmt.Errorf("seed %d: %w", sc.Seed, err)
			return
		}
		if done {
			sums[i] = sum
		}
	})
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sums, nil
}

// RunSpecsContext resolves and executes several specs as one flattened
// (spec, seed) job list over the shared bounded pool — the sweep
// execution path: every cell of a parameter grid makes progress
// concurrently instead of cell-by-cell. The per-spec, per-seed summaries
// come back indexed [spec][seed]; every spec is validated before any
// simulation starts. Cancellation follows RunSpecContext semantics.
func RunSpecsContext(ctx context.Context, sps []ScenarioSpec) ([][]metrics.Summary, error) {
	return RunSpecsStore(ctx, sps, nil)
}

// RunSpecsStore is RunSpecsContext with a result store attached: each
// spec's trace mode runs against it (see RunSpecStore). The sweep path
// uses it so protocol-only cells replay one recorded world per seed.
func RunSpecsStore(ctx context.Context, sps []ScenarioSpec, store *resultcache.Store) ([][]metrics.Summary, error) {
	type cellJob struct {
		scenario Scenario
		spec     int
		seed     int
	}
	var jobs []cellJob
	out := make([][]metrics.Summary, len(sps))
	for si, sp := range sps {
		s, err := sp.Scenario()
		if err != nil {
			return nil, fmt.Errorf("spec %d: %w", si, err)
		}
		seeds := sp.SeedList()
		out[si] = make([]metrics.Summary, len(seeds))
		for i, seed := range seeds {
			sc := s
			sc.Seed = seed
			jobs = append(jobs, cellJob{scenario: sc, spec: si, seed: i})
		}
	}
	errs := make([]error, len(jobs))
	forEachJobCtx(ctx, len(jobs), func(i int) {
		j := jobs[i]
		sum, done, err := runScenario(ctx, j.scenario, store, nil)
		if err != nil {
			errs[i] = fmt.Errorf("spec %d seed %d: %w", j.spec, j.scenario.Seed, err)
			return
		}
		if done {
			out[j.spec][j.seed] = sum
		}
	})
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
