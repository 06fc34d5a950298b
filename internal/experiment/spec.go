package experiment

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/mapgen"
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
	// SparseEstimators is accepted and kept in canonical specs and cache
	// keys, but no simulation reads it (see Scenario.SparseEstimators).
	SparseEstimators *bool `json:"sparse_estimators,omitempty"`
	MaxSparseRows    *int  `json:"max_sparse_rows,omitempty"`
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
// auto-sized tick sharding (sub-grid re-bucketing keeps the re-bucket
// merge boundary-only at this density) and delta gossip — at 100k nodes a smart
// protocol's link-state exchange is the dominant byte stream, so the
// estimator runs the digest protocol rather than the accounting-only
// default. The default protocol is EER;
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
// the seed list; RunSpecStore substitutes the others.
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
// job always terminates in bounded memory. The CLIs state their scenarios
// as specs too (SpecFlags), so they share the ceilings.
const (
	maxNodes  = 200_000    // 20x CityScale; per-node engine state stays allocatable
	maxTicks  = 50_000_000 // duration/tick steps per seed
	maxEvents = 10_000_000 // generated messages per seed (duration/min interval)
	maxSeeds  = 64         // seeds per job
	maxShards = 256        // per-shard scratch is allocated eagerly; beyond cores it only slows ticks
	maxWindow = 1024       // intervals per met peer; each ring is allocated at full size
	// Every mover pauses at least min_dwell per leg, so this bounds the
	// legs one mover crosses per tick (a 1e9 s tick hung the first tick).
	maxLegsPerTick = 100

	// Road-map ceilings. Generation is linear in the grid and diagonals
	// and quadratic in stops per line (the nearest-neighbour tour), and it
	// runs before the job can be cancelled; the largest accepted map
	// generates in ~0.3 s on a 2-vCPU container. MetroScale, the largest
	// preset, uses 60x45 vertices, 12 diagonals, 120 lines of 10 stops.
	maxMapVertices  = 250_000 // grid_x·grid_y
	maxMapDiagonals = 1_000
	maxMapLines     = 1_000
	maxStopsPerLine = 100
)

// checkProtocol reports whether p names a registered protocol.
func checkProtocol(p Protocol) error {
	if _, ok := routerFactories[p]; !ok {
		return fmt.Errorf("unknown protocol %q", p)
	}
	return nil
}

// checkMobility reports whether m names a mobility model ("" selects the
// default).
func checkMobility(m string) error {
	switch m {
	case "", "bus", "rwp", "city":
		return nil
	}
	return fmt.Errorf("unknown mobility model %q (have bus, rwp, city)", m)
}

// validateScenario rejects resolved scenarios the engine would panic on or
// silently misbehave with, and scenarios beyond the service ceilings.
func validateScenario(s Scenario) error {
	if err := checkProtocol(s.Protocol); err != nil {
		return err
	}
	if err := checkMobility(s.Mobility); err != nil {
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
	if m := s.Map; m.GridX > maxMapVertices || m.GridY > maxMapVertices || m.GridX*m.GridY > maxMapVertices {
		return fmt.Errorf("map grid_x·grid_y must be at most %d vertices, got %dx%d", maxMapVertices, m.GridX, m.GridY)
	}
	if s.Map.Diagonals > maxMapDiagonals {
		return fmt.Errorf("map diagonals must be at most %d, got %d", maxMapDiagonals, s.Map.Diagonals)
	}
	if s.Map.Lines > maxMapLines {
		return fmt.Errorf("map lines must be at most %d, got %d", maxMapLines, s.Map.Lines)
	}
	if s.Map.StopsPerLine > maxStopsPerLine {
		return fmt.Errorf("map stops_per_line must be at most %d, got %d", maxStopsPerLine, s.Map.StopsPerLine)
	}
	if !mapgen.DistrictsFit(s.Map) {
		return fmt.Errorf("map districts: %d districts do not fit a %dx%d grid", s.Map.Districts, s.Map.GridX, s.Map.GridY)
	}
	// The comparisons are written so that NaN fails them too.
	if !(s.MinSpeed > 0 && s.MinSpeed <= s.MaxSpeed) {
		return fmt.Errorf("speeds must satisfy 0 < min_speed <= max_speed, got [%g, %g]", s.MinSpeed, s.MaxSpeed)
	}
	if !(s.MinDwell > 0 && s.MinDwell <= s.MaxDwell) {
		return fmt.Errorf("dwell times must satisfy 0 < min_dwell <= max_dwell, got [%g, %g]", s.MinDwell, s.MaxDwell)
	}
	if s.Tick > maxLegsPerTick*s.MinDwell {
		return fmt.Errorf("tick must be at most %d x min_dwell = %g, got %g", maxLegsPerTick, maxLegsPerTick*s.MinDwell, s.Tick)
	}
	if s.Window < 0 || s.Window > maxWindow {
		return fmt.Errorf("window must be in [1, %d] (0 selects the default), got %d", maxWindow, s.Window)
	}
	if s.BufBytes != 0 && s.BufBytes < s.MsgSize {
		return fmt.Errorf("buf_bytes must be 0 (unbounded) or >= the %d-byte message size, got %d", s.MsgSize, s.BufBytes)
	}
	if !(s.Alpha > 0) {
		return fmt.Errorf("alpha must be positive, got %g", s.Alpha)
	}
	// A negative margin would hand single copies to peers with a longer
	// MEMD, the opposite of the A3 hysteresis.
	if !(s.ForwardHysteresis >= 0) {
		return fmt.Errorf("forward_hysteresis must be >= 0, got %g", s.ForwardHysteresis)
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

// EditSpec states a scenario the way every CLI does: it starts from the
// command's base spec, overlays the top-level keys of doc (a spec
// document; nil for none), then applies each "field=value" edit in order.
// An edit's value is JSON if it parses as JSON and a JSON string
// otherwise, so nodes=60, protocol=CR, shards=auto and seeds=[1,2] all
// read as meant. The result is decoded by strict ParseSpec: unknown
// fields and mistyped values fail exactly as they do for dtnd.
func EditSpec(base ScenarioSpec, doc []byte, sets []string) (ScenarioSpec, error) {
	raw, err := json.Marshal(base)
	if err != nil {
		return ScenarioSpec{}, err
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		return ScenarioSpec{}, err
	}
	if doc != nil {
		var top map[string]json.RawMessage
		if err := json.Unmarshal(doc, &top); err != nil {
			return ScenarioSpec{}, fmt.Errorf("bad scenario spec: %w", err)
		}
		maps.Copy(fields, top)
	}
	for _, set := range sets {
		field, value, ok := strings.Cut(set, "=")
		if !ok {
			return ScenarioSpec{}, fmt.Errorf("bad -set %q (want field=value)", set)
		}
		v := json.RawMessage(value)
		if !json.Valid(v) {
			v, _ = json.Marshal(value) // a string always marshals
		}
		fields[field] = v
	}
	if raw, err = json.Marshal(fields); err != nil {
		return ScenarioSpec{}, fmt.Errorf("bad scenario spec: %w", err)
	}
	return ParseSpec(raw)
}

// SpecFlags is the scenario flag pair every CLI shares: -spec reads a
// spec document from a file (or stdin for "-") and each -set field=value
// edits it (EditSpec).
type SpecFlags struct {
	path   string
	sets   []string
	edited map[string]bool // fields the document or an edit set (Resolve)
}

// Register adds -spec and the repeatable -set to fs.
func (f *SpecFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.path, "spec", "", "scenario spec document (the JSON dtnd accepts): a file, or - for stdin")
	fs.Func("set", "edit one spec field (repeatable): `field=value`, the value JSON or else a string\n(e.g. protocol=CR, nodes=60, seeds=[1,2], shards=auto, preset=cityscale)", func(s string) error {
		f.sets = append(f.sets, s)
		return nil
	})
}

// Resolve applies the -spec document and the -set edits, in order, to
// base and validates the result: the spec to run and the scenario it
// resolves to.
func (f *SpecFlags) Resolve(base ScenarioSpec) (ScenarioSpec, Scenario, error) {
	var doc []byte
	var err error
	switch f.path {
	case "":
	case "-":
		doc, err = io.ReadAll(os.Stdin)
	default:
		doc, err = os.ReadFile(f.path)
	}
	if err != nil {
		return ScenarioSpec{}, Scenario{}, fmt.Errorf("-spec: %w", err)
	}
	sp, err := EditSpec(base, doc, f.sets)
	if err != nil {
		return ScenarioSpec{}, Scenario{}, err
	}
	var top map[string]json.RawMessage
	_ = json.Unmarshal(doc, &top) // EditSpec decoded doc already; a nil doc sets nothing
	f.edited = map[string]bool{}
	for field := range top {
		f.edited[field] = true
	}
	for _, set := range f.sets {
		field, _, _ := strings.Cut(set, "=")
		f.edited[field] = true
	}
	s, err := sp.Scenario()
	return sp, s, err
}

// Swept returns the first field that the resolved -spec document or a
// -set edited and a non-empty axis of sw also sets ("" for none): the
// axis would silently override the edit. Axes are named after the spec
// fields they set.
func (f *SpecFlags) Swept(sw SweepSpec) string {
	for _, ax := range sw.axes() {
		if f.edited[ax.name] {
			return ax.name
		}
	}
	return ""
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

// RunSpecStore executes the spec over its seed list and returns the
// per-seed summaries in seed order — the one-spec case of RunSpecsStore,
// and the run path dtnd, dtnsim and the facade's RunSpec share.
//
// The store enables the spec's trace mode ("record"/"replay"/"auto"):
// recorded contact scripts are looked up and persisted there. A nil store
// runs every seed live ("auto" degrades gracefully; explicit
// "record"/"replay" error).
//
// When progress is non-nil it receives throttled per-seed
// metrics.Progress events (from pool worker goroutines, delivered under
// one lock) whose Frac aggregates completion across all seeds.
// Observation does not perturb the run: summaries are bit-identical with
// and without a progress callback.
//
// Once ctx is cancelled, seeds not yet started are skipped (even while
// waiting for a pool permit) and running seeds stop after their current
// tick, so a cancelled dtnd job releases its compute promptly. It returns
// ctx.Err() on cancellation; a nil ctx never cancels, and a run that
// completes is bit-identical to an uncancellable one. Otherwise a failed
// run's error reads "seed N: ...", for the lowest failing seed.
func RunSpecStore(ctx context.Context, sp ScenarioSpec, store *resultcache.Store, progress func(metrics.Progress)) ([]metrics.Summary, error) {
	out, err := RunSpecsStore(ctx, []ScenarioSpec{sp}, store, progress)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// RunSpecsStore resolves and executes several specs as one flattened
// (spec, seed) job list over the shared bounded pool (runWorlds) — the
// sweep execution path: every cell of a parameter grid makes progress
// concurrently instead of cell-by-cell. The per-spec, per-seed summaries
// come back indexed [spec][seed]; every spec is validated before any
// simulation starts. Progress (whose Seed is the flat job index),
// cancellation, errors and the store's trace modes follow RunSpecStore;
// protocol-only cells replay one recorded world per seed, and each
// recorded world is read and decoded once per call (scriptTable).
func RunSpecsStore(ctx context.Context, sps []ScenarioSpec, store *resultcache.Store, progress func(metrics.Progress)) ([][]metrics.Summary, error) {
	var jobs []Scenario
	for _, sp := range sps {
		s, err := sp.Scenario()
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, perSeed(s, sp.SeedList())...)
	}
	sums, err := runWorlds(ctx, jobs, store, false, progress)
	if err != nil {
		return nil, err
	}
	out := make([][]metrics.Summary, len(sps))
	for i, sp := range sps {
		n := len(sp.SeedList())
		out[i], sums = sums[:n:n], sums[n:]
	}
	return out, nil
}
