// Package experiment assembles and runs complete scenarios: the map, the
// bus fleet, the traffic load and a protocol under test — the paper's
// Section V configuration — as declarative specs and sweeps (spec.go,
// sweep.go) with content-addressed caching, trace replay, multi-seed
// averaging and table/CSV rendering for every figure.
package experiment

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/mapgen"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// Protocol names a router implementation.
type Protocol string

// The protocols of the paper's evaluation plus the extra references and
// ablations.
const (
	EER           Protocol = "EER"
	CR            Protocol = "CR"
	EBR           Protocol = "EBR"
	MaxProp       Protocol = "MaxProp"
	SprayAndWait  Protocol = "SprayAndWait"
	SprayAndFocus Protocol = "SprayAndFocus"
	Epidemic      Protocol = "Epidemic"
	Prophet       Protocol = "Prophet"
	Direct        Protocol = "Direct"
	FirstContact  Protocol = "FirstContact"
	// EERFixedEV is ablation A1: EER with a TTL-independent EEV horizon.
	EERFixedEV Protocol = "EER-fixedEV"
	// EERMeanMD is ablation A2: EER whose MD row uses plain mean intervals.
	EERMeanMD Protocol = "EER-meanMD"
)

// AllPaperProtocols lists the six protocols of Figure 2 in plot order.
var AllPaperProtocols = []Protocol{EER, CR, EBR, MaxProp, SprayAndWait, SprayAndFocus}

// Scenario is a complete run configuration. The zero value is unusable;
// start from Default.
type Scenario struct {
	Protocol Protocol
	Nodes    int
	Seed     int64

	// Protocol parameters.
	Lambda int     // replica quota λ
	Alpha  float64 // horizon scale α
	Window int     // history sliding-window size
	// ForwardHysteresis is EER's single-copy forwarding hysteresis in
	// seconds (0 = the paper's strict comparison; ablation A3).
	ForwardHysteresis float64

	// SparseEstimators is kept only for content addresses: no code reads
	// it. It once chose between two estimator storages with identical
	// summaries; one storage remains, but every canonical spec and cache
	// key written since includes the field, so it stays part of them.
	// runIdentity resets it, so cells differing only here share one run.
	SparseEstimators bool
	// MaxSparseRows caps every estimator row store (EER/CR MI, MaxProp
	// probability rows) at that many rows per node, evicting the stalest
	// row first (own row pinned). 0 = unbounded. A memory bound for
	// long-horizon city runs; capping discards link state, so summaries
	// may differ from uncapped runs (deterministically, per cap value).
	MaxSparseRows int
	// Gossip selects the estimator exchange metering for EER, CR and
	// MaxProp: "" or "fresher" (the historical replaced-rows accounting),
	// "flood" (full vector transmission — the naive baseline), or "delta"
	// (digest + changed rows only). Routing state and all non-gossip
	// summary fields are identical across modes; only the gossip byte
	// counters move (pinned by TestGossipModeParity).
	Gossip string

	// Simulation parameters.
	Duration float64
	Tick     float64
	// Shards runs each world's per-tick work on that many goroutines with
	// a deterministic merge (network.Config.Shards). 0 and 1 = one worker,
	// inline; results are bit-identical for every value. Useful for
	// single huge worlds (CityScale); multi-run sweeps already saturate
	// cores through the worker pool, so leave it 0 there.
	Shards int

	// Physical layer.
	Range     float64
	Bandwidth float64 // bytes per second
	BufBytes  int

	// Traffic.
	MsgSize                        int
	TTL                            float64
	MsgIntervalMin, MsgIntervalMax float64
	TrafficStop                    float64 // 0 = Duration

	// Mobility.
	Mobility           string // "bus" (default), "rwp" or "city"
	MinSpeed, MaxSpeed float64
	MinDwell, MaxDwell float64
	Map                mapgen.Config
	MapSeed            int64 // the map is shared across seeds and protocols

	// Trace selects the contact-trace fast path for spec-driven runs
	// ("" = live simulation): "record" runs live and persists the contact
	// script, "replay" requires a recorded script and drives the world
	// from it (skipping mobility and contact detection entirely), "auto"
	// replays when a script exists and records otherwise. Replayed runs
	// are bit-identical to live ones, so the mode is excluded from the
	// result-cache canonical form (json:"-") — live and replayed results
	// share one content address. Only the store-threaded spec path
	// (RunSpecStore and the sweep/daemon layers above it) acts on it;
	// Scenario.Run and Build always run live.
	Trace string `json:"-"`

	// Profile attaches an engine phase profiler to the run: the returned
	// Summary carries a Timing block (see internal/obs). Profiling
	// observes wall time only — summaries are bit-identical with it on
	// or off, minus the timing block itself — and wall time is not
	// deterministic, so like Trace it is excluded from the result-cache
	// canonical form (json:"-"): profiled and unprofiled runs share one
	// content address, and the cache strips Timing before persisting.
	Profile bool `json:"-"`
}

// Default returns the paper's Section V-A settings: 10 m range, 2 Mb/s,
// 1 MB buffers, 25 KB messages, 20-minute TTL, speeds 2.7–13.9 m/s,
// 10 000 s runs, α = 0.28, λ = 10, a message per 25–35 s.
func Default() Scenario {
	return Scenario{
		Protocol:       EER,
		Nodes:          120,
		Seed:           1,
		Lambda:         10,
		Alpha:          0.28,
		Window:         0, // core.DefaultWindow
		Duration:       10000,
		Tick:           0.25,
		Range:          10,
		Bandwidth:      250000,
		BufBytes:       1 << 20,
		MsgSize:        25 * 1024,
		TTL:            20 * 60,
		MsgIntervalMin: 25,
		MsgIntervalMax: 35,
		Mobility:       "bus",
		MinSpeed:       2.7,
		MaxSpeed:       13.9,
		MinDwell:       10,
		MaxDwell:       30,
		Map:            mapgen.DefaultConfig(),
		MapSeed:        42,
	}
}

// Quick returns a scaled-down scenario for tests and testing.B benches:
// same physics, smaller fleet and shorter run. It is QuickSpec resolved —
// the constructors and user-submitted dtnd specs share one code path.
func Quick() Scenario {
	return mustResolve(QuickSpec())
}

// CityScale returns the >=10k-node city scenario multi-worker ticks
// target: a metropolitan-sized map with a large bus fleet threading
// districts full of community walkers ("city" mobility). One world at this
// scale is where Config.Shards > 1 could pay off on a many-core host —
// BenchmarkCityScale measures it against one worker.
//
// The default protocol stays SprayAndWait — O(1) per-contact router work
// keeps this preset an engine benchmark; BenchmarkCityScaleEstimators
// measures EER, CR and MaxProp on it. It is CityScaleSpec resolved — one
// code path with dtnd specs.
func CityScale() Scenario {
	return mustResolve(CityScaleSpec())
}

// MetroScale returns the 100k-node metropolitan scenario — CityScale
// grown 10×: double the map extent, triple the transit lines and
// districts, auto-sized tick sharding and delta estimator gossip. EER by
// default; BenchmarkMetroScale measures it. It is
// MetroScaleSpec resolved — one code path with dtnd specs.
func MetroScale() Scenario {
	return mustResolve(MetroScaleSpec())
}

// mustResolve resolves a known-good built-in spec.
func mustResolve(sp ScenarioSpec) Scenario {
	s, err := sp.Scenario()
	if err != nil {
		panic("experiment: built-in spec invalid: " + err.Error())
	}
	return s
}

// Build constructs the world, movers, routers and traffic for the
// scenario, returning the ready-to-run world and its runner. Most callers
// want Run; Build is exposed for tests and tools that need to inspect the
// world mid-flight.
func (s Scenario) Build() (*network.World, *sim.Runner) {
	return s.build(nil, nil)
}

// BuildReplay constructs the scenario's world driven by a recorded
// contact script instead of live mobility: routers, buffers, traffic and
// metrics are identical to Build, but nodes are stationary and the
// engine fires the scripted contact events — mobility advance, grid
// maintenance and pair sweeps are skipped entirely. The script must come
// from a recording of this exact world (the trace content address
// guarantees it), in which case every summary field is bit-identical to
// the live run.
func (s Scenario) BuildReplay(script *trace.Script) (*network.World, *sim.Runner) {
	return s.build(script, nil)
}

// BuildBare constructs the scenario's world and mobility with
// caller-supplied routers and no traffic generator — the hook tools like
// tracegen use to observe contacts without protocol machinery.
func BuildBare(s Scenario, router func(i int) network.Router) (*network.World, *sim.Runner) {
	return s.build(nil, router)
}

// build is the one world constructor. script != nil drives the world from
// a recorded script on stationary nodes (replay). router == nil installs
// the protocol's routers and the traffic generator; a non-nil router
// builds a bare world with those routers and no traffic.
func (s Scenario) build(script *trace.Script, router func(i int) network.Router) (*network.World, *sim.Runner) {
	if s.Nodes < 2 {
		panic("experiment: need at least two nodes")
	}
	runner := sim.NewRunner(s.Tick)
	w := network.New(s.networkConfig(), runner)
	if script != nil {
		w.SetContactScript(script.Events)
	}

	// The road map is still loaded for replay builds: community
	// registries (CR's districts) derive from it. mapgen.Load memoizes,
	// so repeated replays of one map pay for it once per process.
	rm := mapgen.Load(s.Map, s.MapSeed)
	bare := router != nil
	if !bare {
		factory := s.routerFactory(community.FromAssigner(s.Nodes, rm.DistrictOfNode))
		router = func(int) network.Router { return factory() }
	}

	root := xrand.New(s.Seed)
	parked := &mobility.Stationary{}
	for i := 0; i < s.Nodes; i++ {
		// Derive the node stream even when the mover is never built:
		// Derive consumes parent-stream state, and the traffic stream
		// derived below must match the live run bit-for-bit.
		rng := root.Derive(fmt.Sprintf("node-%d", i))
		var mv mobility.Mover = parked
		if script == nil {
			mv = buildMover(s, rm, i, rng)
		}
		w.AddNode(mv, buffer.New(s.BufBytes), router(i))
	}
	w.Start()
	if bare {
		return w, runner
	}

	stop := s.TrafficStop
	if stop <= 0 {
		stop = s.Duration
	}
	gen := &traffic.Uniform{
		MinInterval: s.MsgIntervalMin,
		MaxInterval: s.MsgIntervalMax,
		Size:        s.MsgSize,
		TTL:         s.TTL,
		Start:       0,
		Stop:        stop,
		Rng:         root.Derive("traffic"),
	}
	gen.Install(w)
	return w, runner
}

// routingField is one routing parameter of Scenario. A protocol's
// registry entry names the ones its router reads; the rest cannot change
// its run (see runIdentity).
type routingField uint8

const (
	readsLambda routingField = 1 << iota
	readsAlpha
	readsWindow
	readsHysteresis
	readsMaxSparseRows
	readsGossip

	// readsEstimator are the estimator-core fields EER, CR and MaxProp read.
	readsEstimator = readsMaxSparseRows | readsGossip
	readsAll       = readsLambda | readsAlpha | readsWindow | readsHysteresis | readsEstimator
)

// protocolEntry registers one protocol: the routing fields its router
// reads, and the constructor of its shared per-world router factory.
// Registered constructors return the world-level factory directly —
// routing factories already produce network.Router, so no adapter
// closures are needed.
type protocolEntry struct {
	reads routingField
	build func(s Scenario, reg *community.Registry) func() network.Router
}

// routerFactories is the protocol registry. TestRegistryReadsSound pins
// every entry's reads: a field left out must not change the protocol's
// summaries, live or replayed.
var routerFactories = map[Protocol]protocolEntry{
	EER: {readsAll, func(s Scenario, _ *community.Registry) func() network.Router {
		return routing.EERFactory(s.eerConfig(), s.Nodes)
	}},
	EERFixedEV: {readsAll, func(s Scenario, _ *community.Registry) func() network.Router {
		cfg := s.eerConfig()
		cfg.FixedHorizon = s.TTL
		return routing.EERFactory(cfg, s.Nodes)
	}},
	EERMeanMD: {readsAll, func(s Scenario, _ *community.Registry) func() network.Router {
		cfg := s.eerConfig()
		cfg.MeanIntervalMD = true
		return routing.EERFactory(cfg, s.Nodes)
	}},
	CR: {readsAll &^ readsHysteresis, func(s Scenario, reg *community.Registry) func() network.Router {
		cfg := routing.CRConfig{Lambda: s.Lambda, Alpha: s.Alpha, Window: s.Window,
			MaxSparseRows: s.MaxSparseRows, Gossip: s.gossipMode()}
		return routing.CRFactory(cfg, reg)
	}},
	MaxProp: {readsEstimator, func(s Scenario, _ *community.Registry) func() network.Router {
		return routing.MaxPropFactory(s.Nodes, s.MaxSparseRows, s.gossipMode())
	}},
	EBR: {readsLambda, func(s Scenario, _ *community.Registry) func() network.Router {
		return func() network.Router { return routing.NewEBR(s.Lambda) }
	}},
	SprayAndWait: {readsLambda, func(s Scenario, _ *community.Registry) func() network.Router {
		return func() network.Router { return routing.NewSprayAndWait(s.Lambda) }
	}},
	SprayAndFocus: {readsLambda, func(s Scenario, _ *community.Registry) func() network.Router {
		return func() network.Router { return routing.NewSprayAndFocus(s.Lambda) }
	}},
	Epidemic: {0, func(Scenario, *community.Registry) func() network.Router {
		return func() network.Router { return routing.NewEpidemic() }
	}},
	Prophet: {0, func(Scenario, *community.Registry) func() network.Router {
		return func() network.Router { return routing.NewProphet() }
	}},
	Direct: {0, func(Scenario, *community.Registry) func() network.Router {
		return func() network.Router { return routing.NewDirect() }
	}},
	FirstContact: {0, func(Scenario, *community.Registry) func() network.Router {
		return func() network.Router { return routing.NewFirstContact() }
	}},
}

// routerFactory returns a fresh-router constructor for the scenario's
// protocol.
func (s Scenario) routerFactory(reg *community.Registry) func() network.Router {
	e, ok := routerFactories[s.Protocol]
	if !ok {
		panic("experiment: unknown protocol " + string(s.Protocol))
	}
	return e.build(s, reg)
}

// runIdentity returns the scenario with every routing field its protocol
// does not read reset to zero. Two scenarios with equal identities run
// the same simulation — an Epidemic cell at λ=4 and one at λ=8 — even
// though their cache keys differ. World, traffic, buffer and seed fields
// always stay in it. The result is a comparison key, not a runnable
// scenario (a reset λ of 0 would not validate).
func (s Scenario) runIdentity() Scenario {
	reads := routerFactories[s.Protocol].reads
	if reads&readsLambda == 0 {
		s.Lambda = 0
	}
	if reads&readsAlpha == 0 {
		s.Alpha = 0
	}
	if reads&readsWindow == 0 {
		s.Window = 0
	}
	if reads&readsHysteresis == 0 {
		s.ForwardHysteresis = 0
	}
	s.SparseEstimators = false // read by no protocol
	if reads&readsMaxSparseRows == 0 {
		s.MaxSparseRows = 0
	}
	if reads&readsGossip == 0 {
		s.Gossip = ""
	}
	return s
}

// networkConfig assembles the physical-layer configuration. The mobility
// speed cap doubles as the contact detector's conservative re-check bound:
// both bus and random-waypoint movers draw per-leg speeds from
// [MinSpeed, MaxSpeed], so no node ever outruns it.
func (s Scenario) networkConfig() network.Config {
	return network.Config{Range: s.Range, Bandwidth: s.Bandwidth, MaxSpeed: s.MaxSpeed, Shards: s.Shards}
}

// City mobility mixes one bus per cityBusEvery nodes with community
// walkers at pedestrian speeds. Walker speeds stay below every bus speed
// range in use, so Scenario.MaxSpeed keeps bounding the whole fleet.
const (
	cityBusEvery     = 10
	cityWalkMinSpeed = 0.5 // m/s
	cityWalkMaxSpeed = 1.5 // m/s
	cityWalkPHome    = 0.8 // probability a walker's next waypoint is in its home district
)

// cityIsBus reports whether node i drives a bus. Buses come in blocks of
// `lines` consecutive ids every cityBusEvery*lines nodes, so the canonical
// round-robin LineOfNode assignment puts exactly one bus of each block on
// each line: every line gets service and every district gets buses. A
// plain i%cityBusEvery == 0 rule would alias with the same round-robin
// (gcd resonance) and leave most lines busless — e.g. lines {0,10,20,30}
// only at CityScale's 40 lines. At scale (nodes >> cityBusEvery*lines)
// the bus share converges to 1/cityBusEvery.
func cityIsBus(i, lines int) bool {
	return i%(cityBusEvery*lines) < lines
}

// buildMover constructs node i's mover per the scenario's mobility model.
func buildMover(s Scenario, rm *mapgen.RoadMap, i int, rng *xrand.Source) mobility.Mover {
	switch s.Mobility {
	case "bus", "":
		return mobility.NewBus(rm, rm.LineOfNode(i), s.MinSpeed, s.MaxSpeed, s.MinDwell, s.MaxDwell, rng)
	case "rwp":
		return mobility.NewRandomWaypoint(geo.NewRect(geo.Point{}, geo.Point{X: s.Map.Width, Y: s.Map.Height}),
			s.MinSpeed, s.MaxSpeed, s.MinDwell, s.MaxDwell, rng)
	case "city":
		// Bus nodes drive their round-robin line (cityIsBus covers every
		// line); walkers anchor to the district that same assignment gives
		// them, so the community registry stays consistent for CR and ENEC.
		if cityIsBus(i, len(rm.Lines)) {
			return mobility.NewBus(rm, rm.LineOfNode(i), s.MinSpeed, s.MaxSpeed, s.MinDwell, s.MaxDwell, rng)
		}
		home := rm.DistrictRects[rm.DistrictOfNode(i)%len(rm.DistrictRects)]
		return mobility.NewHomeZone(rm.Bounds, home, cityWalkPHome,
			cityWalkMinSpeed, cityWalkMaxSpeed, s.MinDwell, s.MaxDwell, rng)
	default:
		panic("experiment: unknown mobility model " + s.Mobility)
	}
}

// eerConfig assembles the EER router configuration from the scenario.
func (s Scenario) eerConfig() routing.EERConfig {
	return routing.EERConfig{
		Lambda:            s.Lambda,
		Alpha:             s.Alpha,
		Window:            s.Window,
		ForwardHysteresis: s.ForwardHysteresis,
		MaxSparseRows:     s.MaxSparseRows,
		Gossip:            s.gossipMode(),
	}
}

// gossipMode parses the scenario's gossip mode name. Specs validate the
// name up front; a bad name reaching a hand-built Scenario panics like
// every other malformed Scenario field.
func (s Scenario) gossipMode() core.ExchangeMode {
	m, err := core.ParseExchangeMode(s.Gossip)
	if err != nil {
		panic("experiment: " + err.Error())
	}
	return m
}

// Run executes the scenario to completion and returns its metrics. It is
// the world runner with no store and no trace mode: it always runs live.
func (s Scenario) Run() metrics.Summary {
	s.Trace = ""
	sum, _, _ := s.runWorld(nil, nil, nil, false, nil) // a live world with no store cannot fail
	return sum
}

// attachProfiler wires a fresh engine profiler into a built world and
// its runner when the scenario asks for one (Profile); returns nil —
// and leaves the world on the uninstrumented fast path — otherwise.
func (s Scenario) attachProfiler(w *network.World, runner *sim.Runner) *obs.EngineProf {
	if !s.Profile {
		return nil
	}
	p := &obs.EngineProf{}
	w.SetProfiler(p)
	runner.Prof = p
	return p
}

// RunSeeds executes the scenario once per seed (in parallel through the
// bounded worker pool — worlds are independent) and returns the per-seed
// summaries in seed order. Like Run, it always runs live.
func RunSeeds(s Scenario, seeds []int64) []metrics.Summary {
	s.Trace = ""
	// Live worlds with no store cannot fail.
	sums, _ := runWorlds(nil, perSeed(s, seeds), nil, false, nil)
	return sums
}

// perSeed returns one copy of the scenario per seed.
func perSeed(s Scenario, seeds []int64) []Scenario {
	out := make([]Scenario, len(seeds))
	for i, seed := range seeds {
		out[i] = s
		out[i].Seed = seed
	}
	return out
}

// Seeds returns the canonical seed list 1..n.
func Seeds(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

// RunAveraged executes the scenario over n seeds and returns the mean
// summary.
func RunAveraged(s Scenario, nSeeds int) metrics.Summary {
	return metrics.Mean(RunSeeds(s, Seeds(nSeeds)))
}
