package experiment

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/mapgen"
	"repro/internal/metrics"
)

// TestSpecPresetRoundTrip: the named preset specs resolve to exactly the
// scenarios the constructors return — specs and constructors are one code
// path — and survive a JSON round trip unchanged.
func TestSpecPresetRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		spec ScenarioSpec
		want Scenario
	}{
		{"default", ScenarioSpec{}, Default()},
		{"quick", QuickSpec(), Quick()},
		{"cityscale", CityScaleSpec(), CityScale()},
		{"metroscale", MetroScaleSpec(), MetroScale()},
		{"figure2 cell", Figure2Spec(MaxProp, 160, nil), withNodesProto(Default(), 160, MaxProp)},
	}
	for _, c := range cases {
		data, err := json.Marshal(c.spec)
		if err != nil {
			t.Fatalf("%s: marshal: %v", c.name, err)
		}
		parsed, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", c.name, err)
		}
		got, err := parsed.Scenario()
		if err != nil {
			t.Fatalf("%s: resolve: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: spec resolved to\n%+v\nwant\n%+v", c.name, got, c.want)
		}
	}
}

func withNodesProto(s Scenario, n int, p Protocol) Scenario {
	s.Nodes = n
	s.Protocol = p
	return s
}

// TestSpecGoldenFigure2: a Figure-2 cell submitted as a spec produces
// summaries bit-identical to the committed golden fixture — the same pin
// TestGoldenFigure2 applies to the constructor path, reused for the
// declarative path. One protocol keeps it affordable in every test run.
func TestSpecGoldenFigure2(t *testing.T) {
	if testing.Short() {
		t.Skip("3 simulations in -short mode")
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture: %v", err)
	}
	var want map[string][]goldenPoint
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	g := goldenScenario()
	sp := Figure2Spec(EER, g.Nodes, []int64{1, 2, 3})
	sp.Duration = ptr(g.Duration)
	sp.Tick = ptr(g.Tick)
	sums, err := RunSpecStore(nil, sp, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for seed, sum := range sums {
		got := goldenPoint{Delivery: sum.DeliveryRatio, Latency: sum.AvgLatency, Goodput: sum.Goodput}
		if got != want["EER"][seed] {
			t.Errorf("seed %d: spec path drifted from golden fixture:\n  golden %+v\n  spec   %+v", seed+1, want["EER"][seed], got)
		}
	}
}

// TestSpecValidation: malformed specs are rejected with telling errors,
// never run.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name, wantErr string
		spec          ScenarioSpec
	}{
		{"unknown preset", "unknown preset", ScenarioSpec{Preset: "helsinki"}},
		{"unknown protocol", "unknown protocol", ScenarioSpec{Protocol: ptr("EERX")}},
		{"unknown mobility", "unknown mobility", ScenarioSpec{Mobility: ptr("teleport")}},
		{"one node", "two nodes", ScenarioSpec{Nodes: ptr(1)}},
		{"zero lambda", "lambda", ScenarioSpec{Lambda: ptr(0)}},
		{"negative duration", "duration", ScenarioSpec{Duration: ptr(-1.0)}},
		{"zero tick", "tick", ScenarioSpec{Tick: ptr(0.0)}},
		{"negative shards", "shards", ScenarioSpec{Shards: ptr(ShardCount(-2))}},
		{"zero range", "range", ScenarioSpec{Range: ptr(0.0)}},
		{"zero msg size", "message size", ScenarioSpec{MsgSize: ptr(0)}},
		{"zero ttl", "ttl", ScenarioSpec{TTL: ptr(0.0)}},
		{"interval inverted", "interval", ScenarioSpec{MsgIntervalMin: ptr(30.0), MsgIntervalMax: ptr(20.0)}},
		{"negative row cap", "max_sparse_rows", ScenarioSpec{MaxSparseRows: ptr(-1)}},
		{"negative hysteresis", "forward_hysteresis", ScenarioSpec{ForwardHysteresis: ptr(-300.0)}},
		{"NaN hysteresis", "forward_hysteresis", ScenarioSpec{ForwardHysteresis: ptr(math.NaN())}},
		{"degenerate map", "map", ScenarioSpec{Map: &MapSpec{Lines: ptr(0)}}},
		// Service ceilings: a validated spec must always terminate in
		// bounded memory (dtnd is network-facing).
		{"too many nodes", "nodes", ScenarioSpec{Nodes: ptr(50_000_000)}},
		{"too many ticks", "step", ScenarioSpec{Duration: ptr(1e9), Tick: ptr(0.01)}},
		{"too much traffic", "message", ScenarioSpec{MsgIntervalMin: ptr(1e-9), MsgIntervalMax: ptr(1e-9)}},
		{"too many seeds", "seeds", ScenarioSpec{Seeds: make([]int64, 65)}},
		{"too many shards", "shards", ScenarioSpec{Shards: ptr(ShardCount(100000))}},
	}
	for _, c := range cases {
		if _, err := c.spec.Scenario(); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error = %v, want containing %q", c.name, err, c.wantErr)
		}
	}
}

// engineCrashers are specs the engine panics on (invalid bus speed range,
// empty districts for CR's communities or city mobility), silently
// misreads (negative window, buffer, alpha and forward hysteresis), or
// stalls or exhausts memory on (road maps past the generation ceilings,
// huge history windows, ticks that walk movers across millions of legs),
// each with the error validation must give.
var engineCrashers = []struct{ spec, wantErr string }{
	{`{"preset":"quick","min_speed":0,"max_speed":0}`, "speeds"},
	{`{"preset":"quick","min_speed":5,"max_speed":1}`, "speeds"},
	{`{"preset":"quick","protocol":"CR","map":{"districts":1000}}`, "districts"},
	{`{"preset":"quick","protocol":"CR","map":{"districts":1000},"mobility":"city"}`, "districts"},
	{`{"preset":"quick","map":{"districts":41}}`, "districts"},
	{`{"preset":"quick","min_dwell":-1}`, "dwell"},
	{`{"preset":"quick","min_dwell":40,"max_dwell":30}`, "dwell"},
	{`{"preset":"quick","window":-1}`, "window"},
	{`{"preset":"quick","window":1000000000}`, "window"},
	{`{"preset":"quick","buf_bytes":-1}`, "buf_bytes"},
	{`{"preset":"quick","buf_bytes":100}`, "buf_bytes"},
	{`{"preset":"quick","alpha":-0.5}`, "alpha"},
	{`{"preset":"quick","alpha":0}`, "alpha"},
	{`{"preset":"quick","forward_hysteresis":-300}`, "forward_hysteresis"},
	{`{"preset":"quick","map":{"stops_per_line":100000}}`, "stops_per_line"},
	{`{"preset":"quick","map":{"stops_per_line":101}}`, "stops_per_line"},
	{`{"preset":"quick","map":{"grid_x":3000,"grid_y":3000}}`, "grid_x·grid_y"},
	{`{"preset":"quick","map":{"grid_x":2,"grid_y":125001}}`, "grid_x·grid_y"},
	{`{"preset":"quick","map":{"grid_x":4294967296,"grid_y":4294967296}}`, "grid_x·grid_y"},
	{`{"preset":"quick","map":{"lines":100000}}`, "lines"},
	{`{"preset":"quick","map":{"diagonals":1000000000}}`, "diagonals"},
	{`{"preset":"quick","tick":1e9,"duration":1e9,"msg_interval_min":1e7,"msg_interval_max":1e7}`, "tick"},
	{`{"preset":"quick","tick":1001,"duration":2000}`, "tick"},
}

// TestValidateRejectsEngineCrashers: every engineCrashers spec fails
// validation with its error. Each case goes the way dtnd takes a
// submission: ParseSpec, then Scenario().
func TestValidateRejectsEngineCrashers(t *testing.T) {
	for _, c := range engineCrashers {
		sp, err := ParseSpec([]byte(c.spec))
		if err != nil {
			t.Fatalf("%s: parse: %v", c.spec, err)
		}
		if _, err := sp.Scenario(); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error = %v, want containing %q", c.spec, err, c.wantErr)
		}
	}
	// The documented defaults stay valid: window 0 selects the default
	// window and buf_bytes 0 an unbounded buffer.
	for _, spec := range []string{`{"preset":"quick","window":0}`, `{"preset":"quick","buf_bytes":0}`} {
		sp, err := ParseSpec([]byte(spec))
		if err == nil {
			_, err = sp.Scenario()
		}
		if err != nil {
			t.Errorf("%s rejected: %v", spec, err)
		}
	}
}

// TestMapCeilings: the largest map the ceilings accept is valid and
// generates, and every preset stays at most a fifth of each ceiling.
func TestMapCeilings(t *testing.T) {
	sp := QuickSpec()
	sp.Map = &MapSpec{GridX: ptr(500), GridY: ptr(500), Diagonals: ptr(maxMapDiagonals),
		Lines: ptr(maxMapLines), StopsPerLine: ptr(maxStopsPerLine)}
	s, err := sp.Scenario()
	if err != nil {
		t.Fatalf("largest accepted map rejected: %v", err)
	}
	if !testing.Short() {
		start := time.Now()
		rm := mapgen.Generate(s.Map, s.MapSeed)
		t.Logf("%d vertices, %d lines generated in %v", len(rm.Points), len(rm.Lines), time.Since(start))
	}
	for name, p := range PresetSpecs() {
		ps, err := p.Scenario()
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		m := ps.Map
		if 5*m.GridX*m.GridY > maxMapVertices || 5*m.Diagonals > maxMapDiagonals ||
			5*m.Lines > maxMapLines || 5*m.StopsPerLine > maxStopsPerLine {
			t.Errorf("preset %s map %+v is within 5x of a ceiling", name, m)
		}
	}
}

// fuzzSized bounds the worlds FuzzParseSpec builds so one execution stays
// in milliseconds: at most a few hundred nodes on a small map, and a
// bounded number of message events before until.
func fuzzSized(s Scenario, until float64) bool {
	m := s.Map
	return s.Nodes <= 300 && m.GridX*m.GridY <= 10_000 && m.Lines*m.StopsPerLine <= 5_000 &&
		until/s.MsgIntervalMin <= 10_000
}

// FuzzParseSpec: any spec ParseSpec and Scenario accept — the way dtnd
// takes a submission — builds and runs its first ticks without panicking,
// for size-bounded specs (fuzzSized). Seeds are the presets, the engine
// crashers and one small spec per paper protocol.
func FuzzParseSpec(f *testing.F) {
	for _, sp := range PresetSpecs() {
		b, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, c := range engineCrashers {
		f.Add([]byte(c.spec))
	}
	for _, p := range AllPaperProtocols {
		f.Add([]byte(`{"preset":"quick","nodes":12,"protocol":"` + string(p) + `"}`))
	}
	f.Add([]byte(`{"preset":"quick","nodes":30,"protocol":"CR","mobility":"city","gossip":"delta","shards":2}`))
	// Every numeric field written out, so byte mutations reach them all.
	for _, mob := range []string{"bus", "rwp", "city"} {
		f.Add([]byte(`{"preset":"quick","protocol":"EER","nodes":20,"seeds":[3],"lambda":3,"alpha":0.5,` +
			`"window":4,"forward_hysteresis":1,"sparse_estimators":true,"max_sparse_rows":5,"duration":60,` +
			`"tick":0.5,"shards":2,"range":30,"bandwidth":1000,"buf_bytes":9000,"msg_size":1000,"ttl":60,` +
			`"msg_interval_min":1,"msg_interval_max":3,"traffic_stop":50,"mobility":"` + mob + `","min_speed":1,` +
			`"max_speed":9,"min_dwell":1,"max_dwell":4,"map_seed":7,"map":{"width":900,"height":700,` +
			`"grid_x":5,"grid_y":4,"diagonals":2,"jitter":5,"lines":4,"stops_per_line":3,"districts":2}}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			return
		}
		sp, err := ParseSpec(data)
		if err != nil {
			return
		}
		s, err := sp.Scenario()
		if err != nil {
			return
		}
		until := min(s.Duration, 3*s.Tick)
		if !fuzzSized(s, until) {
			return
		}
		_, runner := s.Build()
		runner.Run(until)
	})
}

// TestParseSpecStrict: unknown JSON fields (typos) fail the parse.
func TestParseSpecStrict(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"protocl": "EER"}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseSpec([]byte(`{`)); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := ParseSpec([]byte(`{"preset": "quick"}`)); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestEditSpec pins how the CLIs state a scenario: a base spec, a -spec
// document's top-level keys over it, then -set edits in order, each value
// JSON or else a string. Every accepted edit must equal ParseSpec of the
// JSON it spells, cache key included; every rejected one must say why.
func TestEditSpec(t *testing.T) {
	cli := ScenarioSpec{Protocol: ptr(string(EER)), Nodes: ptr(120), Seeds: Seeds(3)}
	cases := []struct {
		name string
		base ScenarioSpec
		doc  string // "" = no document
		sets []string
		want string // the JSON the result must equal, or
		err  string // the error it must give
	}{
		{name: "number", sets: []string{"nodes=60"}, want: `{"nodes": 60}`},
		{name: "float", sets: []string{"alpha=0.5"}, want: `{"alpha": 0.5}`},
		{name: "JSON string", sets: []string{`protocol="CR"`}, want: `{"protocol": "CR"}`},
		{name: "bare string", sets: []string{"protocol=CR"}, want: `{"protocol": "CR"}`},
		{name: "auto shards", sets: []string{"shards=auto"}, want: `{"shards": "auto"}`},
		{name: "seed list", sets: []string{"seeds=[1,2]"}, want: `{"seeds": [1, 2]}`},
		{name: "map object", sets: []string{`map={"width": 5000, "grid_x": 10}`},
			want: `{"map": {"width": 5000, "grid_x": 10}}`},
		{name: "keeps the base", base: cli, sets: []string{"lambda=4"},
			want: `{"protocol": "EER", "nodes": 120, "seeds": [1, 2, 3], "lambda": 4}`},
		{name: "edits the base", base: cli, sets: []string{"protocol=CR", "seeds=[7]"},
			want: `{"protocol": "CR", "nodes": 120, "seeds": [7]}`},
		{name: "document over base", base: cli, doc: `{"nodes": 30, "gossip": "delta"}`,
			want: `{"protocol": "EER", "nodes": 30, "seeds": [1, 2, 3], "gossip": "delta"}`},
		{name: "set over document", doc: `{"nodes": 30, "protocol": "CR"}`, sets: []string{"nodes=40"},
			want: `{"nodes": 40, "protocol": "CR"}`},
		{name: "last set wins", sets: []string{"nodes=10", "nodes=20"}, want: `{"nodes": 20}`},
		{name: "null unsets", base: cli, sets: []string{"nodes=null"}, want: `{"protocol": "EER", "seeds": [1, 2, 3]}`},
		{name: "preset then field", sets: []string{"preset=cityscale", "nodes=100"},
			want: `{"preset": "cityscale", "nodes": 100}`},
		{name: "unknown field", sets: []string{"protocl=EER"}, err: `unknown field "protocl"`},
		{name: "unknown document field", doc: `{"protocl": "EER"}`, err: `unknown field "protocl"`},
		{name: "type mismatch", sets: []string{"nodes=many"}, err: "cannot unmarshal string"},
		{name: "bad shards", sets: []string{"shards=many"}, err: `bad shards "many"`},
		{name: "no =", sets: []string{"nodes"}, err: `bad -set "nodes" (want field=value)`},
		{name: "document not an object", doc: `[1]`, err: "bad scenario spec"},
		{name: "empty document", doc: ` `, err: "bad scenario spec"},
	}
	for _, c := range cases {
		var doc []byte
		if c.doc != "" {
			doc = []byte(c.doc)
		}
		got, err := EditSpec(c.base, doc, c.sets)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%s: err %v, want %q", c.name, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		want, err := ParseSpec([]byte(c.want))
		if err != nil {
			t.Fatalf("%s: want: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %s, want %s", c.name, mustJSON(t, got), c.want)
		}
		gotKey, err := got.CacheKey()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if wantKey, _ := want.CacheKey(); gotKey != wantKey {
			t.Errorf("%s: cache key %s, ParseSpec's %s", c.name, gotKey, wantKey)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSpecCacheKey: the content address depends on what the spec *runs*,
// not how it is written — explicit defaults hash like omitted ones — and
// any semantic change (a parameter, a seed) changes the key.
func TestSpecCacheKey(t *testing.T) {
	base := ScenarioSpec{Protocol: ptr(string(EER))}
	k1, err := base.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	// Same resolved job, written differently.
	explicit := ScenarioSpec{Preset: "default", Protocol: ptr(string(EER)), Nodes: ptr(120), Seeds: []int64{1}}
	if k2, _ := explicit.CacheKey(); k2 != k1 {
		t.Errorf("explicit defaults changed the key: %s vs %s", k2, k1)
	}
	// Any semantic difference must change it.
	for name, sp := range map[string]ScenarioSpec{
		"other protocol": {Protocol: ptr(string(CR))},
		"other nodes":    {Protocol: ptr(string(EER)), Nodes: ptr(121)},
		"other seeds":    {Protocol: ptr(string(EER)), Seeds: []int64{2}},
		"more seeds":     {Protocol: ptr(string(EER)), Seeds: []int64{1, 2}},
		"row cap":        {Protocol: ptr(string(EER)), MaxSparseRows: ptr(500)},
	} {
		k, err := sp.CacheKey()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == k1 {
			t.Errorf("%s: key collision with base", name)
		}
	}
	// Invalid specs have no key.
	if _, err := (ScenarioSpec{Nodes: ptr(0)}).CacheKey(); err == nil {
		t.Error("invalid spec produced a cache key")
	}
}

// TestRunSpecStoreProgress: observing a run does not perturb it —
// summaries with and without a progress callback are bit-identical — and
// progress is plentiful, ordered and complete.
func TestRunSpecStoreProgress(t *testing.T) {
	sp := ScenarioSpec{
		Preset:   "quick",
		Protocol: ptr(string(SprayAndWait)),
		Nodes:    ptr(20),
		Duration: ptr(600.0),
		Seeds:    []int64{1, 2},
	}
	plain, err := RunSpecStore(nil, sp, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var events []float64
	observed, err := RunSpecStore(nil, sp, nil, func(p metrics.Progress) {
		if p.Seeds != 2 || p.Duration != 600 {
			t.Errorf("bad progress frame %+v", p)
		}
		events = append(events, p.Frac)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Errorf("observation changed summaries:\n%+v\nvs\n%+v", plain, observed)
	}
	if len(events) < 20 {
		t.Fatalf("only %d progress events", len(events))
	}
	last := events[len(events)-1]
	if last != 1 {
		t.Errorf("final frac = %g, want 1", last)
	}
}
