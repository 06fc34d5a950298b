package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// setupRepeats is how many times a run performs its set-up; setup_s is the
// median. Set-up is short next to the measured work, so one sample would
// be mostly noise.
const setupRepeats = 5

// maxMeasure caps a run's measuring loop whatever its minimum op count, so
// a run on a slow machine still ends well inside three minutes.
const maxMeasure = 120 * time.Second

// runOpts is what one workload run takes from the command line.
type runOpts struct {
	seed    int64
	seconds time.Duration
	traced  bool
	out     string
}

// workload is one entry of the benchmark: a name and the function that sets
// it up and measures it at the given scale.
type workload struct {
	name string
	run  func(e *env, sc scale) (*result, error)
}

// workloads lists the benchmark's workloads in run order.
var workloads = []workload{
	{"paper-live", runPaper},
	{"city-live", runCity},
	{"sweep-replay", runSweep},
	{"dtnd-mixed", runDtnd},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is the harness state of one workload run: options, set-up samples,
// the measuring window and, in traced runs, the span recorder and CPU
// profile.
type env struct {
	runOpts
	name    string
	scratch string // private directory for stores and caches, removed at the end

	spans *tracer // nil in untraced runs
	root  *span

	setupSecs []float64

	measureStart time.Time
	measured     time.Duration
	mem0, mem1   runtime.MemStats
	profFile     *os.File
	profPath     string
}

func newEnv(name string, opts runOpts) (*env, error) {
	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opts.out, "scratch-"+name+"-")
	if err != nil {
		return nil, err
	}
	e := &env{runOpts: opts, name: name, scratch: dir}
	if opts.traced {
		e.spans = newTracer()
		e.root = e.spans.begin("workload "+name, nil)
	}
	return e, nil
}

// close removes the scratch directory.
func (e *env) close() { os.RemoveAll(e.scratch) }

// setup runs fn setupRepeats times and records each duration. fn gets
// last=true on its final call and keeps the state that call builds; earlier
// calls release what they built.
func (e *env) setup(fn func(last bool) error) error {
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // as between ops: each set-up starts from a collected heap
		sp := e.spans.begin("setup", e.root)
		t0 := time.Now()
		err := fn(i == setupRepeats-1)
		e.setupSecs = append(e.setupSecs, time.Since(t0).Seconds())
		e.spans.end(sp)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	return nil
}

// startMeasure opens the measuring window: memory statistics and, in a
// traced run, the CPU profile.
func (e *env) startMeasure() error {
	if e.spans != nil {
		e.profPath = filepath.Join(e.out, fmt.Sprintf("%s-seed%d.cpu.pprof", e.name, e.seed))
		f, err := os.Create(e.profPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		e.profFile = f
	}
	runtime.ReadMemStats(&e.mem0)
	e.measureStart = time.Now()
	return nil
}

// stopMeasure closes the measuring window.
func (e *env) stopMeasure() error {
	e.measured = time.Since(e.measureStart)
	runtime.ReadMemStats(&e.mem1)
	if e.profFile != nil {
		pprof.StopCPUProfile()
		err := e.profFile.Close()
		e.profFile = nil
		return err
	}
	return nil
}

// loop is the measuring window of the workloads made of repeated ops: it
// runs op until the run's seconds are used up, and at least minOps times.
// op returns the duration it timed itself, so probes and checks stay
// outside it. In a traced run every other op is traced, starting with the
// first; untraced and traced op times come back separately, in ms.
func (e *env) loop(minOps int, op func(i int, traced bool) (time.Duration, error)) (untraced, traced []float64, err error) {
	if err := e.startMeasure(); err != nil {
		return nil, nil, err
	}
	deadline := e.measureStart.Add(e.seconds)
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		if time.Since(e.measureStart) > maxMeasure {
			break
		}
		// Collect the previous op's garbage outside the timed region, so
		// each op pays only for its own and peak RSS stays one op deep.
		runtime.GC()
		tr := e.traced && i%2 == 0
		d, err := op(i, tr)
		if err != nil {
			e.stopMeasure()
			return nil, nil, err
		}
		ms := float64(d) / 1e6
		if tr {
			traced = append(traced, ms)
		} else {
			untraced = append(untraced, ms)
		}
	}
	return untraced, traced, e.stopMeasure()
}

// result is what a workload run reports to the harness.
type result struct {
	attempted, failed int
	errs              []string

	// opMs holds the latency of every untraced op, tracedOpMs that of every
	// traced one (traced runs only). Where an op is a window of requests
	// (dtnd-mixed), these are window medians and latMs holds the requests'
	// own latencies, which the tail is taken over.
	opMs, tracedOpMs, latMs []float64
	// rates holds work completed per second, one sample per op or window,
	// in the workload's own unit of work; throughput is their median.
	rates []float64
	// outputs maps each deterministic output to the SHA-256 of its
	// timing-free JSON: the correctness gate's input.
	outputs map[string]string

	layers layers // per-layer inputs, filled in traced runs
}

func newResult() *result { return &result{outputs: map[string]string{}} }

// check records a failed correctness check when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.failed++
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// output records the hash of one deterministic output. Every rep, traced or
// not, must produce the same bytes under the same name.
func (r *result) output(name string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		r.check(false, "%s: encode output: %v", name, err)
		return
	}
	sum := sha256.Sum256(data)
	h := hex.EncodeToString(sum[:])
	if prev, ok := r.outputs[name]; ok {
		r.check(prev == h, "%s: output differs between reps (%.12s vs %.12s)", name, prev, h)
		return
	}
	r.outputs[name] = h
}

// stripped returns the summaries without their timing blocks: the
// deterministic part that outputs are hashed over.
func stripped(ss ...metrics.Summary) []metrics.Summary {
	out := make([]metrics.Summary, len(ss))
	for i, s := range ss {
		s.Timing = nil
		out[i] = s
	}
	return out
}

// endToEnd assembles the end-to-end metrics of an untraced run.
func (e *env) endToEnd(res *result) map[string]float64 {
	return map[string]float64{
		"setup_s":     median(e.setupSecs),
		"op_ms":       median(res.opMs),
		"throughput":  median(res.rates),
		"peak_rss_mb": peakRSSMB(),
	}
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	kb := float64(ru.Maxrss)
	if runtime.GOOS == "darwin" {
		kb /= 1024 // bytes there
	}
	return kb / 1024
}

// execute runs one workload and assembles its result file.
func execute(spec *benchSpec, w workload, opts runOpts, sc scale) (*runFile, error) {
	e, err := newEnv(w.name, opts)
	if err != nil {
		return nil, err
	}
	defer e.close()
	res, err := w.run(e, sc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	e.spans.end(e.root)

	var values map[string]float64
	defs := spec.EndToEnd
	if opts.traced {
		defs = spec.PerLayer
		if values, err = e.layerMetrics(res); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if err := e.spans.writeChrome(filepath.Join(opts.out, fmt.Sprintf("%s-seed%d.trace.json", w.name, opts.seed))); err != nil {
			return nil, err
		}
	} else {
		values = e.endToEnd(res)
	}
	ms, err := declared(defs, values)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	// A reference mismatch fails the run without failing an op: the
	// outputs it compares are whole cells and tables, not single ops.
	errs := res.errs
	if sc.gate {
		errs = append(errs, checkReference(opts.seed, res.outputs)...)
	}
	rf := &runFile{
		Workload:  w.name,
		Seed:      opts.seed,
		Seconds:   opts.seconds.Seconds(),
		Traced:    opts.traced,
		Stamp:     envStamp(),
		Correct:   len(errs) == 0 && res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   ms,
		Samples:   map[string][]float64{"setup_s": e.setupSecs, "op_ms": res.opMs, "traced_op_ms": res.tracedOpMs, "throughput": res.rates},
		Outputs:   res.outputs,
		Errors:    errs,
	}
	if rf.Attempted < 1 {
		return nil, fmt.Errorf("%s: no operation attempted", w.name)
	}
	return rf, nil
}

// declared pairs every declared metric with its value and unit, and
// rejects missing, extra or non-finite values.
func declared(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q declared but not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %q is not finite (%v)", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(values) != len(out) {
		var extra []string
		for n := range values {
			if _, ok := out[n]; !ok {
				extra = append(extra, n)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics measured but not declared: %v", extra)
	}
	return out, nil
}

// metricValue is one metric in a result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runFile is the result file of one run: the result line plus the
// environment stamp, raw samples, output hashes and check failures.
type runFile struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Stamp     stamp                  `json:"stamp"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string][]float64   `json:"samples"`
	Outputs   map[string]string      `json:"outputs"`
	Errors    []string               `json:"errors,omitempty"`
}

func (rf *runFile) line() resultLine {
	return resultLine{Correct: rf.Correct, Attempted: rf.Attempted, Failed: rf.Failed, Metrics: rf.Metrics}
}

// fileName is where the run's result file goes inside the output directory.
func (rf *runFile) fileName() string {
	return fmt.Sprintf("%s-seed%d-trace%s.json", rf.Workload, rf.Seed, boolDigit(rf.Traced))
}

func (rf *runFile) write(dir string) error {
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, rf.fileName()), append(data, '\n'), 0o644)
}

func readRunFile(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf runFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}
