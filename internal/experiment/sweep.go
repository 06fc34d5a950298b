package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/resultcache"
)

// This file makes parameter studies first-class: a SweepSpec is a base
// ScenarioSpec plus axes — the protocol and node-count grid of Figure 2,
// the Section V-B parameters (alpha, ttl, buffer, window, lambda) and
// the A3 ablation's forwarding hysteresis — that deterministically
// expands into a list of canonical cell specs, each with its own content
// address. A sweep is therefore "a set of cells, most of which may
// already be cached": cmd/sweep, every cmd/figures figure and the dtnd
// /v1/sweeps endpoint all expand through Cells(), so a cell computed by
// any of them is a cache hit for all of them.

// SweepSpec is a declarative parameter study: one base job plus up to
// eight axes. Empty axes contribute nothing; non-empty axes cross-multiply
// in the fixed order protocols → nodes → alpha → ttl → buf_bytes →
// window → lambda → forward_hysteresis (outermost first), which fixes
// both cell order and the per-cell axis labels. The base's own field
// values (and seed list) apply to every cell that no axis overrides.
type SweepSpec struct {
	Base ScenarioSpec `json:"base"`

	Protocols []string  `json:"protocols,omitempty"`
	Nodes     []int     `json:"nodes,omitempty"`
	Alpha     []float64 `json:"alpha,omitempty"`
	TTL       []float64 `json:"ttl,omitempty"`
	BufBytes  []int     `json:"buf_bytes,omitempty"`
	Window    []int     `json:"window,omitempty"`
	Lambda    []int     `json:"lambda,omitempty"`

	ForwardHysteresis []float64 `json:"forward_hysteresis,omitempty"`
}

// AxisValue names one axis coordinate of a sweep cell, e.g.
// {Axis: "protocol", Value: "EER"}. Values are rendered the way the
// sweep tables print them (integers without a decimal point).
type AxisValue struct {
	Axis  string `json:"axis"`
	Value string `json:"value"`
}

// SweepCell is one expanded point of a sweep: its full scenario spec, the
// content address of its result, and the axis coordinates that produced
// it (in expansion-axis order) — the key of the sweep's result table.
type SweepCell struct {
	Spec ScenarioSpec `json:"spec"`
	Key  string       `json:"key"`
	Axes []AxisValue  `json:"axes"`
}

// maxSweepCells bounds one sweep's expansion. Like the per-job resource
// ceilings, it is a service bound: far beyond any paper grid (Figure 2 is
// 36 cells), small enough that expansion and per-cell bookkeeping stay
// trivially cheap.
const maxSweepCells = 4096

// axis is one expansion dimension: its label, its value count and a
// setter applying value i onto a cell spec.
type axis struct {
	name  string
	n     int
	value func(i int) string
	apply func(sp *ScenarioSpec, i int)
}

// axes lists the sweep's non-empty dimensions in canonical order.
func (sw SweepSpec) axes() []axis {
	var out []axis
	add := func(name string, n int, value func(int) string, apply func(*ScenarioSpec, int)) {
		if n > 0 {
			out = append(out, axis{name: name, n: n, value: value, apply: apply})
		}
	}
	add("protocol", len(sw.Protocols),
		func(i int) string { return sw.Protocols[i] },
		func(sp *ScenarioSpec, i int) { sp.Protocol = ptr(sw.Protocols[i]) })
	add("nodes", len(sw.Nodes),
		func(i int) string { return strconv.Itoa(sw.Nodes[i]) },
		func(sp *ScenarioSpec, i int) { sp.Nodes = ptr(sw.Nodes[i]) })
	add("alpha", len(sw.Alpha),
		func(i int) string { return trimFloat(sw.Alpha[i]) },
		func(sp *ScenarioSpec, i int) { sp.Alpha = ptr(sw.Alpha[i]) })
	add("ttl", len(sw.TTL),
		func(i int) string { return trimFloat(sw.TTL[i]) },
		func(sp *ScenarioSpec, i int) { sp.TTL = ptr(sw.TTL[i]) })
	add("buf_bytes", len(sw.BufBytes),
		func(i int) string { return strconv.Itoa(sw.BufBytes[i]) },
		func(sp *ScenarioSpec, i int) { sp.BufBytes = ptr(sw.BufBytes[i]) })
	add("window", len(sw.Window),
		func(i int) string { return strconv.Itoa(sw.Window[i]) },
		func(sp *ScenarioSpec, i int) { sp.Window = ptr(sw.Window[i]) })
	add("lambda", len(sw.Lambda),
		func(i int) string { return strconv.Itoa(sw.Lambda[i]) },
		func(sp *ScenarioSpec, i int) { sp.Lambda = ptr(sw.Lambda[i]) })
	add("forward_hysteresis", len(sw.ForwardHysteresis),
		func(i int) string { return trimFloat(sw.ForwardHysteresis[i]) },
		func(sp *ScenarioSpec, i int) { sp.ForwardHysteresis = ptr(sw.ForwardHysteresis[i]) })
	return out
}

// Cells expands the sweep into its cell list: the cross product of every
// non-empty axis over the base spec, in canonical order, each cell
// resolved, validated and content-addressed. An empty sweep (no axes) is
// the base job as a single cell. Expansion is deterministic: the same
// SweepSpec always yields the same cells with the same keys, no matter
// which process (CLI or daemon) expands it.
func (sw SweepSpec) Cells() ([]SweepCell, error) {
	axes := sw.axes()
	total := 1
	for _, ax := range axes {
		// Check per factor, so a pathological axis list cannot overflow
		// the product past the guard.
		if total *= ax.n; total > maxSweepCells {
			return nil, fmt.Errorf("sweep expands to over %d cells, limit %d", total, maxSweepCells)
		}
	}
	cells := make([]SweepCell, 0, total)
	idx := make([]int, len(axes))
	for {
		sp := sw.Base
		av := make([]AxisValue, len(axes))
		for a, ax := range axes {
			ax.apply(&sp, idx[a])
			av[a] = AxisValue{Axis: ax.name, Value: ax.value(idx[a])}
		}
		key, err := sp.CacheKey() // resolves and validates the cell
		if err != nil {
			return nil, fmt.Errorf("sweep cell %v: %w", av, err)
		}
		cells = append(cells, SweepCell{Spec: sp, Key: key, Axes: av})
		// Odometer increment, innermost (last) axis fastest.
		a := len(axes) - 1
		for ; a >= 0; a-- {
			if idx[a]++; idx[a] < axes[a].n {
				break
			}
			idx[a] = 0
		}
		if a < 0 {
			return cells, nil
		}
	}
}

// ParseSweepSpec decodes a JSON sweep spec strictly (unknown fields are
// errors), mirroring ParseSpec.
func ParseSweepSpec(data []byte) (SweepSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sw SweepSpec
	if err := dec.Decode(&sw); err != nil {
		return SweepSpec{}, fmt.Errorf("bad sweep spec: %w", err)
	}
	return sw, nil
}

// CellResult is one cell's outcome in a sweep result table.
type CellResult struct {
	Cell   SweepCell
	Cached bool // served from the store, no simulation
	// Shared marks a cell served by an earlier cell's simulation in the
	// same sweep: a duplicate key, or the same run under another key. Its
	// summaries carry no Timing, so timing aggregates count each
	// simulation once.
	Shared  bool
	PerSeed []metrics.Summary
	Mean    metrics.Summary
}

// SweepTally counts how a sweep's cells were served: simulated (Runs is
// their seed total, one simulation each), shared from an earlier cell's
// simulation, or read from the store.
type SweepTally struct {
	Simulated, Runs, Shared, Cached int
}

// Tally counts the cells of a sweep result table.
func Tally(cells []CellResult) SweepTally {
	var t SweepTally
	for _, c := range cells {
		switch {
		case c.Cached:
			t.Cached++
		case c.Shared:
			t.Shared++
		default:
			t.Simulated++
			t.Runs += len(c.PerSeed)
		}
	}
	return t
}

// sharedFrom returns cell's result as a copy of src's simulation, with
// the timing blocks stripped.
func sharedFrom(cell SweepCell, src CellResult) CellResult {
	mean := src.Mean
	mean.Timing = nil
	return CellResult{Cell: cell, Shared: true, PerSeed: StripTiming(src.PerSeed), Mean: mean}
}

// CellResultOf packages a cell's per-seed summaries as the store's
// Result record — the one serialization the daemon and the CLIs share.
// Timing blocks are stripped first: stored bytes are identical whether
// or not the producing run was profiled.
func CellResultOf(cell SweepCell, perSeed []metrics.Summary) (*resultcache.Result, error) {
	canon, err := cell.Spec.CanonicalJSON()
	if err != nil {
		return nil, err
	}
	perSeed = StripTiming(perSeed)
	return &resultcache.Result{
		Key:           cell.Key,
		CanonicalSpec: canon,
		Seeds:         cell.Spec.SeedList(),
		PerSeed:       perSeed,
		Mean:          metrics.Mean(perSeed),
	}, nil
}

// StripTiming returns the summaries with any engine-profile timing
// blocks removed — the deterministic (cacheable) part of a profiled
// run's output. The input is never modified; timing-free input is
// returned as-is, alias and all.
func StripTiming(ss []metrics.Summary) []metrics.Summary {
	hasTiming := false
	for i := range ss {
		if ss[i].Timing != nil {
			hasTiming = true
			break
		}
	}
	if !hasTiming {
		return ss
	}
	out := make([]metrics.Summary, len(ss))
	copy(out, ss)
	for i := range out {
		out[i].Timing = nil
	}
	return out
}

// RunSweep expands and executes a sweep as Plan decides it: cells found
// in store are served from disk, the rest run as one flattened (cell,
// seed) job list on the shared pool and are persisted back. Each distinct
// run simulates once: cells sharing a content address (an axis repeating
// a value, or overriding the base to itself) share their summaries,
// matching the daemon's coalescing, and so do cells whose protocol
// ignores every field they differ in (Plan's SameRun). A shared cell is
// still persisted under its own key with its own canonical spec, so
// content addresses are those of a per-cell run. A nil store disables
// caching. Results come back in cell order. When every simulation
// succeeded but a cache write failed, the full results are returned
// alongside the write error — callers may report and keep the summaries.
func RunSweep(ctx context.Context, sw SweepSpec, store *resultcache.Store) ([]CellResult, error) {
	cells, err := sw.Cells()
	if err != nil {
		return nil, err
	}
	plan := Plan(cells, store)
	out := make([]CellResult, len(cells))
	var todo, shared []int // cell indices that simulate, or take an earlier run's copy
	for i, pc := range plan.Cells {
		switch {
		case pc.Cached != nil:
			out[i] = CellResult{Cell: cells[i], Cached: true, PerSeed: pc.Cached.PerSeed, Mean: pc.Cached.Mean}
		case pc.DupOf >= 0: // filled in below, once its primary has run
		case pc.SameRun >= 0:
			shared = append(shared, i)
		default:
			todo = append(todo, i)
		}
	}
	var putErr error
	put := func(i int) {
		res, err := CellResultOf(cells[i], out[i].PerSeed)
		if err == nil {
			err = store.Put(res)
		}
		if err != nil && putErr == nil {
			putErr = fmt.Errorf("cache cell %s: %w", cells[i].Key[:12], err)
		}
	}
	if len(todo) > 0 {
		specs := make([]ScenarioSpec, len(todo))
		for k, i := range todo {
			specs[k] = plan.Cells[i].Cell.Spec
		}
		// Trace fast path: the shared worlds Plan marked are recorded once
		// per seed as bare worlds, and every marked cell replays them
		// instead of re-simulating mobility. Trace never enters the cache
		// key, so the results are served and stored exactly as live ones.
		if len(plan.Record) > 0 {
			if err := recordTraces(ctx, plan.Record, store); err != nil {
				return nil, err
			}
		}
		perSpec, err := RunSpecsStore(ctx, specs, store)
		if err != nil {
			return nil, err
		}
		for k, i := range todo {
			out[i] = CellResult{Cell: cells[i], PerSeed: perSpec[k], Mean: metrics.Mean(perSpec[k])}
			put(i)
		}
	}
	for _, i := range shared {
		out[i] = sharedFrom(cells[i], out[plan.Cells[i].SameRun])
		put(i)
	}
	for i, pc := range plan.Cells {
		if pc.DupOf >= 0 {
			out[i] = sharedFrom(cells[i], out[pc.DupOf])
		}
	}
	return out, putErr
}
