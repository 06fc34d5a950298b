package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/trace"
)

// sweepProtocols and sweepLambdas are the sweep-replay grid: protocols
// whose cells differ only in routing, so all 36 cells of a seed share one
// recorded world.
var (
	sweepProtocols = []string{"SprayAndWait", "SprayAndFocus", "EBR", "Prophet", "Epidemic", "FirstContact"}
	sweepLambdas   = []int{4, 6, 8, 10, 12, 16}
)

// cellRow is the deterministic part of one sweep cell's result.
type cellRow struct {
	Key     string
	PerSeed []metrics.Summary
	Mean    metrics.Summary
}

// cellTable is a sweep's deterministic output: every cell in order, with
// timing stripped and without the cached flag, so a resubmit served from
// the store must reproduce it byte for byte.
func cellTable(cells []experiment.CellResult) []cellRow {
	rows := make([]cellRow, len(cells))
	for i, c := range cells {
		rows[i] = cellRow{Key: c.Cell.Key, PerSeed: stripped(c.PerSeed...), Mean: stripped(c.Mean)[0]}
	}
	return rows
}

// runSweep measures the record-once/replay-many sweep path: a 36-cell
// protocol × λ grid over a few seeds on a fresh result store. Each seed's
// world is recorded once and replayed for all 36 cells, so mobility, the
// grid and the pair scan are skipped; what is left is the scripted tick,
// the routers, trace decoding, store writes and the worker pool. One op is
// a pass on a fresh store; throughput is cells per second. After the
// passes, the same sweep is resubmitted to the last store and must be
// served from it unchanged.
func runSweep(e *env, sc scale) (*result, error) {
	seeds := make([]int64, sc.sweepSeeds)
	for i := range seeds {
		seeds[i] = e.seed + int64(i)
	}
	sized := func(duration float64, profile bool) experiment.SweepSpec {
		base := experiment.ScenarioSpec{
			Nodes:    experiment.Ptr(sc.sweepNodes),
			Duration: experiment.Ptr(duration),
			Seeds:    seeds,
		}
		if profile {
			base.Profile = experiment.Ptr(true)
		}
		return experiment.SweepSpec{Base: base, Protocols: sweepProtocols, Lambda: sweepLambdas}
	}
	spec := func(profile bool) experiment.SweepSpec { return sized(sc.sweepDuration, profile) }
	ctx := context.Background()
	nStore := 0
	freshStore := func() (*resultcache.Store, string, error) {
		nStore++
		dir := filepath.Join(e.scratch, fmt.Sprintf("store%d", nStore))
		st, err := resultcache.Open(dir, 0)
		return st, dir, err
	}
	// Set-up: expand and address the grid (cache keys hash every cell's
	// canonical spec), then run the same sweep, shortened, on a throwaway
	// store, which loads the road map and starts the worker pool.
	var cells []experiment.SweepCell
	err := e.setup(func(bool) error {
		var err error
		if cells, err = spec(false).Cells(); err != nil {
			return err
		}
		st, dir, err := freshStore()
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		_, err = experiment.RunSweep(ctx, sized(sc.sweepWarmup, false), st)
		return err
	})
	if err != nil {
		return nil, err
	}

	res := newResult()
	L := &res.layers
	sl := &sweepLayer{}
	name := fmt.Sprintf("sweep-replay/seed%d", e.seed)
	var store *resultcache.Store
	var storeDir string
	untraced, traced, err := e.loop(sc.sweepMinPasses, func(i int, tr bool) (time.Duration, error) {
		if storeDir != "" {
			os.RemoveAll(storeDir)
		}
		var err error
		if store, storeDir, err = freshStore(); err != nil {
			return 0, err
		}
		rec0, rep0, st0 := experiment.TraceRecordings(), experiment.TraceReplays(), store.Stats()
		pass := e.spans.begin("pass", e.root)
		t0 := time.Now()
		out, err := experiment.RunSweep(ctx, spec(tr), store)
		d := time.Since(t0)
		e.spans.end(pass)
		if err != nil {
			return 0, fmt.Errorf("sweep pass: %w", err)
		}
		res.attempted++
		res.check(len(out) == len(cells), "sweep pass: %d cells, want %d", len(out), len(cells))
		res.output(name, cellTable(out))
		if !tr {
			res.rates = append(res.rates, float64(len(out))/d.Seconds())
		} else {
			L.ops++
			busy := 0.0
			for _, c := range out {
				for _, s := range c.PerSeed {
					L.timing = obs.MergeTiming(L.timing, s.Timing)
					L.work.add(s)
					if s.Timing != nil {
						busy += s.Timing.Seconds
					}
				}
			}
			st1 := store.Stats()
			sl.recordings += float64(experiment.TraceRecordings() - rec0)
			sl.replays += float64(experiment.TraceReplays() - rep0)
			sl.puts += float64(st1.Puts - st0.Puts)
			sl.traceHits += float64(st1.TraceHits - st0.TraceHits)
			sl.poolUtilPct += pct(busy, d.Seconds()*float64(runtime.GOMAXPROCS(0)))
			ps := e.spans.begin("probe store", pass)
			probeStore(sl, store, cells, seeds, spec(false).Base)
			e.spans.end(ps)
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	res.opMs, res.tracedOpMs = untraced, traced

	// The fully cached resubmit: zero simulations, the same table.
	st0 := store.Stats()
	rs := e.spans.begin("resubmit", e.root)
	t0 := time.Now()
	out, err := experiment.RunSweep(ctx, spec(false), store)
	d := time.Since(t0)
	e.spans.end(rs)
	if err != nil {
		return nil, fmt.Errorf("sweep resubmit: %w", err)
	}
	res.attempted++
	cached := 0
	for _, c := range out {
		if c.Cached {
			cached++
		}
	}
	res.check(cached == len(cells), "sweep resubmit: %d of %d cells served from the store", cached, len(cells))
	res.output(name, cellTable(out))

	if n := float64(L.ops); n > 0 {
		sl.recordings /= n
		sl.replays /= n
		sl.puts /= n
		sl.traceHits /= n
		sl.poolUtilPct /= n
		sl.hits = float64(store.Stats().Hits - st0.Hits)
		sl.resubmitCellsPerS = float64(len(out)) / d.Seconds()
		L.sweep = sl
	}
	return res, nil
}

// probeStore times reads of a finished pass's store: every cell's result
// (GetRaw) and every recorded world (GetTrace, then DecodeScript and
// Encode of the contact script). Event and byte counts are per pass; the
// last traced pass's rates are kept.
func probeStore(sl *sweepLayer, store *resultcache.Store, cells []experiment.SweepCell, seeds []int64, base experiment.ScenarioSpec) {
	t0 := time.Now()
	for _, c := range cells {
		store.GetRaw(c.Key)
	}
	if d := time.Since(t0); d > 0 {
		sl.getRawPerS = float64(len(cells)) / d.Seconds()
	}
	s, err := base.Scenario()
	if err != nil {
		return
	}
	var events, bytes float64
	var get, dec, enc time.Duration
	for _, seed := range seeds {
		s.Seed = seed
		t0 := time.Now()
		data, ok := store.GetTrace(experiment.TraceKey(s))
		get += time.Since(t0)
		if !ok {
			continue
		}
		t0 = time.Now()
		script, err := trace.DecodeScript(data)
		dec += time.Since(t0)
		if err != nil {
			continue
		}
		t0 = time.Now()
		script.Encode()
		enc += time.Since(t0)
		events += float64(len(script.Events))
		bytes += float64(len(data))
	}
	mbps := func(d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return bytes / (1 << 20) / d.Seconds()
	}
	sl.traceEvents, sl.traceBytes = events, bytes
	sl.getTraceMBps, sl.decodeMBps, sl.encodeMBps = mbps(get), mbps(dec), mbps(enc)
}
