package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/resultcache"
)

// This file is the experiment layer's execution engine: one bounded worker
// pool that every sweep and multi-seed run funnels through.
//
// Parallelising only across seeds, with sweep points and protocols run
// one after another, would alternate bursts of per-seed goroutines (each
// world is tens of MB) with single-threaded stretches. Flattening every
// (cell, seed) combination of a sweep into one job list executed by
// GOMAXPROCS workers (RunSpecsStore) keeps all cores busy for the whole
// sweep with bounded memory, and scales to arbitrarily long job lists.
// Results are written by index, so output order — and every simulation
// itself, seeded independently — is deterministic regardless of
// scheduling.

// simSlots bounds the simulations *executing* at any instant across the
// whole process at GOMAXPROCS (sized at init; later GOMAXPROCS changes
// are not tracked). A single runJobs call never blocks on it — its
// worker count already respects the bound — but concurrent callers (dtnd
// runs jobs as they arrive) share the permits instead of multiplying
// worker sets, so the machine is never oversubscribed with worlds that
// are tens of MB each. Simulations never start simulations, so permit
// acquisition cannot nest and cannot deadlock.
var simSlots = make(chan struct{}, runtime.GOMAXPROCS(0))

// runWorlds is the one job-list runner: it runs every job's world through
// runWorld on the shared pool, sharing one decoded-script table, and
// returns the summaries in job order. RunSpecsStore (and so RunSpecStore),
// RunSeeds and a sweep's bare pre-recordings all run here. bare records
// every job's world without routers or traffic. When progress is non-nil
// it receives throttled metrics.Progress events (Seed is the job index)
// whose Frac aggregates completion across all jobs. Errors follow
// runJobs; a job's own error is named by its seed.
func runWorlds(ctx context.Context, jobs []Scenario, store *resultcache.Store, bare bool, progress func(metrics.Progress)) ([]metrics.Summary, error) {
	sums := make([]metrics.Summary, len(jobs))
	var mu sync.Mutex
	fracs := make([]float64, len(jobs)) // per-job completion in [0,1]
	emit := func(i int, t, duration float64) {
		mu.Lock()
		defer mu.Unlock()
		fracs[i] = t / duration
		total := 0.0
		for _, f := range fracs {
			total += f
		}
		// Deliver under the lock: events arrive in non-decreasing Frac
		// order even when jobs run on parallel workers. Callbacks are
		// cheap (dtnd appends to a slice), so serializing them costs
		// nothing against the simulation work between two emits.
		progress(metrics.Progress{
			Seed:     i,
			Seeds:    len(jobs),
			T:        t,
			Duration: duration,
			Frac:     total / float64(len(jobs)),
		})
	}
	scripts := newScriptTable()
	err := runJobs(ctx, len(jobs), func(i int) error {
		s := jobs[i]
		var hook func(t float64)
		if progress != nil {
			hook = func(t float64) { emit(i, t, s.Duration) }
		}
		sum, _, err := s.runWorld(ctx, store, scripts, bare, hook)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s.Seed, err)
		}
		sums[i] = sum
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sums, nil
}

// runJobs runs job(0..n-1) on min(GOMAXPROCS, n) workers, handing out
// indices through an atomic counter so fast workers steal remaining work.
// Each executing job additionally holds a process-wide simSlots permit.
// A failed job does not stop the others; runJobs returns the
// lowest-index job error.
//
// Once ctx is cancelled, jobs not yet started are skipped — including
// jobs still waiting for a process-wide permit, so a cancelled sweep
// queued behind a busy machine releases immediately instead of holding
// its place in line — and runJobs returns ctx.Err(). Jobs already
// executing are the caller's to stop (RunContext polls the same ctx). A
// nil ctx never cancels.
func runJobs(ctx context.Context, n int, job func(i int) error) error {
	errs := make([]error, n)
	runJob := func(i int) {
		if ctx != nil {
			select {
			case simSlots <- struct{}{}:
			case <-ctx.Done():
				return
			}
		} else {
			simSlots <- struct{}{}
		}
		defer func() { <-simSlots }()
		if ctx != nil && ctx.Err() != nil {
			return
		}
		errs[i] = job(i)
	}
	var next atomic.Int64
	drain := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			runJob(i)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		drain()
	} else {
		// A panic on a worker goroutine would kill the process no matter
		// what the caller deferred (dtnd contains per-job panics with
		// recover), so workers capture the first panic and runJobs
		// re-raises it on the calling goroutine — CLI runs still crash
		// with a stack, servers can contain it.
		var panicOnce sync.Once
		var panicVal any
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						panicOnce.Do(func() { panicVal = r })
					}
				}()
				drain()
			}()
		}
		wg.Wait()
		if panicVal != nil {
			panic(panicVal)
		}
	}
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
