package experiment

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
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
// are not tracked). A single forEachJob call never blocks on it — its
// worker count already respects the bound — but concurrent callers (dtnd
// runs jobs as they arrive) share the permits instead of multiplying
// worker sets, so the machine is never oversubscribed with worlds that
// are tens of MB each. Simulations never start simulations, so permit
// acquisition cannot nest and cannot deadlock.
var simSlots = make(chan struct{}, runtime.GOMAXPROCS(0))

// forEachJob runs job(0..n-1) on min(GOMAXPROCS, n) workers, handing out
// indices through an atomic counter so fast workers steal remaining work.
// Each executing job additionally holds a process-wide simSlots permit.
func forEachJob(n int, job func(i int)) {
	forEachJobCtx(nil, n, job)
}

// forEachJobCtx is forEachJob with cooperative cancellation: once ctx is
// cancelled, jobs not yet started are skipped — including jobs still
// waiting for a process-wide permit, so a cancelled sweep queued behind a
// busy machine releases immediately instead of holding its place in line.
// Jobs already executing are the caller's to stop (RunContext polls the
// same ctx). A nil ctx never cancels.
func forEachJobCtx(ctx context.Context, n int, job func(i int)) {
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
		job(i)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			runJob(i)
		}
		return
	}
	// A panic on a worker goroutine would kill the process no matter what
	// the caller deferred (dtnd contains per-job panics with recover), so
	// workers capture the first panic and forEachJob re-raises it on the
	// calling goroutine — CLI runs still crash with a stack, servers can
	// contain it.
	var panicOnce sync.Once
	var panicVal any
	var next atomic.Int64
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
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runJob(i)
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}
