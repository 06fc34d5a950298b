package server

// Regression tests for the service-layer bugs the load harness flushed
// out: the cached fast path serving stale seed counts, and submissions
// or sweep cells coalescing onto a job that already reached a terminal
// state (the window between j.finish/j.fail and runJob's deferred
// removal from s.active).

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/experiment"
	"repro/internal/metrics"
)

// TestStaleCacheSeedCountMiss pins the handleSubmit guard: a cache entry
// under the right content address but with the wrong number of per-seed
// summaries (a stale or tampered entry) must be a miss and recompute —
// the same check both sweep cache passes already applied.
func TestStaleCacheSeedCountMiss(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	spec, err := experiment.ParseSpec([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	key, err := spec.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	canon, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	// One summary for a two-seed spec: stale by seed count.
	stale := &Result{Key: key, CanonicalSpec: canon, Seeds: []int64{1}, PerSeed: []metrics.Summary{{Generated: 999}}, Mean: metrics.Summary{Generated: 999}}
	if err := s.store.Put(stale); err != nil {
		t.Fatal(err)
	}

	sub, code := postSpec(t, ts, testSpec)
	if code != http.StatusAccepted || sub.Cached {
		t.Fatalf("stale entry served to a single-job client: code=%d %+v", code, sub)
	}
	jr := waitDone(t, ts, sub.JobID)
	if len(jr.Result.PerSeed) != 2 {
		t.Fatalf("recomputed result has %d per-seed summaries, want 2", len(jr.Result.PerSeed))
	}
	// The recomputation repaired the entry; the next submission hits.
	sub2, code := postSpec(t, ts, testSpec)
	if code != http.StatusOK || !sub2.Cached || len(sub2.Result.PerSeed) != 2 {
		t.Fatalf("repaired entry not served: code=%d %+v", code, sub2)
	}
}

// fabricateJob registers a job exactly as a submission would, without
// starting runJob — freezing the window in which the job has published a
// terminal state but is still present in s.active.
func fabricateJob(t testing.TB, s *Server, specJSON string) (*job, experiment.ScenarioSpec) {
	t.Helper()
	spec, err := experiment.ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	key, err := spec.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	j := s.newJobLocked(key, spec)
	s.queued-- // runJob never runs for this job; keep depth accounting honest
	s.wg.Done()
	s.mu.Unlock()
	return j, spec
}

// TestSubmitRefusesTerminalCoalesce: a submission arriving in the
// terminal window must not attach and be answered "done"/"failed" with
// no payload — a done job's result is served inline from its snapshot,
// a failed job's key queues a fresh job.
func TestSubmitRefusesTerminalCoalesce(t *testing.T) {
	s, err := New(Config{}) // caching off: the disk fast path cannot mask the window
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Done-in-window: the submission is served the snapshot result.
	j, spec := fabricateJob(t, s, testSpec)
	res := &Result{Key: j.key, Seeds: spec.SeedList(), PerSeed: []metrics.Summary{{Generated: 7}, {Generated: 9}}, Mean: metrics.Summary{Generated: 8}}
	j.finish(res, nil, nil)
	sub, code := postSpec(t, ts, testSpec)
	if code != http.StatusOK || sub.Result == nil || sub.Status != string(stateDone) || !sub.Cached {
		t.Fatalf("terminal-done window: code=%d %+v, want inline result", code, sub)
	}
	if sub.Result.Mean != res.Mean {
		t.Fatalf("inline result diverged: %+v", sub.Result.Mean)
	}

	// Failed-in-window: the submission queues a fresh job instead of
	// silently attaching to the corpse.
	failedSpec := `{"preset": "quick", "protocol": "Direct", "nodes": 16, "duration": 300, "seeds": [41]}`
	j2, _ := fabricateJob(t, s, failedSpec)
	j2.fail(errors.New("engine exploded"))
	sub2, code := postSpec(t, ts, failedSpec)
	if code != http.StatusAccepted || sub2.JobID == j2.id {
		t.Fatalf("failed-terminal window: code=%d job=%q, want a fresh queued job (failed job was %q)", code, sub2.JobID, j2.id)
	}
	jr := waitDone(t, ts, sub2.JobID)
	if jr.Result == nil {
		t.Fatalf("fresh job after failed-in-window produced no result: %+v", jr)
	}
}

// TestTerminalCoalesceRaceViaSubscriber pins the live race end to end: a
// subscriber hook blocks the job's runJob goroutine at the instant the
// terminal event publishes — terminal state set, job still in s.active —
// and a concurrent submission must still receive the result inline.
func TestTerminalCoalesceRaceViaSubscriber(t *testing.T) {
	s, err := New(Config{}) // caching off: only the in-flight snapshot can serve
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	spec := `{"preset": "quick", "protocol": "SprayAndWait", "nodes": 30, "duration": 2000}`
	sub, code := postSpec(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	s.mu.Lock()
	j := s.jobs[sub.JobID]
	s.mu.Unlock()

	atTerminal := make(chan struct{})
	proceed := make(chan struct{})
	var once sync.Once
	snap := j.subscribe(func(p metrics.Progress) {
		if p.Done {
			once.Do(func() {
				close(atTerminal)
				<-proceed // hold runJob here: deferred s.active cleanup pends
			})
		}
	})
	if terminalState(snap.state) {
		close(proceed)
		t.Skip("job finished before subscription; window not observable")
	}

	<-atTerminal
	// The job is done and published, but still in s.active.
	sub2, code := postSpec(t, ts, spec)
	close(proceed)
	if code != http.StatusOK || sub2.Status != string(stateDone) || sub2.Result == nil || !sub2.Cached {
		t.Fatalf("submission in terminal window: code=%d %+v, want done + inline result", code, sub2)
	}
	if got := s.Simulated(); got != 1 {
		t.Errorf("Simulated = %d, want 1 (no duplicate simulation)", got)
	}
	waitDone(t, ts, sub.JobID)
}

// TestSweepCellRefusesTerminalCoalesce: sweep cells hitting the terminal
// window behave like submissions — a done job's snapshot serves the cell
// as cached, a failed job's cell queues fresh instead of silently
// attaching the sweep to a failed job.
func TestSweepCellRefusesTerminalCoalesce(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// The alpha=0.2 cell's job is failed-in-window; the 0.6 cell is new.
	j, _ := fabricateJob(t, s, testSweepCellSpec)
	j.fail(errors.New("engine exploded"))
	sw, code := postSweep(t, ts, testSweep)
	if code != http.StatusAccepted {
		t.Fatalf("sweep status %d: %+v", code, sw)
	}
	for _, c := range sw.Cells {
		if c.JobID == j.id {
			t.Fatalf("sweep cell attached to failed-in-window job %s: %+v", j.id, c)
		}
	}
	final := waitSweepState(t, ts, sw.SweepID, stateDone)
	if final.Status != string(stateDone) {
		t.Fatalf("sweep inherited the dead job's failure: %+v", final)
	}

	// Done-in-window: the cell takes the snapshot result as cached.
	doneSpec := `{"preset": "quick", "protocol": "Direct", "nodes": 16, "duration": 300, "seeds": [51]}`
	j2, spec2 := fabricateJob(t, s, doneSpec)
	j2.finish(&Result{Key: j2.key, Seeds: spec2.SeedList(), PerSeed: []metrics.Summary{{Generated: 5}}, Mean: metrics.Summary{Generated: 5}}, nil, nil)
	sw2, code := postSweep(t, ts, `{"base": {"preset": "quick", "protocol": "Direct", "nodes": 16, "duration": 300, "seeds": [51]}}`)
	if code != http.StatusOK || sw2.CellsCached != 1 || sw2.Status != string(stateDone) {
		t.Fatalf("done-in-window cell not served from snapshot: code=%d %+v", code, sw2)
	}
	if sw2.Cells[0].Mean == nil || sw2.Cells[0].Mean.Generated != 5 {
		t.Fatalf("snapshot mean not propagated: %+v", sw2.Cells[0])
	}
	if got := s.Simulated(); got != 2 { // the two fresh testSweep cells only
		t.Errorf("Simulated = %d, want 2", got)
	}
}

// TestDoneJobServesKeyAfterStoreMiss pins the admission race fix: a
// submission whose store read missed (it raced the job's Put, or the
// entry was evicted) reaches its locked admission pass after the job's
// cleanup, and must still find the retained done job by key and be
// served its snapshot instead of queueing a duplicate simulation.
func TestDoneJobServesKeyAfterStoreMiss(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{CacheDir: dir})
	sub, code := postSpec(t, ts, testSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitDone(t, ts, sub.JobID)
	s.wg.Wait() // jobDone has run: the job left the queue
	if err := os.Remove(filepath.Join(dir, sub.Key[:2], sub.Key+".json")); err != nil {
		t.Fatal(err)
	}

	sub2, code := postSpec(t, ts, testSpec)
	if code != http.StatusOK || !sub2.Cached || sub2.JobID != sub.JobID || sub2.Result == nil {
		t.Fatalf("store miss after the job finished: code=%d %+v, want the done job's snapshot", code, sub2)
	}
	if got := s.Simulated(); got != 1 {
		t.Errorf("Simulated = %d, want 1 (no duplicate simulation)", got)
	}
}
