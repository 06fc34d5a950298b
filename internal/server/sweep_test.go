package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
)

// testSweep expands to 2 alpha cells over the same base as testSpec with
// alpha 0.2 — so the single-job spec below is one of its cells.
const testSweep = `{
	"base": {"preset": "quick", "protocol": "EER", "nodes": 16, "duration": 400, "seeds": [1, 2]},
	"alpha": [0.2, 0.6]
}`

// testSweepCellSpec is the alpha=0.2 cell of testSweep written as a
// single-job spec: both resolve to the same scenario, hence the same
// content address.
const testSweepCellSpec = `{"preset": "quick", "protocol": "EER", "nodes": 16, "duration": 400, "seeds": [1, 2], "alpha": 0.2}`

func postSweep(t *testing.T, ts *httptest.Server, spec string) (sweepResponse, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out sweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode sweep response: %v", err)
	}
	return out, resp.StatusCode
}

func waitSweepState(t *testing.T, ts *httptest.Server, id string, want ...jobState) sweepResponse {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var sr sweepResponse
		getJSON(t, ts.URL+"/v1/sweeps/"+id, &sr)
		for _, st := range want {
			if sr.Status == string(st) {
				return sr
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s stuck in %q, want %v", id, sr.Status, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSweepEndToEnd: a sweep fans out into per-cell jobs, streams
// aggregate progress to a terminal event, produces a result table keyed
// by cell, and a resubmission is served entirely from cache with zero
// new simulations — the acceptance criterion.
func TestSweepEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	sub, code := postSweep(t, ts, testSweep)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %+v", code, sub)
	}
	if sub.SweepID == "" || sub.CellsTotal != 2 || sub.CellsCached != 0 {
		t.Fatalf("bad sweep submit response %+v", sub)
	}
	for _, c := range sub.Cells {
		if len(c.Axes) != 1 || c.Axes[0].Axis != "alpha" {
			t.Fatalf("cell axes %+v", c.Axes)
		}
		if c.JobID == "" || c.Key == "" {
			t.Fatalf("cell missing job/key: %+v", c)
		}
	}

	// Aggregate NDJSON stream: monotone fractions, terminal done line.
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + sub.SweepID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	var events []SweepProgress
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var p SweepProgress
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, p)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(events) < 2 {
		t.Fatalf("only %d aggregate events", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Frac < events[i-1].Frac {
			t.Fatalf("aggregate progress went backwards: %g after %g", events[i].Frac, events[i-1].Frac)
		}
	}
	last := events[len(events)-1]
	if !last.Done || last.Status != string(stateDone) || last.Frac != 1 || last.CellsDone != 2 {
		t.Fatalf("terminal event %+v", last)
	}

	// Result table: every cell done with a mean, keyed by axis value.
	table := waitSweepState(t, ts, sub.SweepID, stateDone)
	if table.CellsDone != 2 || len(table.Cells) != 2 {
		t.Fatalf("table %+v", table)
	}
	for i, want := range []string{"0.2", "0.6"} {
		c := table.Cells[i]
		if c.Axes[0].Value != want || c.Status != string(stateDone) || c.Mean == nil {
			t.Fatalf("cell %d: %+v", i, c)
		}
	}
	// Each cell's result is addressable directly by its key.
	var cellRes Result
	getJSON(t, ts.URL+"/v1/results/"+table.Cells[0].Key, &cellRes)
	if cellRes.Mean != *table.Cells[0].Mean {
		t.Errorf("cell result endpoint diverged from table")
	}

	// Resubmission: fully cached, no new simulations, identical table.
	before := s.Simulated()
	sub2, code := postSweep(t, ts, testSweep)
	if code != http.StatusOK {
		t.Fatalf("resubmit status %d: %+v", code, sub2)
	}
	if sub2.Status != string(stateDone) || sub2.CellsCached != 2 || sub2.Frac != 1 {
		t.Fatalf("resubmitted sweep not served from cache: %+v", sub2)
	}
	for i := range sub2.Cells {
		if !sub2.Cells[i].Cached || *sub2.Cells[i].Mean != *table.Cells[i].Mean {
			t.Fatalf("resubmitted cell %d diverged: %+v", i, sub2.Cells[i])
		}
	}
	if got := s.Simulated(); got != before {
		t.Errorf("resubmitted sweep simulated (%d -> %d)", before, got)
	}
	// The all-cached sweep is itself addressable, already terminal.
	if st := waitSweepState(t, ts, sub2.SweepID, stateDone); st.CellsCached != 2 {
		t.Errorf("cached sweep status %+v", st)
	}
}

// TestSweepReusesPriorJobs: a sweep overlapping previously-computed
// single jobs simulates only its genuinely new cells — Simulated() grows
// by exactly the unique uncomputed cell count.
func TestSweepReusesPriorJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// Compute one future cell as a plain single job.
	sub, code := postSpec(t, ts, testSweepCellSpec)
	if code != http.StatusAccepted {
		t.Fatalf("single job status %d", code)
	}
	waitDone(t, ts, sub.JobID)
	if got := s.Simulated(); got != 1 {
		t.Fatalf("Simulated = %d after one job", got)
	}

	// The sweep covers that cell plus one new one.
	sw, code := postSweep(t, ts, testSweep)
	if code != http.StatusAccepted {
		t.Fatalf("sweep status %d: %+v", code, sw)
	}
	if sw.CellsCached != 1 {
		t.Fatalf("sweep reused %d cells, want 1: %+v", sw.CellsCached, sw)
	}
	if sw.Cells[0].Key != sub.Key {
		t.Errorf("cell key %s != single-job key %s", sw.Cells[0].Key, sub.Key)
	}
	waitSweepState(t, ts, sw.SweepID, stateDone)
	if got := s.Simulated(); got != 2 {
		t.Errorf("Simulated = %d, want 2 (one job + one new cell)", got)
	}

	// Resubmitting the whole sweep now touches nothing.
	sw2, code := postSweep(t, ts, testSweep)
	if code != http.StatusOK || sw2.CellsCached != 2 {
		t.Fatalf("resubmit: %d %+v", code, sw2)
	}
	if got := s.Simulated(); got != 2 {
		t.Errorf("resubmitted sweep simulated: %d", got)
	}
	// And the cell computed by the sweep is served to single submissions.
	single, code := postSpec(t, ts, `{"preset": "quick", "protocol": "EER", "nodes": 16, "duration": 400, "seeds": [1, 2], "alpha": 0.6}`)
	if code != http.StatusOK || !single.Cached {
		t.Errorf("sweep-computed cell not served to single job: %d %+v", code, single)
	}
}

// TestSweepCancel: DELETE on a sweep cancels its unfinished cells; the
// sweep and its cells end cancelled, and nothing is cached for them.
func TestSweepCancel(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrentJobs: 1})
	// Two heavy cells: with one job slot, at most one runs while the
	// other queues — both must die on sweep cancellation.
	sw, code := postSweep(t, ts, `{
		"base": {"protocol": "MaxProp", "nodes": 240, "duration": 10000, "seeds": [1, 2, 3, 4]},
		"alpha": [0.2, 0.6]
	}`)
	if code != http.StatusAccepted {
		t.Fatalf("sweep status %d", code)
	}
	if code, body := del(t, ts.URL+"/v1/sweeps/"+sw.SweepID); code != http.StatusAccepted {
		t.Fatalf("cancel sweep: %d %s", code, body)
	}
	table := waitSweepState(t, ts, sw.SweepID, stateCancelled)
	for i, c := range table.Cells {
		if c.Status != string(stateCancelled) {
			t.Errorf("cell %d status %q after sweep cancel", i, c.Status)
		}
	}
	if got := s.Simulated(); got != 0 {
		t.Errorf("cancelled sweep simulated %d cells", got)
	}
	// Cancelling a finished sweep conflicts.
	if code, _ := del(t, ts.URL+"/v1/sweeps/"+sw.SweepID); code != http.StatusConflict {
		t.Errorf("re-cancel status %d, want 409", code)
	}
	if code, _ := del(t, ts.URL+"/v1/sweeps/nope"); code != http.StatusNotFound {
		t.Errorf("cancel unknown sweep: %d, want 404", code)
	}
}

// TestSweepSharedCellSurvivesSweepCancel: a cell coalesced with a direct
// submission keeps running when the sweep is cancelled — the sweep only
// releases its own hold.
func TestSweepSharedCellSurvivesSweepCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrentJobs: 1})
	// Direct submission first; the sweep's alpha=0.2 cell coalesces on it.
	single, code := postSpec(t, ts, `{"protocol": "MaxProp", "nodes": 240, "duration": 10000, "seeds": [1, 2, 3, 4], "alpha": 0.2}`)
	if code != http.StatusAccepted {
		t.Fatalf("single job status %d", code)
	}
	sw, code := postSweep(t, ts, `{
		"base": {"protocol": "MaxProp", "nodes": 240, "duration": 10000, "seeds": [1, 2, 3, 4]},
		"alpha": [0.2, 0.6]
	}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("sweep status %d", code)
	}
	shared, other := "", ""
	for _, c := range sw.Cells {
		if c.JobID == single.JobID {
			shared = c.JobID
		} else {
			other = c.JobID
		}
	}
	if shared == "" {
		// The single job finished before the sweep expanded (would be
		// served from cache instead of coalescing): nothing to verify.
		t.Skip("single job finished before sweep submission; no in-flight coalesce")
	}
	if code, _ := del(t, ts.URL+"/v1/sweeps/"+sw.SweepID); code != http.StatusAccepted {
		t.Fatalf("cancel sweep failed")
	}
	// The sweep-only cell dies with the sweep...
	waitState(t, ts, other, stateCancelled)
	// ...while the shared cell keeps running for its direct submitter
	// (the sweep itself stays unterminated until that cell ends).
	jr := waitState(t, ts, shared, stateRunning, stateQueued, stateDone)
	if jr.Status == string(stateCancelled) {
		t.Fatalf("shared cell cancelled with the sweep")
	}
	// Cancel the survivor directly (an explicit job DELETE overrides
	// remaining holds); the sweep then reaches its terminal state too.
	del(t, ts.URL+"/v1/jobs/"+shared)
	waitState(t, ts, shared, stateCancelled, stateDone)
	waitSweepState(t, ts, sw.SweepID, stateCancelled, stateDone)
}

// TestSweepValidationAndAdmission: malformed sweeps are 400; sweeps
// whose new cells overflow the queue are refused whole with 429.
func TestSweepValidationAndAdmission(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxQueuedJobs: 1})
	for name, body := range map[string]string{
		"garbage":       `not json`,
		"unknown field": `{"base": {}, "protocls": ["EER"]}`,
		"bad cell":      `{"base": {}, "protocols": ["EERX"]}`,
	} {
		if _, code := postSweep(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	// Two new cells, one queue slot: refused whole, nothing queued.
	if _, code := postSweep(t, ts, testSweep); code != http.StatusTooManyRequests {
		t.Errorf("oversized sweep status %d, want 429", code)
	}
	if resp, err := http.Get(ts.URL + "/v1/sweeps/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown sweep status %d", resp.StatusCode)
		}
	}
}

// TestSweepPerCellStream: the sweep stream interleaves per-cell lines
// (cell key + that cell's fraction, terminal cell_done) with the
// aggregate, every cell appears, and the final line is still the
// aggregate terminal event.
func TestSweepPerCellStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sub, code := postSweep(t, ts, testSweep)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	keys := map[string]bool{}
	for _, c := range sub.Cells {
		keys[c.Key] = true
	}

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + sub.SweepID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []SweepProgress
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var p SweepProgress
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("bad NDJSON %q: %v", sc.Text(), err)
		}
		events = append(events, p)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	cellFracs := map[string]float64{}
	cellDone := map[string]bool{}
	for _, p := range events {
		if p.Cell == "" {
			continue // aggregate line
		}
		if !keys[p.Cell] {
			t.Fatalf("per-cell line for unknown cell %q", p.Cell)
		}
		if p.CellFrac < cellFracs[p.Cell] {
			t.Fatalf("cell %s frac went backwards: %g after %g", p.Cell, p.CellFrac, cellFracs[p.Cell])
		}
		cellFracs[p.Cell] = p.CellFrac
		if p.CellDone {
			cellDone[p.Cell] = true
		}
		if p.Done {
			t.Fatalf("per-cell line carries the sweep terminal flag: %+v", p)
		}
	}
	for key := range keys {
		if !cellDone[key] {
			t.Errorf("cell %s never emitted a terminal per-cell line", key)
		}
	}
	last := events[len(events)-1]
	if !last.Done || last.Cell != "" || last.Status != string(stateDone) {
		t.Fatalf("final line %+v, want aggregate terminal", last)
	}
}

// TestSweepPagination: ?offset/limit window the cell table while the
// aggregate numbers stay sweep-wide; bad parameters are 400.
func TestSweepPagination(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// 6 cells: alpha × lambda, finished so the table is stable.
	sw, code := postSweep(t, ts, `{
		"base": {"preset": "quick", "protocol": "Direct", "nodes": 16, "duration": 300, "seeds": [1]},
		"alpha": [0.2, 0.4, 0.6],
		"lambda": [5, 10]
	}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit status %d", code)
	}
	full := waitSweepState(t, ts, sw.SweepID, stateDone)
	if full.CellsTotal != 6 || len(full.Cells) != 6 {
		t.Fatalf("full table %+v", full)
	}

	var page sweepResponse
	getJSON(t, ts.URL+"/v1/sweeps/"+sw.SweepID+"?offset=2&limit=3", &page)
	if page.CellsTotal != 6 || page.CellsDone != 6 || page.Offset != 2 || len(page.Cells) != 3 {
		t.Fatalf("page %+v", page)
	}
	for i, c := range page.Cells {
		if c.Key != full.Cells[2+i].Key {
			t.Errorf("page cell %d is %s, want %s", i, c.Key, full.Cells[2+i].Key)
		}
	}
	// CellsCached counts sweep-wide regardless of the window.
	if page.CellsCached != full.CellsCached {
		t.Errorf("page cached count %d != full %d", page.CellsCached, full.CellsCached)
	}
	// Tail window past the end clamps; limit=0 returns aggregate only.
	getJSON(t, ts.URL+"/v1/sweeps/"+sw.SweepID+"?offset=5&limit=10", &page)
	if len(page.Cells) != 1 || page.Cells[0].Key != full.Cells[5].Key {
		t.Fatalf("tail page %+v", page)
	}
	getJSON(t, ts.URL+"/v1/sweeps/"+sw.SweepID+"?limit=0", &page)
	if len(page.Cells) != 0 || page.CellsTotal != 6 {
		t.Fatalf("aggregate-only page %+v", page)
	}
	for _, q := range []string{"?offset=-1", "?limit=-2", "?offset=x", "?limit=x"} {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + sw.SweepID + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestSweepList: GET /v1/sweeps returns every retained sweep in creation
// order with aggregate fields only.
func TestSweepList(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var list struct {
		Sweeps []sweepListEntry `json:"sweeps"`
	}
	getJSON(t, ts.URL+"/v1/sweeps", &list)
	if len(list.Sweeps) != 0 {
		t.Fatalf("fresh server lists %d sweeps", len(list.Sweeps))
	}
	first, code := postSweep(t, ts, testSweep)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitSweepState(t, ts, first.SweepID, stateDone)
	second, code := postSweep(t, ts, testSweep) // fully cached now
	if code != http.StatusOK {
		t.Fatalf("resubmit status %d", code)
	}
	getJSON(t, ts.URL+"/v1/sweeps", &list)
	if len(list.Sweeps) != 2 {
		t.Fatalf("list has %d sweeps, want 2: %+v", len(list.Sweeps), list)
	}
	if list.Sweeps[0].SweepID != first.SweepID || list.Sweeps[1].SweepID != second.SweepID {
		t.Errorf("list order %+v, want creation order %s, %s", list.Sweeps, first.SweepID, second.SweepID)
	}
	for i, e := range list.Sweeps {
		if e.Status != string(stateDone) || e.CellsTotal != 2 || e.CellsDone != 2 || e.Frac != 1 {
			t.Errorf("entry %d: %+v", i, e)
		}
	}
}

// TestSweepCachedServedWhileDraining: like handleSubmit's cached fast
// path, a fully-cached sweep needs no queue slot and is served even
// after Drain begins; a sweep needing simulation is refused with 503.
func TestSweepCachedServedWhileDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	sw, code := postSweep(t, ts, testSweep)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitSweepState(t, ts, sw.SweepID, stateDone)

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	cached, code := postSweep(t, ts, testSweep)
	if code != http.StatusOK || cached.CellsCached != 2 {
		t.Fatalf("cached sweep refused during drain: %d %+v", code, cached)
	}
	if _, code := postSweep(t, ts, `{
		"base": {"preset": "quick", "protocol": "EER", "nodes": 16, "duration": 400, "seeds": [1, 2]},
		"alpha": [0.9]
	}`); code != http.StatusServiceUnavailable {
		t.Errorf("uncached sweep during drain: status %d, want 503", code)
	}
}

// TestSweepTraceReplay pins the daemon's trace fast path: a sweep whose
// axes differ only in protocol shares one recorded world per seed, so the
// first cell's job records the contact script during its live run and
// every later cell replays it instead of re-simulating mobility. Both
// cells still run as jobs (Simulated counts them; gossip and exchange
// metering stay per-protocol honest) — only the world advance is shared.
func TestSweepTraceReplay(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	rec0, rep0 := experiment.TraceRecordings(), experiment.TraceReplays()

	sub, code := postSweep(t, ts, `{
		"base": {"preset": "quick", "nodes": 16, "duration": 400, "seeds": [1]},
		"protocols": ["EER", "SprayAndWait"]
	}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %+v", code, sub)
	}
	table := waitSweepState(t, ts, sub.SweepID, stateDone)
	if table.CellsDone != 2 {
		t.Fatalf("table %+v", table)
	}
	if got := s.Simulated(); got != 2 {
		t.Errorf("Simulated = %d, want 2 (every protocol cell is an honest job)", got)
	}
	if d := experiment.TraceRecordings() - rec0; d != 1 {
		t.Errorf("sweep recorded %d worlds, want 1 (mobility simulated once)", d)
	}
	if d := experiment.TraceReplays() - rep0; d != 1 {
		t.Errorf("sweep replayed %d runs, want 1 (second protocol cell)", d)
	}

	// The counters surface on /metrics for ops dashboards and CI smoke.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{"dtnd_trace_recordings_total", "dtnd_trace_replays_total", "dtnd_trace_cache_puts_total"} {
		if !strings.Contains(string(body), name) {
			t.Errorf("/metrics missing %s", name)
		}
	}

	// An explicit trace=replay spec over the same world is honoured end to
	// end: the user's trace value is kept and replays the sweep's trace.
	sub2, code := postSpec(t, ts, `{"preset": "quick", "protocol": "CR", "nodes": 16, "duration": 400, "seeds": [1], "trace": "replay"}`)
	if code != http.StatusAccepted {
		t.Fatalf("replay job submit status %d: %+v", code, sub2)
	}
	jr := waitState(t, ts, sub2.JobID, stateDone)
	if jr.Status != string(stateDone) {
		t.Fatalf("replay job %+v", jr)
	}
	if d := experiment.TraceReplays() - rep0; d != 2 {
		t.Errorf("explicit replay job did not replay (replays delta %d, want 2)", d)
	}
}

// TestSubmitReplaysRecordedWorld: a single job with no trace field is
// planned like any sweep cell — over a world whose scripts are already
// stored, the lone cell is marked auto and replays (one seed, one replay)
// instead of re-simulating mobility, and its stored result bytes equal a
// live run's.
func TestSubmitReplaysRecordedWorld(t *testing.T) {
	const spec = `{"preset": "quick", "protocol": "CR", "nodes": 16, "duration": 400, "seeds": [3]}`
	rawResult := func(ts *httptest.Server, key string) []byte {
		resp, err := http.Get(ts.URL + "/v1/results/" + key)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET result: %d %v", resp.StatusCode, err)
		}
		return body
	}

	_, live := newTestServer(t, Config{})
	rep0 := experiment.TraceReplays()
	sub, code := postSpec(t, live, spec)
	if code != http.StatusAccepted {
		t.Fatalf("live submit status %d", code)
	}
	waitDone(t, live, sub.JobID)
	if d := experiment.TraceReplays() - rep0; d != 0 {
		t.Fatalf("job over an unrecorded world replayed %d runs", d)
	}

	s, ts := newTestServer(t, Config{})
	parsed, err := experiment.ParseSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := parsed.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := experiment.RecordTrace(context.Background(), sc, s.store); err != nil {
		t.Fatal(err)
	}
	before := scrapeMetrics(t, ts)["dtnd_trace_replays_total"]
	sub2, code := postSpec(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("replay submit status %d", code)
	}
	waitDone(t, ts, sub2.JobID)
	if d := scrapeMetrics(t, ts)["dtnd_trace_replays_total"] - before; d != 1 {
		t.Errorf("dtnd_trace_replays_total rose by %g, want 1", d)
	}
	if a, b := rawResult(live, sub.Key), rawResult(ts, sub2.Key); !bytes.Equal(a, b) {
		t.Errorf("replayed result bytes differ from the live run's:\n%s\n%s", a, b)
	}
}

// epidemicLambdaSweep's three cells are one run: Epidemic never reads λ
// (experiment.Plan marks the λ=8 and λ=12 cells SameRun).
const epidemicLambdaSweep = `{
	"base": {"preset": "quick", "protocol": "Epidemic", "nodes": 16, "duration": 300, "seeds": [1, 2]},
	"lambda": [4, 8, 12]
}`

// TestSweepSameRunFollows: cells that are one run simulate once — the
// others follow the first cell's job — and each cell is still stored
// under its own key with exactly the bytes a single-job submission of
// that cell stores on a fresh server.
func TestSweepSameRunFollows(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrentJobs: 2})
	sw, code := postSweep(t, ts, epidemicLambdaSweep)
	if code != http.StatusAccepted {
		t.Fatalf("sweep status %d: %+v", code, sw)
	}
	final := waitSweepState(t, ts, sw.SweepID, stateDone, stateFailed, stateCancelled)
	if final.Status != string(stateDone) || len(final.Cells) != 3 {
		t.Fatalf("sweep ended %+v", final)
	}
	if got := s.Simulated(); got != 1 {
		t.Errorf("Simulated = %d, want 1 (one run serves all three cells)", got)
	}
	for _, c := range final.Cells {
		_, raw, ok := s.store.GetRaw(c.Key)
		if !ok {
			t.Fatalf("cell %v not stored under its key", c.Axes)
		}
		lambda := c.Axes[0].Value
		s2, ts2 := newTestServer(t, Config{})
		sub, code := postSpec(t, ts2, `{"preset": "quick", "protocol": "Epidemic", "nodes": 16, "duration": 300, "seeds": [1, 2], "lambda": `+lambda+`}`)
		if code != http.StatusAccepted || sub.Key != c.Key {
			t.Fatalf("λ=%s single job: code %d key %s, want %s", lambda, code, sub.Key, c.Key)
		}
		waitDone(t, ts2, sub.JobID)
		_, want, ok := s2.store.GetRaw(c.Key)
		if !ok || !bytes.Equal(raw, want) {
			t.Errorf("λ=%s stored entry differs from a single-job run's:\n%s\nwant:\n%s", lambda, raw, want)
		}
	}
}

// TestSweepSameRunEndsWithItsRun: a follower ends in the state of the
// job it follows — failed with its error, or cancelled — and never
// simulates on its own.
func TestSweepSameRunEndsWithItsRun(t *testing.T) {
	t.Run("failed", func(t *testing.T) {
		s, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		// The λ=4 cell attaches to a live job that then fails.
		j, _ := fabricateJob(t, s, `{"preset": "quick", "protocol": "Epidemic", "nodes": 16, "duration": 300, "seeds": [1, 2], "lambda": 4}`)
		sw, code := postSweep(t, ts, epidemicLambdaSweep)
		if code != http.StatusAccepted {
			t.Fatalf("sweep status %d", code)
		}
		j.terminal(failed(errors.New("engine exploded")))
		final := waitSweepState(t, ts, sw.SweepID, stateFailed, stateDone, stateCancelled)
		for _, c := range final.Cells {
			if c.Status != string(stateFailed) || c.Error != "engine exploded" {
				t.Errorf("cell %v: %s %q, want failed with the followed job's error", c.Axes, c.Status, c.Error)
			}
		}
		if got := s.Simulated(); got != 0 {
			t.Errorf("Simulated = %d, want 0", got)
		}
	})
	heavy := `{
		"base": {"protocol": "Epidemic", "nodes": 240, "duration": 10000, "seeds": [1, 2, 3, 4]},
		"lambda": [4, 8]
	}`
	t.Run("job cancelled", func(t *testing.T) {
		_, ts := newTestServer(t, Config{})
		sw, code := postSweep(t, ts, heavy)
		if code != http.StatusAccepted {
			t.Fatalf("sweep status %d", code)
		}
		del(t, ts.URL+"/v1/jobs/"+sw.Cells[0].JobID)
		waitState(t, ts, sw.Cells[1].JobID, stateCancelled)
		waitSweepState(t, ts, sw.SweepID, stateCancelled)
	})
	t.Run("sweep cancelled", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		sw, code := postSweep(t, ts, heavy)
		if code != http.StatusAccepted {
			t.Fatalf("sweep status %d", code)
		}
		if code, body := del(t, ts.URL+"/v1/sweeps/"+sw.SweepID); code != http.StatusAccepted {
			t.Fatalf("cancel sweep: %d %s", code, body)
		}
		// The follower's hold on the first cell's job goes with it, so
		// the run itself stops too.
		for _, c := range sw.Cells {
			waitState(t, ts, c.JobID, stateCancelled)
		}
		if got := s.Simulated(); got != 0 {
			t.Errorf("cancelled sweep simulated %d jobs", got)
		}
	})
}
