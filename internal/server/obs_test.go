package server

// Tests for the daemon's observability surface: Prometheus exposition
// completeness (every registered metric declared and sampled, the whole
// body accepted by the strict obs.ParseText), the histogram families, per-job engine
// timing in status/stream replies, pprof gating, and structured logging.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// TestMetricsCompleteness scrapes a fresh server and checks the whole
// exposition is internally consistent. obs.ParseText checks the format:
// every family has one HELP and one TYPE before its samples, no sample
// repeats, and histogram bucket series are cumulative, end at
// le="+Inf" and reconcile with _count. On top of that every family is
// sampled, scalars have one sample, the per-phase family carries one
// series per engine phase and the duration histogram one per response
// class.
func TestMetricsCompleteness(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	fams := scrape(t, ts)

	if len(fams) < 25 {
		t.Fatalf("only %d metric families exposed", len(fams))
	}
	byName := map[string]obs.Family{}
	for _, f := range fams {
		byName[f.Name] = f
		if len(f.Samples) == 0 {
			t.Errorf("%s: declared but never sampled", f.Name)
		}
		if f.Type != "histogram" && len(f.Samples) > 1 && f.Name != "dtnd_sim_phase_seconds_total" {
			t.Errorf("%s: %d samples for a scalar metric", f.Name, len(f.Samples))
		}
	}

	// The phase family exposes exactly one series per engine phase.
	phases := byName["dtnd_sim_phase_seconds_total"]
	if len(phases.Samples) != int(obs.NumPhases) {
		t.Fatalf("phase family: %+v, want %d series", phases, int(obs.NumPhases))
	}
	for i, ph := range obs.PhaseNames() {
		if got, want := phases.Samples[i].Labels, []obs.Label{{Name: "phase", Value: ph}}; !reflect.DeepEqual(got, want) {
			t.Errorf("phase series %d has labels %v, want %v", i, got, want)
		}
	}

	for _, name := range []string{"dtnd_http_request_duration_seconds", "dtnd_queue_wait_seconds"} {
		if f := byName[name]; f.Type != "histogram" {
			t.Fatalf("%s: missing or not a histogram (%+v)", name, f)
		}
	}
	if got := len(byName["dtnd_http_request_duration_seconds"].Samples); got != len(respClasses) {
		t.Errorf("http duration: %d series, want one per response class (%d)", got, len(respClasses))
	}
}

// TestJobTimingAndHistograms runs a real job over HTTP and checks the
// request-tracing surface end to end: the job status carries the engine
// phase breakdown, the terminal stream event repeats it, the phase
// counters and both histogram families advance, and the queue-wait
// histogram saw the job.
func TestJobTimingAndHistograms(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	sub, code := postSpec(t, ts, testSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	jr := waitDone(t, ts, sub.JobID)
	if jr.Timing == nil {
		t.Fatal("done job status has no timing block")
	}
	if jr.Timing.Runs != 2 || jr.Timing.Ticks == 0 {
		t.Fatalf("timing header: %+v (want runs=2 for the two seeds)", jr.Timing)
	}
	if jr.Timing.PhaseSeconds("mobility") <= 0 || jr.Timing.PhaseSeconds("scan") <= 0 {
		t.Fatalf("phase breakdown empty: %+v", jr.Timing.Phases)
	}
	// Bit-neutrality at the wire: the cached result must not carry timing.
	rawRes, _ := json.Marshal(jr.Result)
	if strings.Contains(string(rawRes), `"timing"`) {
		t.Fatalf("timing leaked into the cacheable result: %s", rawRes)
	}

	// The terminal stream event repeats the timing block.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.JobID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last metrics.Progress
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
	}
	if !last.Done || last.Timing == nil || last.Timing.PhaseSeconds("mobility") <= 0 {
		t.Fatalf("terminal stream event lacks timing: %+v", last)
	}

	// Server-side counters: phase seconds, queue wait and HTTP duration
	// all advanced.
	m := scrapeMetrics(t, ts)
	if v := m[`dtnd_sim_phase_seconds_total{phase="mobility"}`]; v <= 0 {
		t.Errorf("mobility phase counter = %g, want > 0", v)
	}
	if v := m["dtnd_queue_wait_seconds_count"]; v != 1 {
		t.Errorf("queue wait count = %g, want 1", v)
	}
	if v := m[`dtnd_http_request_duration_seconds_count{class="2xx"}`]; v < 2 {
		t.Errorf("2xx duration count = %g, want >= 2", v)
	}
}

// TestPprofGating pins the satellite contract: /debug/pprof/* is absent
// by default and served when Config.EnablePprof is set.
func TestPprofGating(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof disabled: GET /debug/pprof/ status %d, want 404", resp.StatusCode)
	}

	_, on := newTestServer(t, Config{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof enabled: GET /debug/pprof/ status %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof enabled: GET /debug/pprof/cmdline status %d, want 200", resp.StatusCode)
	}
}

// TestStructuredLogging checks the slog surface: job lifecycle lines
// carry the job and key attributes, sweep acceptance carries the sweep
// id, and a nil Logger config stays silent (and does not crash).
func TestStructuredLogging(t *testing.T) {
	lw := &syncWriter{}
	logger := slog.New(slog.NewJSONHandler(lw, &slog.HandlerOptions{Level: slog.LevelDebug}))
	_, ts := newTestServer(t, Config{Logger: logger})

	sub, code := postSpec(t, ts, testSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitDone(t, ts, sub.JobID)
	if _, code := postSpec(t, ts, testSpec); code != http.StatusOK {
		t.Fatalf("resubmit status %d", code)
	}
	sw, code := postSweep(t, ts, testSweep)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("sweep status %d", code)
	}
	waitSweepState(t, ts, sw.SweepID, stateDone)

	type line struct {
		Msg   string `json:"msg"`
		Job   string `json:"job"`
		Key   string `json:"key"`
		Sweep string `json:"sweep"`
	}
	var byMsg = map[string][]line{}
	for _, raw := range strings.Split(lw.String(), "\n") {
		if raw == "" {
			continue
		}
		var l line
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("non-JSON log line %q: %v", raw, err)
		}
		byMsg[l.Msg] = append(byMsg[l.Msg], l)
	}
	for _, msg := range []string{"job accepted", "job running", "job terminal"} {
		ls := byMsg[msg]
		if len(ls) == 0 {
			t.Fatalf("no %q log line; have %v", msg, keysOf(byMsg))
		}
		for _, l := range ls {
			if l.Job == "" || l.Key == "" {
				t.Errorf("%q line missing job/key attrs: %+v", msg, l)
			}
		}
	}
	if ls := byMsg["job cache hit"]; len(ls) == 0 {
		t.Error("no cache-hit debug line for the resubmission")
	}
	if ls := byMsg["sweep accepted"]; len(ls) == 0 || ls[0].Sweep == "" {
		t.Errorf("sweep acceptance line missing or without sweep id: %+v", ls)
	}
}

func keysOf[V any](m map[string][]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// syncWriter serializes writes: slog handlers lock per-handler, but the
// test reads the buffer while jobs may still log from their goroutines.
type syncWriter struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncWriter) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
