package loadgen

import (
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/server"
)

// sampleExposition is a small latency scrape, written by the codec the
// daemon's /metrics uses: two duration classes (one empty) and the
// unlabeled queue-wait histogram.
var sampleExposition = func() string {
	var b strings.Builder
	obs.WriteText(&b, []obs.Family{
		{Name: "dtnd_http_request_duration_seconds", Help: "HTTP request duration by response class.", Type: "histogram", Samples: []obs.Sample{
			{Labels: []obs.Label{{Name: "class", Value: "2xx"}}, Hist: obs.HistogramSnapshot{Bounds: []float64{0.001, 0.01}, Counts: []int64{5, 3, 2}, Sum: 0.25, Count: 10}},
			{Labels: []obs.Label{{Name: "class", Value: "4xx"}}, Hist: obs.HistogramSnapshot{Bounds: []float64{0.001, 0.01}, Counts: []int64{0, 0, 0}}},
		}},
		{Name: "dtnd_queue_wait_seconds", Help: "Time jobs waited for a permit.", Type: "histogram", Samples: []obs.Sample{
			{Hist: obs.HistogramSnapshot{Bounds: []float64{0.001}, Counts: []int64{3, 1}, Sum: 0.1, Count: 4}},
		}},
	})
	return b.String()
}()

// TestParseServerLatency pins the scrape parser: cumulative buckets come
// back per-bucket, zero-count classes are dropped, and the unlabeled
// queue-wait family parses alongside the labeled one.
func TestParseServerLatency(t *testing.T) {
	sl, err := ParseServerLatency(sampleExposition)
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := sl.Classes["2xx"]
	if !ok {
		t.Fatalf("2xx class missing: %+v", sl.Classes)
	}
	if _, ok := sl.Classes["4xx"]; ok {
		t.Error("zero-count 4xx class should be omitted")
	}
	if snap.Count != 10 || snap.Sum != 0.25 {
		t.Fatalf("2xx header: count=%d sum=%g", snap.Count, snap.Sum)
	}
	if want := []int64{5, 3, 2}; len(snap.Counts) != 3 ||
		snap.Counts[0] != want[0] || snap.Counts[1] != want[1] || snap.Counts[2] != want[2] {
		t.Fatalf("per-bucket counts %v, want %v", snap.Counts, want)
	}
	if p50 := snap.Quantile(0.5); p50 <= 0 || p50 > 0.001 {
		t.Errorf("p50 = %g, want within the first bucket", p50)
	}
	if sl.QueueWait.Count != 4 || len(sl.QueueWait.Counts) != 2 {
		t.Fatalf("queue wait: %+v", sl.QueueWait)
	}
}

// TestParseServerLatencyRejectsTornData: a scrape whose bucket series
// does not reconcile (torn write, truncated body) errors instead of
// returning silently-wrong percentiles.
func TestParseServerLatencyRejectsTornData(t *testing.T) {
	for name, body := range map[string]string{
		"missing +Inf": strings.Replace(sampleExposition,
			`dtnd_queue_wait_seconds_bucket{le="+Inf"} 4`+"\n", "", 1),
		"non-cumulative": strings.Replace(sampleExposition,
			`dtnd_queue_wait_seconds_bucket{le="0.001"} 3`,
			`dtnd_queue_wait_seconds_bucket{le="0.001"} 9`, 1),
		"count mismatch": strings.Replace(sampleExposition,
			"dtnd_queue_wait_seconds_count 4", "dtnd_queue_wait_seconds_count 7", 1),
	} {
		if body == sampleExposition {
			t.Fatalf("%s: the edit did not apply", name)
		}
		if _, err := ParseServerLatency(body); err == nil {
			t.Errorf("%s: parser accepted torn exposition", name)
		}
	}
}

// TestServerLatencyCrossCheck runs a small load against a live in-process
// daemon and fetches the server-side view: the daemon must have booked at
// least as many 2xx requests as the harness's successful submissions
// (status polls and streams add more), and the queue-wait histogram must
// have seen every simulated job.
func TestServerLatencyCrossCheck(t *testing.T) {
	srv, ts := newDaemon(t, server.Config{})
	rep, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Clients:     8,
		Requests:    60,
		UniqueFrac:  0.2,
		SharedSpecs: 4,
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) > 0 {
		t.Fatalf("violations:\n%s", strings.Join(rep.Violations, "\n"))
	}

	sl, err := FetchServerLatency(context.Background(), nil, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", sl.String())
	snap, ok := sl.Classes["2xx"]
	if !ok {
		t.Fatalf("no 2xx histogram after a load run: %+v", sl.Classes)
	}
	if snap.Count < int64(rep.Submitted) {
		t.Errorf("server booked %d 2xx requests, harness submitted %d", snap.Count, rep.Submitted)
	}
	if snap.Quantile(0.99) < snap.Quantile(0.50) {
		t.Errorf("p99 %g < p50 %g", snap.Quantile(0.99), snap.Quantile(0.50))
	}
	if sl.QueueWait.Count != srv.Simulated() {
		// Every job that simulated acquired exactly one permit. Jobs
		// cancelled while queued never observe a wait, and this mix has
		// no cancels.
		t.Errorf("queue wait saw %d jobs, server simulated %d", sl.QueueWait.Count, srv.Simulated())
	}
}
