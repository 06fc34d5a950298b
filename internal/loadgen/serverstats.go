package loadgen

// Server-side latency cross-check: after a load run, the harness scrapes
// the daemon's /metrics histograms — request duration by response class
// and job queue wait — and reports their percentiles next to its own
// client-side measurements. Client p99 >> server p99 means time is going
// to the network or the client; server p99 tracking client p99 means the
// daemon itself is the bottleneck. The scrape reads the public wire
// surface, like everything else in this package, through obs.ParseText.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"repro/internal/obs"
)

// ServerLatency is the server-side latency view scraped from /metrics.
type ServerLatency struct {
	// Classes maps response class ("2xx", "4xx", ...) to the request
	// duration histogram of that class. Classes with zero observations
	// are omitted.
	Classes map[string]obs.HistogramSnapshot
	// QueueWait is the accepted-to-permit wait histogram.
	QueueWait obs.HistogramSnapshot
}

// FetchServerLatency scrapes baseURL's /metrics and extracts the latency
// histogram families. A nil client uses http.DefaultClient.
func FetchServerLatency(ctx context.Context, client *http.Client, baseURL string) (*ServerLatency, error) {
	body, err := fetchMetrics(ctx, client, baseURL)
	if err != nil {
		return nil, err
	}
	return ParseServerLatency(body)
}

// fetchMetrics reads baseURL's /metrics body.
func fetchMetrics(ctx context.Context, client *http.Client, baseURL string) (string, error) {
	code, body, err := get(ctx, client, baseURL+"/metrics")
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("loadgen: GET /metrics: status %d", code)
	}
	return string(body), err
}

// get issues GET url and reads the reply: status code and body. A nil
// client uses http.DefaultClient.
func get(ctx context.Context, client *http.Client, url string) (int, []byte, error) {
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// ParseServerLatency extracts the daemon's latency histograms from a
// Prometheus text exposition body, which obs.ParseText reads strictly.
func ParseServerLatency(body string) (*ServerLatency, error) {
	fams, err := obs.ParseText(body)
	if err != nil {
		return nil, fmt.Errorf("loadgen: /metrics: %w", err)
	}
	sl := &ServerLatency{Classes: map[string]obs.HistogramSnapshot{}}
	for _, f := range fams {
		for _, s := range f.Samples {
			switch {
			case f.Name == "dtnd_http_request_duration_seconds" && s.Hist.Count > 0 && len(s.Labels) == 1:
				sl.Classes[s.Labels[0].Value] = s.Hist // class="2xx" and so on
			case f.Name == "dtnd_queue_wait_seconds":
				sl.QueueWait = s.Hist
			}
		}
	}
	return sl, nil
}

// String renders the server-side view the way cmd/dtnload prints it.
func (sl *ServerLatency) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "server-side (/metrics histograms):\n")
	var classes []string
	for c := range sl.Classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		snap := sl.Classes[c]
		fmt.Fprintf(&b, "  %-9s %6d  p50 %8.3fms  p99 %8.3fms\n",
			c, snap.Count, snap.Quantile(0.50)*1000, snap.Quantile(0.99)*1000)
	}
	if sl.QueueWait.Count > 0 {
		fmt.Fprintf(&b, "  %-9s %6d  p50 %8.3fms  p99 %8.3fms\n",
			"queue", sl.QueueWait.Count, sl.QueueWait.Quantile(0.50)*1000, sl.QueueWait.Quantile(0.99)*1000)
	}
	return b.String()
}
