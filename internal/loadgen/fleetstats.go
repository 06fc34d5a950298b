package loadgen

// Fleet cross-check: when the daemon under load is a sweep-fabric
// coordinator, the harness scrapes its worker registry (/v1/workers) and
// the fleet counter families from /metrics, so a load report shows where
// the dispatched work actually went — per-worker dispatch/completion
// counts, steals and failures, plus fleet-wide retry and cache-serve
// attribution. Like the latency cross-check, everything speaks the
// public wire surface.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"repro/internal/obs"
)

// FleetWorker is one row of the coordinator's worker registry.
type FleetWorker struct {
	URL        string `json:"url"`
	Healthy    bool   `json:"healthy"`
	Dispatched int64  `json:"dispatched"`
	Completed  int64  `json:"completed"`
	Failures   int64  `json:"failures"`
	Steals     int64  `json:"steals"`
}

// FleetStats is the coordinator-side dispatch view after a load run.
type FleetStats struct {
	Workers    []FleetWorker
	QueueDepth int

	// Fleet-wide counters from /metrics.
	Retries         float64 // units requeued after an infrastructure failure
	CachedDispatch  float64 // jobs served from the tiered store at dispatch
	RemoteCacheHits float64 // local reads served by peer pull-through
}

// FetchFleet scrapes baseURL's fleet view. A daemon that is not a
// coordinator (/v1/workers answers 404) returns (nil, nil) — callers
// skip the block. A nil client uses http.DefaultClient.
func FetchFleet(ctx context.Context, client *http.Client, baseURL string) (*FleetStats, error) {
	code, body, err := get(ctx, client, baseURL+"/v1/workers")
	if code == http.StatusNotFound {
		return nil, nil // not a coordinator
	}
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("loadgen: GET /v1/workers: status %d", code)
	}
	if err != nil {
		return nil, err
	}
	var reg struct {
		Workers    []FleetWorker `json:"workers"`
		QueueDepth int           `json:"queue_depth"`
	}
	if err := json.Unmarshal(body, &reg); err != nil {
		return nil, fmt.Errorf("loadgen: decode /v1/workers: %w", err)
	}
	fs := &FleetStats{Workers: reg.Workers, QueueDepth: reg.QueueDepth}

	mbody, err := fetchMetrics(ctx, client, baseURL)
	if err != nil {
		return nil, err
	}
	fams, err := obs.ParseText(mbody)
	if err != nil {
		return nil, fmt.Errorf("loadgen: /metrics: %w", err)
	}
	scalars := obs.Values(fams)
	fs.Retries = scalars["dtnd_fleet_retries_total"]
	fs.CachedDispatch = scalars["dtnd_fleet_cached_total"]
	fs.RemoteCacheHits = scalars["dtnd_cache_remote_hits_total"]
	return fs, nil
}

// String renders the fleet view the way cmd/dtnload prints it.
func (fs *FleetStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet (coordinator dispatch):\n")
	rows := append([]FleetWorker(nil), fs.Workers...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].URL < rows[j].URL })
	for _, w := range rows {
		state := "up"
		if !w.Healthy {
			state = "down"
		}
		fmt.Fprintf(&b, "  %-28s %-4s dispatched %5d  completed %5d  failures %3d  steals %3d\n",
			w.URL, state, w.Dispatched, w.Completed, w.Failures, w.Steals)
	}
	fmt.Fprintf(&b, "  queue depth %d, retries %.0f, dispatch cache-serves %.0f, remote cache hits %.0f\n",
		fs.QueueDepth, fs.Retries, fs.CachedDispatch, fs.RemoteCacheHits)
	return b.String()
}
