// Package metrics accumulates the three figures of merit of the paper's
// evaluation — delivery ratio, average latency and goodput — plus the
// auxiliary counters (relays, drops, aborts, expiries, hop counts) that
// the harness and tests use to explain them.
package metrics

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// Collector tallies a single simulation run. It is not safe for concurrent
// use; each run owns one.
type Collector struct {
	generated int
	delivered int
	relays    int
	drops     int
	aborts    int
	expired   int
	refused   int
	contacts  int

	latencySum float64
	hopSum     int
	latencies  []float64

	gossipRows        int
	gossipEntries     int
	gossipBytes       int
	gossipDigestBytes int

	// createdAt is each message's creation time, indexed by its dense
	// id (the world numbers messages from 1).
	createdAt []float64
}

// New returns an empty collector.
func New() *Collector { return &Collector{} }

// MessageCreated records a generated message.
func (c *Collector) MessageCreated(id int, t float64) {
	c.generated++
	for len(c.createdAt) <= id {
		c.createdAt = append(c.createdAt, 0)
	}
	c.createdAt[id] = t
}

// MessageRelayed records one completed node-to-node transfer (including the
// final hop to the destination) — the denominator of goodput.
func (c *Collector) MessageRelayed() { c.relays++ }

// MessageDelivered records the first arrival of message id at its
// destination at time t with the given hop count — the paper's "at least
// one replica arrives" success criterion. The world calls it once per
// message: its destination's delivered set is the one record of delivery.
func (c *Collector) MessageDelivered(id int, t float64, hops int) {
	c.delivered++
	lat := t - c.createdAt[id]
	c.latencySum += lat
	c.latencies = append(c.latencies, lat)
	c.hopSum += hops
}

// MessageDropped records a buffer eviction.
func (c *Collector) MessageDropped() { c.drops++ }

// MessagesExpired records n TTL expiry purges: the expiry sweep counts
// per worker and merges here.
func (c *Collector) MessagesExpired(n int) { c.expired += n }

// MessageRefused records a buffer refusal (message larger than buffer).
func (c *Collector) MessageRefused() { c.refused++ }

// TransferAborted records a transfer cut off by contact loss.
func (c *Collector) TransferAborted() { c.aborts++ }

// EstimatorExchanged records one direction's worth of estimator link-state
// gossip (MI rows, MaxProp probability vectors) copied during a contact:
// rows replaced because the sender's were fresher, the known entries those
// rows carried, and the serialized volume they stand for — bytes already
// includes digestBytes, the digest/request overhead a delta exchange adds
// (0 in the legacy fresher accounting). Metadata exchange is free in the
// simulated link model (matching ONE and the paper's cost accounting);
// these counters make its volume visible in run summaries.
func (c *Collector) EstimatorExchanged(rows, entries, bytes, digestBytes int) {
	c.gossipRows += rows
	c.gossipEntries += entries
	c.gossipBytes += bytes
	c.gossipDigestBytes += digestBytes
}

// GossipBytes returns the accumulated estimator exchange volume in bytes.
func (c *Collector) GossipBytes() int { return c.gossipBytes }

// ContactStarted records a new pairwise contact.
func (c *Collector) ContactStarted() { c.contacts++ }

// Contacts returns the number of pairwise contacts observed.
func (c *Collector) Contacts() int { return c.contacts }

// Generated returns the number of generated messages.
func (c *Collector) Generated() int { return c.generated }

// DeliveredCount returns the number of distinct delivered messages.
func (c *Collector) DeliveredCount() int { return c.delivered }

// Relays returns the number of completed transfers.
func (c *Collector) Relays() int { return c.relays }

// Drops returns the number of buffer evictions.
func (c *Collector) Drops() int { return c.drops }

// Aborts returns the number of aborted transfers.
func (c *Collector) Aborts() int { return c.aborts }

// Expired returns the number of TTL purges.
func (c *Collector) Expired() int { return c.expired }

// DeliveryRatio returns delivered/generated (0 when nothing was generated).
func (c *Collector) DeliveryRatio() float64 {
	if c.generated == 0 {
		return 0
	}
	return float64(c.delivered) / float64(c.generated)
}

// AvgLatency returns the mean delivery delay over delivered messages.
func (c *Collector) AvgLatency() float64 {
	if c.delivered == 0 {
		return 0
	}
	return c.latencySum / float64(c.delivered)
}

// MedianLatency returns the median delivery delay.
func (c *Collector) MedianLatency() float64 {
	if len(c.latencies) == 0 {
		return 0
	}
	s := append([]float64(nil), c.latencies...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// Goodput returns delivered/relays — the paper's third metric (0 when no
// transfer completed).
func (c *Collector) Goodput() float64 {
	if c.relays == 0 {
		return 0
	}
	return float64(c.delivered) / float64(c.relays)
}

// OverheadRatio returns (relays-delivered)/delivered, ONE's overhead metric
// (0 when nothing was delivered).
func (c *Collector) OverheadRatio() float64 {
	if c.delivered == 0 {
		return 0
	}
	return float64(c.relays-c.delivered) / float64(c.delivered)
}

// AvgHops returns the mean hop count of delivered messages.
func (c *Collector) AvgHops() float64 {
	if c.delivered == 0 {
		return 0
	}
	return float64(c.hopSum) / float64(c.delivered)
}

// Summary is a value snapshot of a collector, convenient for averaging
// across seeds and rendering. The JSON field names are the wire contract of
// the dtnd result cache and API: two builds that agree on simulation
// semantics produce byte-identical marshalled summaries.
type Summary struct {
	Generated int `json:"generated"`
	Delivered int `json:"delivered"`
	Relays    int `json:"relays"`
	Drops     int `json:"drops"`
	Aborts    int `json:"aborts"`
	Expired   int `json:"expired"`
	Contacts  int `json:"contacts"`

	// Estimator exchange volume: link-state rows gossiped at contacts, the
	// known entries they carried, and their serialized byte volume.
	// GossipDigestBytes breaks out the digest/request overhead of delta
	// gossip (already included in GossipBytes); zero under the legacy
	// fresher accounting, and omitted from JSON then so historical figure
	// fixtures stay byte-identical.
	GossipRows        int `json:"gossip_rows"`
	GossipEntries     int `json:"gossip_entries"`
	GossipBytes       int `json:"gossip_bytes"`
	GossipDigestBytes int `json:"gossip_digest_bytes,omitempty"`

	DeliveryRatio float64 `json:"delivery_ratio"`
	AvgLatency    float64 `json:"avg_latency"`
	MedianLatency float64 `json:"median_latency"`
	Goodput       float64 `json:"goodput"`
	OverheadRatio float64 `json:"overhead_ratio"`
	AvgHops       float64 `json:"avg_hops"`

	// Timing is the engine phase profile of the run that produced this
	// summary — present only when profiling was requested, nil (and
	// omitted from JSON) otherwise. Wall-clock time is not deterministic,
	// so Timing is NOT part of the wire contract above: the result cache
	// strips it before persisting (experiment.CellResultOf), keeping
	// cached bytes and golden fixtures identical whether or not the run
	// was profiled.
	Timing *obs.Timing `json:"timing,omitempty"`
}

// Summary returns the current snapshot.
func (c *Collector) Summary() Summary {
	return Summary{
		Generated:         c.generated,
		Delivered:         c.delivered,
		Relays:            c.relays,
		Drops:             c.drops,
		Aborts:            c.aborts,
		Expired:           c.expired,
		Contacts:          c.contacts,
		GossipRows:        c.gossipRows,
		GossipEntries:     c.gossipEntries,
		GossipBytes:       c.gossipBytes,
		GossipDigestBytes: c.gossipDigestBytes,
		DeliveryRatio:     c.DeliveryRatio(),
		AvgLatency:        c.AvgLatency(),
		MedianLatency:     c.MedianLatency(),
		Goodput:           c.Goodput(),
		OverheadRatio:     c.OverheadRatio(),
		AvgHops:           c.AvgHops(),
	}
}

// String implements fmt.Stringer with the three paper metrics first.
func (s Summary) String() string {
	return fmt.Sprintf("delivery=%.3f latency=%.1fs goodput=%.4f (gen=%d del=%d relay=%d drop=%d)",
		s.DeliveryRatio, s.AvgLatency, s.Goodput, s.Generated, s.Delivered, s.Relays, s.Drops)
}

// Progress is one live progress event of a running simulation job — the
// NDJSON records the dtnd streaming endpoint emits. Seed indexes the
// spec's seed list (0-based); T advances to Duration within each seed run.
// Frac is overall job completion across all seeds in [0, 1]. The terminal
// event of a job carries Done=true and the result summary.
type Progress struct {
	Seed     int      `json:"seed"`
	Seeds    int      `json:"seeds"`
	T        float64  `json:"t"`
	Duration float64  `json:"duration"`
	Frac     float64  `json:"frac"`
	Done     bool     `json:"done,omitempty"`
	Error    string   `json:"error,omitempty"`
	Summary  *Summary `json:"summary,omitempty"`
	// Timing rides the terminal event of profiled daemon jobs: the
	// job's engine phase profile, kept outside Summary so the cached
	// (deterministic) result bytes stay timing-free.
	Timing *obs.Timing `json:"timing,omitempty"`
}

// Mean averages a set of summaries component-wise (counts become means
// too, which keeps the printout informative).
func Mean(ss []Summary) Summary {
	if len(ss) == 0 {
		return Summary{}
	}
	var out Summary
	n := float64(len(ss))
	for _, s := range ss {
		out.Generated += s.Generated
		out.Delivered += s.Delivered
		out.Relays += s.Relays
		out.Drops += s.Drops
		out.Aborts += s.Aborts
		out.Expired += s.Expired
		out.Contacts += s.Contacts
		out.GossipRows += s.GossipRows
		out.GossipEntries += s.GossipEntries
		out.GossipBytes += s.GossipBytes
		out.GossipDigestBytes += s.GossipDigestBytes
		out.DeliveryRatio += s.DeliveryRatio
		out.AvgLatency += s.AvgLatency
		out.MedianLatency += s.MedianLatency
		out.Goodput += s.Goodput
		out.OverheadRatio += s.OverheadRatio
		out.AvgHops += s.AvgHops
		// Timing folds (sums, not means): the merged block spans all runs.
		out.Timing = obs.MergeTiming(out.Timing, s.Timing)
	}
	out.Generated = int(float64(out.Generated)/n + 0.5)
	out.Delivered = int(float64(out.Delivered)/n + 0.5)
	out.Relays = int(float64(out.Relays)/n + 0.5)
	out.Drops = int(float64(out.Drops)/n + 0.5)
	out.Aborts = int(float64(out.Aborts)/n + 0.5)
	out.Expired = int(float64(out.Expired)/n + 0.5)
	out.Contacts = int(float64(out.Contacts)/n + 0.5)
	out.GossipRows = int(float64(out.GossipRows)/n + 0.5)
	out.GossipEntries = int(float64(out.GossipEntries)/n + 0.5)
	out.GossipBytes = int(float64(out.GossipBytes)/n + 0.5)
	out.GossipDigestBytes = int(float64(out.GossipDigestBytes)/n + 0.5)
	out.DeliveryRatio /= n
	out.AvgLatency /= n
	out.MedianLatency /= n
	out.Goodput /= n
	out.OverheadRatio /= n
	out.AvgHops /= n
	return out
}
