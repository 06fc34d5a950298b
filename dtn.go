// Package repro is a Go reproduction of Chen & Lou, "On Using Contact
// Expectation for Routing in Delay Tolerant Networks" (ICPP 2011): the EER
// and CR routing protocols, the baseline protocols they are evaluated
// against, and a complete DTN simulator (mobility, contacts, buffers,
// traffic, metrics) to run them in.
//
// This root package is the stable facade: scenario configuration,
// execution, sweeps and the paper's contact-expectation estimators. The
// estimators (History, MeetingMatrix, MEMD) keep per-node state that grows
// with the peers a node observed, never with the network size, so the
// same code serves the paper's figures and 10⁵-node cities. The
// implementation lives in internal/ packages (see DESIGN.md for the
// inventory); examples/ and cmd/ show idiomatic use.
//
// Quick start:
//
//	s := repro.DefaultScenario()
//	s.Protocol = repro.EER
//	s.Nodes = 120
//	fmt.Println(s.Run())
//
// Multi-run studies go through one path: a SweepSpec (a base
// ScenarioSpec plus axes such as protocols, node counts or λ) expands
// into validated, content-addressed cells that RunSweep simulates once
// each, serving what a ResultStore already holds — the path cmd/figures,
// cmd/sweep and dtnd use:
//
//	sw := repro.SweepSpec{
//		Base:      repro.ScenarioSpec{Seeds: repro.Seeds(5)},
//		Protocols: []string{"EER", "CR"},
//		Nodes:     []int{40, 120, 240},
//	}
//	cells, err := repro.RunSweep(ctx, sw, nil) // nil store: no caching
package repro

import (
	"context"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/resultcache"
)

// Scenario is a complete run configuration: protocol, fleet size, paper
// parameters (λ, α, TTL, buffer, radio), mobility and traffic.
type Scenario = experiment.Scenario

// Protocol names a routing protocol implementation.
type Protocol = experiment.Protocol

// Summary holds one run's metrics: the paper's delivery ratio, latency and
// goodput plus auxiliary counters.
type Summary = metrics.Summary

// Metric selects one plotted quantity from a Summary.
type Metric = experiment.Metric

// History is a node's sliding-window contact history with the paper's
// estimators: EEV (Theorem 1), EMD (Theorem 2) and ENEC (Theorem 4).
type History = core.History

// MeetingStore is the read and refresh contract of the MI link state:
// interval lookup, row freshness, own-row refresh and known-entry
// iteration.
type MeetingStore = core.MeetingStore

// MeetingMatrix is the link-state MI matrix of average meeting intervals
// with per-row freshness merge. It stores only the rows its node published
// or learned, so memory grows with recorded meetings instead of the
// network size.
type MeetingMatrix = core.MeetingMatrix

// MEMD computes minimum expected meeting delays (Theorem 3) with a heap
// Dijkstra over the recorded edges of a History and a MeetingMatrix.
type MEMD = core.MEMD

// The protocols of the paper's evaluation plus extra references and
// ablation variants.
const (
	EER           = experiment.EER
	CR            = experiment.CR
	EBR           = experiment.EBR
	MaxProp       = experiment.MaxProp
	SprayAndWait  = experiment.SprayAndWait
	SprayAndFocus = experiment.SprayAndFocus
	Epidemic      = experiment.Epidemic
	Prophet       = experiment.Prophet
	Direct        = experiment.Direct
	FirstContact  = experiment.FirstContact
	EERFixedEV    = experiment.EERFixedEV
	EERMeanMD     = experiment.EERMeanMD
)

// PaperProtocols lists the six protocols of the paper's Figure 2 in plot
// order.
var PaperProtocols = experiment.AllPaperProtocols

// The paper's three metrics, in sub-figure order (a, b, c).
var (
	MetricDeliveryRatio = experiment.MetricDeliveryRatio
	MetricLatency       = experiment.MetricLatency
	MetricGoodput       = experiment.MetricGoodput
	PaperMetrics        = experiment.PaperMetrics
)

// ScenarioSpec is the declarative JSON form of a simulation job: a preset
// plus overrides, resolving to one Scenario and a seed list. It is the
// payload the dtnd daemon accepts, and the preimage of its
// content-addressed result cache.
type ScenarioSpec = experiment.ScenarioSpec

// ParseSpec decodes a JSON scenario spec strictly (unknown fields are
// errors).
func ParseSpec(data []byte) (ScenarioSpec, error) { return experiment.ParseSpec(data) }

// RunSpec resolves, validates and executes a spec over its seed list
// through the bounded worker pool, returning per-seed summaries.
func RunSpec(sp ScenarioSpec) ([]Summary, error) { return experiment.RunSpecStore(nil, sp, nil, nil) }

// SweepSpec is a declarative parameter study: a base ScenarioSpec plus
// axes (protocols, node counts, the Section V-B parameters and the A3
// forwarding hysteresis) that deterministically expand into
// content-addressed cells. It is the payload of dtnd's /v1/sweeps
// endpoint and the grid form cmd/sweep and every cmd/figures figure
// expand through.
type SweepSpec = experiment.SweepSpec

// SweepCell is one expanded sweep point: its spec, content address and
// axis coordinates.
type SweepCell = experiment.SweepCell

// AxisValue names one axis coordinate of a sweep cell.
type AxisValue = experiment.AxisValue

// CellResult is one cell's outcome in a sweep result table.
type CellResult = experiment.CellResult

// ResultStore is the bounded content-addressed result cache shared by
// dtnd and the CLIs; a nil store always misses.
type ResultStore = resultcache.Store

// OpenResultStore opens (creating if needed) a result cache rooted at
// dir; maxBytes > 0 bounds its total size with oldest-mtime eviction.
func OpenResultStore(dir string, maxBytes int64) (*ResultStore, error) {
	return resultcache.Open(dir, maxBytes)
}

// ParseSweepSpec decodes a JSON sweep spec strictly (unknown fields are
// errors).
func ParseSweepSpec(data []byte) (SweepSpec, error) { return experiment.ParseSweepSpec(data) }

// RunSweep expands and executes a sweep: cells present in store are
// served from disk, the rest run as one flattened job list over the
// bounded pool and are persisted back. Cancel ctx to stop early.
func RunSweep(ctx context.Context, sw SweepSpec, store *ResultStore) ([]CellResult, error) {
	return experiment.RunSweep(ctx, sw, store)
}

// DefaultScenario returns the paper's Section V-A configuration.
func DefaultScenario() Scenario { return experiment.Default() }

// QuickScenario returns a scaled-down configuration for fast exploration.
func QuickScenario() Scenario { return experiment.Quick() }

// RunSeeds executes a scenario once per seed through the bounded worker
// pool, returning the per-seed summaries.
func RunSeeds(s Scenario, seeds []int64) []Summary { return experiment.RunSeeds(s, seeds) }

// RunAveraged executes a scenario over n seeds and returns the mean
// summary.
func RunAveraged(s Scenario, n int) Summary { return experiment.RunAveraged(s, n) }

// Seeds returns the canonical seed list 1..n.
func Seeds(n int) []int64 { return experiment.Seeds(n) }

// MeanSummary averages summaries component-wise.
func MeanSummary(ss []Summary) Summary { return metrics.Mean(ss) }

// NewHistory returns an empty contact history for node self in a network
// of n nodes with the given sliding-window size (0 = default). Storage
// grows with the peers actually contacted.
func NewHistory(self, n, window int) *History { return core.NewHistory(self, n, window) }

// NewMeetingMatrix returns an all-unknown MI matrix over nodes 0..n-1.
func NewMeetingMatrix(n int) *MeetingMatrix { return core.NewFullMeetingMatrix(n) }

// NewMEMD returns a Theorem-3 calculator for node ids below n.
func NewMEMD(n int) *MEMD { return core.NewMEMD(n) }
