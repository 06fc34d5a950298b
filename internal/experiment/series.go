package experiment

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// Point is one x-position of a series with its averaged metrics.
type Point struct {
	X       float64
	Summary metrics.Summary
}

// Series is a named curve, e.g. one protocol across node counts.
type Series struct {
	Name   string
	Points []Point
}

// Metric extracts one plotted quantity from a summary.
type Metric struct {
	Name   string
	Format string
	Get    func(metrics.Summary) float64
}

// The three metrics of every figure in the paper.
var (
	MetricDeliveryRatio = Metric{Name: "Delivery Ratio", Format: "%.3f", Get: func(s metrics.Summary) float64 { return s.DeliveryRatio }}
	MetricLatency       = Metric{Name: "Latency (s)", Format: "%.1f", Get: func(s metrics.Summary) float64 { return s.AvgLatency }}
	MetricGoodput       = Metric{Name: "Goodput", Format: "%.4f", Get: func(s metrics.Summary) float64 { return s.Goodput }}
)

// PaperMetrics lists the paper's three metrics in subfigure order (a, b, c).
var PaperMetrics = []Metric{MetricDeliveryRatio, MetricLatency, MetricGoodput}

// RenderTable prints one aligned table per metric: rows are x-values,
// columns are series — the textual equivalent of one sub-figure.
func RenderTable(w io.Writer, title, xLabel string, series []Series, m Metric) {
	fmt.Fprintf(w, "%s — %s\n", title, m.Name)
	xs := collectXs(series)
	header := []string{xLabel}
	for _, s := range series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for _, x := range xs {
		row := []string{trimFloat(x)}
		for _, s := range series {
			v, ok := lookup(s, x)
			if !ok {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf(m.Format, v.Get(m)))
		}
		rows = append(rows, row)
	}
	writeAligned(w, rows)
	fmt.Fprintln(w)
}

// WriteCSV emits "x,series,metric,value" rows for every series, metric and
// point — machine-readable figure data.
func WriteCSV(w io.Writer, xLabel string, series []Series, ms []Metric) {
	fmt.Fprintf(w, "%s,series,metric,value\n", strings.ReplaceAll(xLabel, " ", "_"))
	for _, s := range series {
		for _, p := range s.Points {
			for _, m := range ms {
				fmt.Fprintf(w, "%s,%s,%s,%s\n", trimFloat(p.X), s.Name,
					strings.ReplaceAll(m.Name, " ", "_"), fmt.Sprintf(m.Format, m.Get(p.Summary)))
			}
		}
	}
}

func (p Point) Get(m Metric) float64 { return m.Get(p.Summary) }

func collectXs(series []Series) []float64 {
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

func lookup(s Series, x float64) (Point, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p, true
		}
	}
	return Point{}, false
}

func trimFloat(x float64) string {
	if x == float64(int64(x)) {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%g", x)
}

func writeAligned(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, r := range rows {
		for i, c := range r {
			fmt.Fprintf(w, "%-*s", widths[i]+2, c)
		}
		fmt.Fprintln(w)
	}
}
