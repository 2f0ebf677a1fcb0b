// Package metrics aggregates trace logs and result series into the
// statistics the experiment harness reports: message counts by protocol
// layer, per-abstraction event counts, and simple distribution summaries
// (mean / percentiles) over repeated runs.
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/types"
)

// MessageStats breaks the traffic of a run down by wire kind and by the
// protocol module that owns the stream.
type MessageStats struct {
	Total    uint64
	ByKind   map[string]uint64
	ByModule map[string]uint64
}

// Messages scans a trace log. It counts KindSend events; module
// attribution is unavailable at the transport layer, so it additionally
// counts RB broadcasts and deliveries per module from the RB events.
func Messages(log *trace.Log) MessageStats {
	st := MessageStats{
		ByKind:   make(map[string]uint64),
		ByModule: make(map[string]uint64),
	}
	log.ForEach(func(e trace.Event) {
		switch e.Kind {
		case trace.KindSend:
			st.Total++
		case trace.KindRBBroadcast, trace.KindRBDeliver:
			// Aux carries the stream tag "module/round".
			if i := strings.IndexByte(e.Aux, '/'); i > 0 {
				st.ByModule[e.Aux[:i]]++
			}
		}
	})
	return st
}

// KindOf classifies a message for traffic accounting (used by the
// real-time transports, which see concrete messages rather than events).
func KindOf(m proto.Message) string { return m.Kind.String() }

// Series is a sample collection with summary statistics.
type Series struct {
	name    string
	samples []float64
}

// NewSeries creates an empty, named series.
func NewSeries(name string) *Series { return &Series{name: name} }

// Add appends a sample.
func (s *Series) Add(v float64) { s.samples = append(s.samples, v) }

// AddDuration appends a duration in milliseconds.
func (s *Series) AddDuration(d types.Duration) { s.Add(float64(d) / 1e6) }

// N returns the sample count.
func (s *Series) N() int { return len(s.samples) }

// Mean returns the arithmetic mean (0 for an empty series).
func (s *Series) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.samples {
		sum += v
	}
	return sum / float64(len(s.samples))
}

// Min returns the smallest sample (0 for an empty series).
func (s *Series) Min() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	min := s.samples[0]
	for _, v := range s.samples[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the largest sample (0 for an empty series).
func (s *Series) Max() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	max := s.samples[0]
	for _, v := range s.samples[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using
// nearest-rank on the sorted samples.
func (s *Series) Percentile(p float64) float64 {
	if len(s.samples) == 0 {
		return 0
	}
	sorted := make([]float64, len(s.samples))
	copy(sorted, s.samples)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// String summarizes the series on one line.
func (s *Series) String() string {
	return fmt.Sprintf("%s: n=%d mean=%.2f min=%.2f p50=%.2f p95=%.2f max=%.2f",
		s.name, s.N(), s.Mean(), s.Min(), s.Percentile(50), s.Percentile(95), s.Max())
}

// Table renders experiment rows with aligned columns (the experiment CLI
// and EXPERIMENTS.md tables are produced through it).
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends a row; values are formatted with %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table in markdown-ish aligned form.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		b.WriteString("|")
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, " %-*s |", w, c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
