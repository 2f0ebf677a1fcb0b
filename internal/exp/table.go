package exp

import (
	"fmt"
	"strings"

	"repro/internal/trace"
)

// rbEventsByModule counts a trace log's RB broadcasts and deliveries per
// owning protocol module (module attribution is unavailable on the
// transport-level send events).
func rbEventsByModule(log *trace.Log) map[string]uint64 {
	byModule := make(map[string]uint64)
	log.ForEach(func(e trace.Event) {
		switch e.Kind {
		case trace.KindRBBroadcast, trace.KindRBDeliver:
			// Aux carries the stream tag "module/round".
			if i := strings.IndexByte(e.Aux, '/'); i > 0 {
				byModule[e.Aux[:i]]++
			}
		}
	})
	return byModule
}

// series collects samples over repeated runs.
type series []float64

func (s *series) add(v float64) { *s = append(*s, v) }

// mean returns the arithmetic mean (0 for an empty series).
func (s series) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// table renders experiment rows with aligned columns.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table { return &table{header: header} }

// row appends a row; floats are formatted with %.2f, everything else
// with %v.
func (t *table) row(cells ...any) {
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
func (t *table) String() string {
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
