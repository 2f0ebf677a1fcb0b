package scenario

import (
	"fmt"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/runner"
	"repro/internal/trace"
)

// Experiment reproduces one analytical claim of the paper (a theory
// paper: its "figures" are theorems and bounds) as a sweep: a list of
// cells, each a Spec run under every seed through Prepare/Prepared.Run —
// the path the golden digests and the nightly sweep use — so every cell
// gets the full property report, plus a per-cell expectation and a table
// row computed from the cell's Outcomes. The catalogue is in claims.go.
type Experiment struct {
	// ID names the experiment (E5 … E12, GST); Claim is the paper clause.
	ID    string
	Claim string
	Notes string

	header []string
	cells  []cell
}

// cell is one row of an experiment: a scenario, what the claim predicts
// for it, and how its outcomes render.
type cell struct {
	spec Spec
	// tweak adjusts the materialised runner.Spec where the declarative
	// vocabulary deliberately has no field (a baseline relay rule, a
	// rescaled splitter): Spec, Random's cross-product and the golden
	// rows stay untouched by knobs only one experiment turns.
	tweak func(*runner.Spec)
	// expect is the claim's prediction for one outcome, checked on top of
	// the property report (nil = the report alone).
	expect func(*Outcome) bool
	// cols renders the cell's columns from its per-seed outcomes.
	cols func(outcomes) []any
}

// Result is one experiment's rendered outcome.
type Result struct {
	ID    string
	Claim string
	Table string
	Notes string
	Pass  bool
}

// String renders the result for the CLI.
func (r Result) String() string {
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	s := fmt.Sprintf("== %s [%s]\nclaim: %s\n%s", r.ID, verdict, r.Claim, r.Table)
	if r.Notes != "" {
		s += "notes: " + r.Notes + "\n"
	}
	return s
}

// Run executes every cell under every seed. A cell holds when each of its
// outcomes passes all checked properties and meets the cell's expectation;
// the experiment passes when every cell holds, and the table's last
// column counts the seeds that did. deadline > 0 overrides the cells'
// virtual-time budget — minsync-sim's -deadline, the documented way to
// force a violation.
func (e Experiment) Run(seeds []int64, deadline time.Duration) Result {
	res := Result{ID: e.ID, Claim: e.Claim, Notes: e.Notes, Pass: true}
	tb := newTable(append(e.header, "ok")...)
	for _, c := range e.cells {
		if deadline > 0 {
			c.spec.Deadline = deadline
		}
		p, err := Prepare(c.spec)
		if err != nil {
			return Result{ID: e.ID, Claim: e.Claim, Notes: err.Error()}
		}
		p.tweak = c.tweak
		var outs outcomes
		held := 0
		for _, seed := range seeds {
			o, err := p.Run(seed)
			if err != nil {
				return Result{ID: e.ID, Claim: e.Claim, Notes: err.Error()}
			}
			if o.Pass && (c.expect == nil || c.expect(o)) {
				held++
			}
			outs = append(outs, o)
		}
		if held != len(seeds) {
			res.Pass = false
		}
		tb.row(append(c.cols(outs), frac(held, len(seeds)))...)
	}
	res.Table = tb.String()
	return res
}

// outcomes are one cell's per-seed results.
type outcomes []*Outcome

// count renders how many outcomes satisfy pred as "k/len".
func (os outcomes) count(pred func(*Outcome) bool) string {
	k := 0
	for _, o := range os {
		if pred(o) {
			k++
		}
	}
	return frac(k, len(os))
}

// mean averages f over the outcomes (0 when there are none).
func (os outcomes) mean(f func(*Outcome) float64) float64 {
	var sum float64
	for _, o := range os {
		sum += f(o)
	}
	return sum / float64(max(len(os), 1))
}

// max is the largest f over the outcomes, as a whole number.
func (os outcomes) max(f func(*Outcome) float64) int {
	var m float64
	for _, o := range os {
		m = max(m, f(o))
	}
	return int(m)
}

func frac(a, b int) string { return fmt.Sprintf("%d/%d", a, b) }

func rounds(o *Outcome) float64   { return float64(o.DecideRound) }
func messages(o *Outcome) float64 { return float64(o.Messages) }

// rbStreams counts a trace log's RB broadcasts and deliveries (module
// attribution is unavailable on the transport-level send events).
func rbStreams(log *trace.Log) int {
	n := 0
	log.ForEach(func(e trace.Event) {
		if e.Kind == trace.KindRBBroadcast || e.Kind == trace.KindRBDeliver {
			n++
		}
	})
	return n
}

// table renders experiment rows with aligned columns; its first row is
// the header.
type table [][]string

func newTable(header ...string) *table { return &table{header} }

// row appends a row; floats are formatted with %.2f, everything else
// with %v.
func (t *table) row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		if f, ok := c.(float64); ok {
			row[i] = fmt.Sprintf("%.2f", f)
		} else {
			row[i] = fmt.Sprint(c)
		}
	}
	*t = append(*t, row)
}

// String renders the table in markdown-ish aligned form. Widths count
// runes, not bytes: the headers are full of −, ·, β, ⟨ and ⊥.
func (t table) String() string {
	widths := make([]int, len(t[0]))
	for _, row := range t {
		for i, c := range row {
			widths[i] = max(widths[i], utf8.RuneCountInString(c))
		}
	}
	var b strings.Builder
	for r, row := range t {
		b.WriteString("|")
		for i, c := range row {
			b.WriteString(" " + c + strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)) + " |")
		}
		b.WriteByte('\n')
		if r == 0 {
			b.WriteString("|")
			for _, w := range widths {
				b.WriteString(" " + strings.Repeat("-", w) + " |")
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
