package xtrace

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/types"
)

// Recorder is the flight recorder: a bounded, concurrency-safe ring of
// the most recent spans. A traced replica keeps one running at all
// times; when a scenario property violates or a live node stalls,
// Snapshot/Dump capture the recent causal history as a structured
// artifact without ever having grown unboundedly, and a live node's
// /statusz?trace=N reads its newest spans with Last.
type Recorder struct {
	mu    sync.Mutex
	buf   []Span
	next  int
	n     int
	total uint64
}

// NewRecorder returns a recorder holding the most recent capacity
// spans (minimum 1).
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{buf: make([]Span, capacity)}
}

// Emit appends a span, overwriting the oldest when full. Safe on a nil
// receiver (drops the span).
func (r *Recorder) Emit(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.total++
	r.mu.Unlock()
}

// Snapshot returns the retained spans oldest-first (nil receiver or
// empty recorder returns nil).
func (r *Recorder) Snapshot() []Span { return r.Last(r.Cap()) }

// Last returns up to n of the most recent spans, oldest first (nil for a
// nil receiver, an empty recorder or n <= 0).
func (r *Recorder) Last(n int) []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n = min(n, r.n)
	if n <= 0 {
		return nil
	}
	out := make([]Span, n)
	start := r.next - n
	if start < 0 {
		start += len(r.buf)
	}
	for i := range out {
		out[i] = r.buf[(start+i)%len(r.buf)]
	}
	return out
}

// Total returns the all-time emitted count (0 for nil), so dump readers
// can tell how much history scrolled out of the window.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Cap returns the ring capacity (0 for nil).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Dump is the flight-recorder artifact one replica writes on a
// violation or stall: the retained span window plus enough metadata to
// interpret it. cmd/minsync-trace merges several into one Chrome
// trace-event file.
type Dump struct {
	// Proc is the replica the spans belong to.
	Proc types.ProcID `json:"proc"`
	// Label names the run (scenario/seed, or live-mode reason).
	Label string `json:"label,omitempty"`
	// Cap and Total describe the ring: Total > Cap means history was
	// shed before the dump.
	Cap   int    `json:"cap"`
	Total uint64 `json:"total"`
	// Dropped counts causal chains shed at the tracer's in-flight
	// bound (those commands have missing stages, not missing spans).
	Dropped uint64 `json:"dropped,omitempty"`
	// Spans is the retained window, oldest first.
	Spans []Span `json:"spans"`
}

// Dump captures the recorder's current window as an artifact for the
// given replica. Nil-safe (returns an empty dump).
func (r *Recorder) Dump(proc types.ProcID, label string) *Dump {
	return &Dump{
		Proc:  proc,
		Label: label,
		Cap:   r.Cap(),
		Total: r.Total(),
		Spans: r.Snapshot(),
	}
}

// Dump captures this tracer's flight-recorder window, including the
// tracer's shed-chain count. Nil-safe.
func (t *Tracer) Dump(label string) *Dump {
	if t == nil {
		return &Dump{Label: label}
	}
	d := t.rec.Dump(t.proc, label)
	d.Dropped = t.Dropped()
	return d
}

// BackChain filters spans to the causal chain of one trace ID, oldest
// first — the "what happened to this command/instance" view a
// violation dump is taken for.
func BackChain(spans []Span, id TraceID) []Span {
	var out []Span
	for _, s := range spans {
		if s.Trace == id {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// WriteDump writes one dump as indented JSON at path, creating parent
// directories as needed.
func WriteDump(path string, d *Dump) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// WriteDumps writes one file per dump under dir as
// <prefix>_p<proc>.trace.json and returns the paths written.
func WriteDumps(dir, prefix string, dumps []*Dump) ([]string, error) {
	var paths []string
	for _, d := range dumps {
		if d == nil {
			continue
		}
		p := filepath.Join(dir, fmt.Sprintf("%s_p%d.trace.json", prefix, d.Proc))
		if err := WriteDump(p, d); err != nil {
			return paths, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// ReadDump parses a dump file written by WriteDump.
func ReadDump(path string) (*Dump, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Dump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}
