// Package obs is the live telemetry layer: a registry of named counters,
// gauges and fixed-bucket histograms that every working layer of the
// stack (log engine, state machine, KV store, snapshot transfer, message
// dedup, reliable broadcast, event loop, wire transport, command stages,
// commit latency) increments as it runs, whether or not anything exports
// the counts.
//
// Design constraints, in order:
//
//  1. The hot path is lock-free and allocation-free. Registration takes a
//     mutex once; after that every Add/Set/Observe is a plain atomic on a
//     pre-registered cell. TestHotPathAllocs pins the zero-allocation
//     property with testing.AllocsPerRun.
//  2. Layers always count; a registry only exports. A layer's bundle is
//     its only tally (its accessors read the cells), so an unobserved run
//     counts exactly like an observed one: built on a nil registry, a
//     bundle holds private cells nobody exports. Instruments never
//     schedule events or branch protocol behavior — the golden scenario
//     digests stay byte-identical with a registry attached (see
//     internal/scenario's determinism test).
//  3. Snapshots are consistent enough for monitoring: readers see each
//     cell atomically, not the registry at one instant. That is the
//     standard Prometheus client contract.
//
// Metric names follow Prometheus conventions (`minsync_<layer>_<what>_total`
// for counters); labels ride inside the name string (build them with
// WithLabels and JoinLabels), and the text-exposition writer groups
// series into families by splitting at the label brace. The full catalogue lives in
// docs/observability.md.
package obs

import (
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is usable;
// all methods are safe on a nil receiver (no-ops), so instrumented code
// can hold optional counters without guarding every increment.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (callers must pass non-negative deltas; counters only go up).
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 level (pipeline depth, live instances,
// session count). Safe on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current level.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the level by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current level (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram of int64 observations (commit
// latencies in nanoseconds, payload sizes in bytes). Buckets are
// cumulative-upper-bound style à la Prometheus: counts[i] counts
// observations v <= bounds[i] and counts[len(bounds)] is the +Inf
// overflow bucket. Observe is lock-free and allocation-free; bounds are
// immutable after construction. Safe on a nil receiver.
type Histogram struct {
	bounds []int64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Int64
}

// newHistogram builds a histogram over strictly ascending bounds. It
// copies the slice so callers cannot mutate the layout afterwards.
func newHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets()
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value. Bucket selection is a hand-rolled binary
// search (sort.Search takes a closure, and the hot path must not allocate
// even when the compiler is having a bad day).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 for nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// inside the bucket holding the target rank, the same estimator
// Prometheus's histogram_quantile uses. Observations in the +Inf bucket
// clamp to the largest finite bound. Returns 0 when empty or nil.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if cum+n >= rank {
			if i == len(h.bounds) { // +Inf bucket: clamp
				return float64(h.bounds[len(h.bounds)-1])
			}
			var lower float64
			if i > 0 {
				lower = float64(h.bounds[i-1])
			}
			upper := float64(h.bounds[i])
			if n == 0 {
				return upper
			}
			return lower + (upper-lower)*((rank-cum)/n)
		}
		cum += n
	}
	return float64(h.bounds[len(h.bounds)-1])
}

// Bounds returns the bucket upper bounds (shared; callers must not
// mutate). Nil receiver returns nil.
func (h *Histogram) Bounds() []int64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// BucketCounts returns a fresh copy of the per-bucket counts, the last
// entry being the +Inf bucket. Nil receiver returns nil.
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// DefaultLatencyBuckets returns a 1-2-5 ladder of nanosecond bounds from
// 10µs to 100s — wide enough for both virtual-time simulation latencies
// (milliseconds) and live TCP round trips.
func DefaultLatencyBuckets() []int64 {
	var out []int64
	for base := int64(10_000); base <= 10_000_000_000; base *= 10 {
		out = append(out, base, 2*base, 5*base)
	}
	return append(out, 100_000_000_000) // 100s
}

// Registry holds named instruments. Registration (Counter, Gauge,
// Histogram) is mutex-guarded and idempotent — asking for an existing
// name returns the existing cell, so independent layers can share a
// series. Asking for a name already registered as a different instrument
// type panics: that is a programming error, not a runtime condition.
//
// A nil *Registry returns nil (no-op) instruments from these methods; the
// bundle constructors never ask it, and build private cells instead (see
// bundles.go), so a nil registry only means "not exported".
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter registers (or finds) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFree(name, kindCounter)
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge registers (or finds) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFree(name, kindGauge)
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram registers (or finds) the named histogram. bounds apply only
// on first registration (nil = DefaultLatencyBuckets); later callers get
// the existing cell regardless of the bounds they pass.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	r.checkFree(name, kindHistogram)
	h := newHistogram(bounds)
	r.histograms[name] = h
	return h
}

// instrumentKind tags the three registry maps for cross-type collision
// checks.
type instrumentKind int

const (
	kindCounter instrumentKind = iota
	kindGauge
	kindHistogram
)

// checkFree panics if name is held by an instrument of another type.
// Callers hold r.mu; want is the map the caller already probed.
func (r *Registry) checkFree(name string, want instrumentKind) {
	if _, ok := r.counters[name]; ok && want != kindCounter {
		panic("obs: " + name + " already registered as a counter")
	}
	if _, ok := r.gauges[name]; ok && want != kindGauge {
		panic("obs: " + name + " already registered as a gauge")
	}
	if _, ok := r.histograms[name]; ok && want != kindHistogram {
		panic("obs: " + name + " already registered as a histogram")
	}
}

// Snapshot is a point-in-time copy of every registered series, suitable
// for JSON status endpoints and matrix dumps. Cells are read atomically
// but not simultaneously (the monitoring contract).
type Snapshot struct {
	// Counters maps full series name (labels included) to count.
	Counters map[string]uint64 `json:"counters,omitempty"`
	// Gauges maps full series name to current level.
	Gauges map[string]int64 `json:"gauges,omitempty"`
	// Histograms maps full series name to its distribution.
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot is the frozen distribution of one histogram.
type HistogramSnapshot struct {
	// Count and Sum aggregate all observations.
	Count uint64 `json:"count"`
	Sum   int64  `json:"sum"`
	// Bounds are the bucket upper bounds; Counts has one extra trailing
	// entry for the +Inf bucket.
	Bounds []int64  `json:"bounds"`
	Counts []uint64 `json:"counts"`
}

// Snapshot copies every series. Nil receiver returns an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = HistogramSnapshot{
			Count:  h.Count(),
			Sum:    h.Sum(),
			Bounds: h.Bounds(),
			Counts: h.BucketCounts(),
		}
	}
	return s
}

// JoinLabels merges label bodies (the part between braces) into one,
// skipping empties: JoinLabels(`proc="1"`, `kind="echo"`) ==
// `proc="1",kind="echo"`.
func JoinLabels(parts ...string) string {
	var b strings.Builder
	for _, p := range parts {
		if p == "" {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p)
	}
	return b.String()
}

// WithLabels attaches a pre-joined label body to a base name
// (WithLabels("x_total", `proc="1"`) == `x_total{proc="1"}`); an empty
// body returns the base unchanged.
func WithLabels(base, labels string) string {
	if labels == "" {
		return base
	}
	return base + "{" + labels + "}"
}
