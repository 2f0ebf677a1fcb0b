package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestCounterGaugeBasics exercises the nil-safety contract: every method
// must be a no-op on nil instruments so uninstrumented code paths need no
// guards.
func TestCounterGaugeBasics(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	var g *Gauge
	g.Set(7)
	g.Add(-2)
	if g.Value() != 0 {
		t.Fatalf("nil gauge value = %d", g.Value())
	}
	var h *Histogram
	h.Observe(123)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram not inert")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("y") != nil || r.Histogram("z", nil) != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}

	reg := NewRegistry()
	if reg.Counter("a") != reg.Counter("a") {
		t.Fatal("re-registration must return the same counter")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("cross-type reuse must panic")
			}
		}()
		reg.Gauge("a")
	}()
}

// TestHistogramQuantile checks bucket selection and the interpolating
// estimator against a known distribution.
func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]int64{10, 20, 50, 100})
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 5050 {
		t.Fatalf("sum = %d", h.Sum())
	}
	// Rank 50 tops the (20, 50] bucket: lower 20, upper 50, 30
	// observations, 20 below → 20 + 30·(30/30) = 50, the exact median.
	if got := h.Quantile(0.5); got < 49.9 || got > 50.1 {
		t.Fatalf("p50 = %v, want ≈50", got)
	}
	// Everything fits under the top bound, p100 = 100.
	if got := h.Quantile(1.0); got < 99.9 || got > 100.1 {
		t.Fatalf("p100 = %v, want ≈100", got)
	}
	// Overflow clamps to the top finite bound.
	h.Observe(10_000)
	if got := h.Quantile(1.0); got != 100 {
		t.Fatalf("overflow quantile = %v, want clamp to 100", got)
	}
	// Monotone bounds enforced.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("non-ascending bounds must panic")
			}
		}()
		newHistogram([]int64{5, 5})
	}()
}

// TestRegistryConcurrency hammers registration, increments and snapshots
// from parallel goroutines; run under -race this is the data-race gate
// for the lock-free hot path.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("minsync_test_total")
			g := reg.Gauge("minsync_test_depth")
			h := reg.Histogram("minsync_test_ns", []int64{10, 100, 1000})
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(int64(i % 1500))
			}
		}()
	}
	// Snapshot and render while writers are live: readers must never
	// block or race the hot path.
	var rg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for i := 0; i < 50; i++ {
				_ = reg.Snapshot()
				var sb strings.Builder
				_ = reg.WritePrometheus(&sb)
			}
		}()
	}
	wg.Wait()
	rg.Wait()
	if got := reg.Counter("minsync_test_total").Value(); got != writers*perWriter {
		t.Fatalf("counter = %d, want %d", got, writers*perWriter)
	}
	if got := reg.Histogram("minsync_test_ns", nil).Count(); got != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", got, writers*perWriter)
	}
}

// TestHotPathAllocs pins the zero-allocation property of the increment
// path — the whole point of threading pre-registered cells through the
// kernel-grade hot paths.
func TestHotPathAllocs(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("minsync_alloc_total")
	g := reg.Gauge("minsync_alloc_depth")
	h := NewCommitLatency(reg)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(42)
		h.Observe(1_500_000)
	}); n != 0 {
		t.Fatalf("hot path allocates %v per run, want 0", n)
	}
	// A bundle built on no registry counts into private cells, at the same
	// cost.
	rb := NewRBMetrics(nil, "")
	if n := testing.AllocsPerRun(1000, func() {
		rb.Pulls.Inc()
		rb.FrameEntries.Observe(7)
		rb.Hold.Observe(1_500_000)
	}); n != 0 {
		t.Fatalf("private-cell hot path allocates %v per run, want 0", n)
	}
	if rb.Pulls.Value() == 0 || rb.FrameEntries.Count() == 0 {
		t.Fatal("a bundle without a registry does not count")
	}
}

// TestBundleExportsOnlyWithRegistry: the same bundle counts with or
// without a registry; only a registry puts its series on the exposition.
func TestBundleExportsOnlyWithRegistry(t *testing.T) {
	private := NewLogMetrics(nil, "")
	private.NoOps.Inc()
	if private.NoOps.Value() != 1 {
		t.Fatalf("private NoOps = %d, want 1", private.NoOps.Value())
	}
	reg := NewRegistry()
	m := NewLogMetrics(reg, `proc="2"`)
	m.NoOps.Inc()
	if got := reg.Snapshot().Counters[`minsync_log_noop_instances_total{proc="2"}`]; got != 1 {
		t.Fatalf("registered NoOps series = %d, want 1", got)
	}
	if NewLogMetrics(reg, `proc="2"`).NoOps != m.NoOps {
		t.Fatal("re-building a bundle on the same registry and labels must re-acquire its cells")
	}
}

// TestWritePrometheusGolden pins the text exposition format byte for
// byte: family grouping, TYPE lines, histogram bucket expansion,
// deterministic ordering.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(WithLabels("minsync_log_committed_total", `proc="1"`)).Add(12)
	reg.Counter(WithLabels("minsync_log_committed_total", `proc="2"`)).Add(9)
	reg.Gauge("minsync_log_applied_instances").Set(3)
	h := reg.Histogram("minsync_commit_latency_ns", []int64{1000, 10000})
	h.Observe(500)
	h.Observe(5000)
	h.Observe(99999)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE minsync_commit_latency_ns histogram
minsync_commit_latency_ns_bucket{le="1000"} 1
minsync_commit_latency_ns_bucket{le="10000"} 2
minsync_commit_latency_ns_bucket{le="+Inf"} 3
minsync_commit_latency_ns_sum 105499
minsync_commit_latency_ns_count 3
# TYPE minsync_log_applied_instances gauge
minsync_log_applied_instances 3
# TYPE minsync_log_committed_total counter
minsync_log_committed_total{proc="1"} 12
minsync_log_committed_total{proc="2"} 9
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestNameHelpers covers the label assembly helpers used by every
// bundle constructor.
func TestNameHelpers(t *testing.T) {
	if got := JoinLabels("", `a="1"`, "", `b="2"`); got != `a="1",b="2"` {
		t.Fatalf("JoinLabels = %q", got)
	}
	if got := WithLabels("x", ""); got != "x" {
		t.Fatalf("WithLabels empty = %q", got)
	}
	if got := WithLabels("x", `a="1"`); got != `x{a="1"}` {
		t.Fatalf("WithLabels = %q", got)
	}
}

// TestWireMetrics checks kind clamping and per-peer routing.
func TestWireMetrics(t *testing.T) {
	reg := NewRegistry()
	kindName := func(k int) string { return map[int]string{1: "rb-init", 2: "rb-echo"}[k] }
	m := NewWireMetrics(reg, `proc="1"`, 2, kindName, []int{2, 3})
	m.Sent(1, 2, 100)
	m.Sent(2, 3, 50)
	m.Sent(99, 2, 7) // out of range → "other"
	m.Sent(5, 3, 4)  // past the registered kinds, inside the arrays → "other"
	m.Recv(2, 3, 25)
	m.Recv(2, 99, 25) // unknown peer: kind series still counts
	m.Recv(maxWireKind-1, 2, 9)
	if got := m.FramesSent[1].Value(); got != 1 {
		t.Fatalf("frames sent kind 1 = %d", got)
	}
	if got := m.BytesSent[0].Value(); got != 11 {
		t.Fatalf("other bytes sent = %d, want 11", got)
	}
	if got := m.FramesRecv[0].Value(); got != 1 {
		t.Fatalf("other frames recv = %d, want 1", got)
	}
	if got := m.PeerSent[2].Value(); got != 2 {
		t.Fatalf("peer 2 sent = %d", got)
	}
	if got := m.FramesRecv[2].Value(); got != 2 {
		t.Fatalf("frames recv kind 2 = %d", got)
	}
	m.QueueBytes[3].Set(40)
	m.DroppedStalled.Add(2)
	var b strings.Builder
	reg.WritePrometheus(&b)
	for _, want := range []string{
		`minsync_wire_queue_bytes{proc="1",peer="3"} 40`,
		`minsync_wire_dropped_frames_total{proc="1",reason="down"} 0`,
		`minsync_wire_dropped_frames_total{proc="1",reason="stalled"} 2`,
		`minsync_wire_frames_total{proc="1",dir="sent",kind="other"} 2`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, b.String())
		}
	}
	private := NewWireMetrics(nil, "", 2, kindName, []int{2})
	private.Sent(1, 2, 3)
	private.Recv(1, 2, 3)
	if private.PeerSent[2].Value() != 1 || private.FramesRecv[1].Value() != 1 {
		t.Fatal("a wire bundle without a registry does not count")
	}
}

// TestEveryConstructorCountsWithoutRegistry: the stage and commit-latency
// instruments count into private cells on a nil registry, like every
// bundle.
func TestEveryConstructorCountsWithoutRegistry(t *testing.T) {
	st := NewStageMetrics(nil, "")
	st.Apply.Observe(5)
	if st.Apply.Count() != 1 {
		t.Fatalf("private apply stage = %d observations, want 1", st.Apply.Count())
	}
	h := NewCommitLatency(nil)
	h.Observe(7)
	if h.Count() != 1 {
		t.Fatalf("private commit latency = %d observations, want 1", h.Count())
	}
}
