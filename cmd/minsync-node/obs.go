// Live-node telemetry: -metrics starts an HTTP listener with three
// endpoint families —
//
//	/metrics        Prometheus text exposition of the obs registry
//	/statusz        one JSON document: node identity, applied position,
//	                snapshot boundary, session count, transfer state;
//	                ?trace=N appends the last N protocol trace events
//	                from the node's bounded ring buffer
//	/debug/pprof/   the standard Go profiling handlers
//
// The registry is wired through every layer of the stack (wire transport,
// dispatcher, RB, log engine, applier, KV store, transfer), all of it
// passive atomic counters — serving a scrape never touches the node loop.
// Only /statusz crosses into it, via one Post round trip with a timeout.
package main

import (
	"encoding/json"
	stdlog "log"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/types"
)

// statusTimeout bounds the /statusz status probe: a wedged node loop must
// degrade the endpoint, not wedge the scraper too.
const statusTimeout = 2 * time.Second

// traceRingCap bounds the /statusz?trace=N history window.
const traceRingCap = 4096

// telemetry owns the live node's observability surface. A nil *telemetry
// is valid everywhere (metrics off): every bundle getter returns nil,
// which the instrumented layers treat as "unobserved".
type telemetry struct {
	reg     *obs.Registry
	ring    *trace.Ring
	latency *obs.Histogram
	wire    *obs.WireMetrics
	ln      net.Listener
	self    types.ProcID
	params  types.Params
	started time.Time
	// status is the mode-specific probe, installed once serving starts.
	// It may block up to statusTimeout (one node.Post round trip).
	status atomic.Pointer[func() map[string]any]
}

// newTelemetry builds the registry and starts the HTTP listener, or
// returns nil (metrics off) when addr is empty.
func newTelemetry(addr string, self types.ProcID, params types.Params) *telemetry {
	if addr == "" {
		return nil
	}
	reg := obs.NewRegistry()
	peers := make([]int, 0, params.N-1)
	for _, p := range params.AllProcs() {
		if p != self {
			peers = append(peers, int(p))
		}
	}
	t := &telemetry{
		reg:     reg,
		ring:    trace.NewRing(traceRingCap),
		latency: obs.NewCommitLatency(reg),
		wire: obs.NewWireMetrics(reg, "", int(proto.MsgDecide),
			func(k int) string { return proto.MsgKind(k).String() }, peers),
		self:    self,
		params:  params,
		started: time.Now(),
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		stdlog.Fatalf("metrics listener: %v", err)
	}
	t.ln = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", t.serveMetrics)
	mux.HandleFunc("/statusz", t.serveStatusz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	stdlog.Printf("telemetry on http://%s (/metrics, /statusz, /debug/pprof/)", ln.Addr())
	return t
}

// registry returns the registry (nil when telemetry is off), for the
// per-layer bundle constructors — all of which accept a nil registry.
func (t *telemetry) registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// traceSink returns the bounded ring (nil = keep rt's Discard default).
func (t *telemetry) traceSink() trace.Sink {
	if t == nil {
		return nil
	}
	return t.ring
}

// wireMetrics returns the transport bundle for netx.Config.
func (t *telemetry) wireMetrics() *obs.WireMetrics {
	if t == nil {
		return nil
	}
	return t.wire
}

// observeLatency records one client-visible commit latency (wall clock,
// nanoseconds): request accepted → response resolved.
func (t *telemetry) observeLatency(d time.Duration) {
	if t == nil {
		return
	}
	t.latency.Observe(d.Nanoseconds())
}

// setStatus installs the mode-specific /statusz probe.
func (t *telemetry) setStatus(fn func() map[string]any) {
	if t == nil {
		return
	}
	t.status.Store(&fn)
}

func (t *telemetry) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := t.reg.WritePrometheus(w); err != nil {
		stdlog.Printf("metrics write: %v", err)
	}
}

func (t *telemetry) serveStatusz(w http.ResponseWriter, r *http.Request) {
	doc := map[string]any{
		"id":             t.self,
		"n":              t.params.N,
		"t":              t.params.T,
		"uptime_seconds": time.Since(t.started).Seconds(),
		"trace_total":    t.ring.Total(),
	}
	if fn := t.status.Load(); fn != nil {
		for k, v := range (*fn)() {
			doc[k] = v
		}
	}
	if q := r.URL.Query().Get("trace"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			http.Error(w, "trace must be a non-negative integer", http.StatusBadRequest)
			return
		}
		events := t.ring.Last(n)
		lines := make([]string, len(events))
		var buf []byte
		for i, e := range events {
			buf = e.AppendTo(buf[:0])
			lines[i] = string(buf)
		}
		doc["trace"] = lines
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		stdlog.Printf("statusz write: %v", err)
	}
}

// probeStatus runs fn on the node loop via post and waits for the result
// map, degrading to an error field on timeout. The post parameter is
// node.Post (its bool reports whether the node is still running).
func probeStatus(post func(func()) bool, fn func() map[string]any) map[string]any {
	ch := make(chan map[string]any, 1)
	if !post(func() { ch <- fn() }) {
		return map[string]any{"error": "node stopped"}
	}
	select {
	case m := <-ch:
		return m
	case <-time.After(statusTimeout):
		return map[string]any{"error": "status probe timed out (node loop busy)"}
	}
}

// wireNodeObs attaches the dispatcher's dedup-layer bundle. Must run
// after node.Start — the dispatcher exists only then — so it goes through
// Post and lands on the loop goroutine before any protocol traffic.
func wireNodeObs(node *rt.Node, t *telemetry) {
	if t == nil {
		return
	}
	node.Post(func() {
		node.Dispatcher().SetMetrics(obs.NewDedupMetrics(t.reg, ""))
	})
}
