// Live-node telemetry. Every node builds the obs registry, and every
// layer of the stack (wire transport, event loop, first-message rule,
// RB, log engine, applier, KV store, transfer, admission pool, commit latency)
// counts into it whether or not anything reads it. -metrics only opens
// an HTTP listener on it, with three endpoint families —
//
//	/metrics        Prometheus text exposition of the obs registry
//	/statusz        one JSON document: node identity, applied position,
//	                snapshot boundary, session count, transfer state;
//	                ?trace=N appends the last N spans of the node's flight
//	                recorder (with -trace-dir only)
//	/debug/pprof/   the standard Go profiling handlers
//
// The counts are passive atomics — serving a scrape never touches the
// node loop. Only /statusz crosses into it, via one Post round trip with
// a timeout.
package main

import (
	"encoding/json"
	stdlog "log"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/netx"
	"repro/internal/obs"
	"repro/internal/types"
	"repro/internal/xtrace"
)

// statusTimeout bounds the /statusz status probe: a wedged node loop must
// degrade the endpoint, not wedge the scraper too.
const statusTimeout = 2 * time.Second

// flightCap bounds the flight recorder: the spans a stall or lag dump
// holds, and the window /statusz?trace=N reads.
const flightCap = 4096

// telemetry owns the live node's observability surface: the registry
// every layer counts into, the instruments the node itself feeds, and
// the optional HTTP listener that exports them.
type telemetry struct {
	reg     *obs.Registry
	latency *obs.Histogram
	wire    *obs.WireMetrics
	ln      net.Listener // nil without -metrics
	self    types.ProcID
	params  types.Params
	started time.Time
	// status is the replica's status probe, installed once serving starts.
	// It may block up to statusTimeout (one node.Post round trip).
	status atomic.Pointer[func() map[string]any]
	// tracer is the replica's causal tracer, handed over by startKV; its
	// flight recorder answers /statusz?trace=N. Nil without -trace-dir.
	tracer atomic.Pointer[xtrace.Tracer]
}

// newTelemetry builds the registry and the node's own instruments, and
// starts the HTTP listener unless addr is empty.
func newTelemetry(addr string, self types.ProcID, params types.Params) *telemetry {
	reg := obs.NewRegistry()
	t := &telemetry{
		reg:     reg,
		latency: obs.NewCommitLatency(reg),
		wire:    netx.NewMetrics(reg, slices.DeleteFunc(params.AllProcs(), func(p types.ProcID) bool { return p == self })),
		self:    self,
		params:  params,
		started: time.Now(),
	}
	if addr == "" {
		return t
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

// observeLatency records one client-visible commit latency (wall clock,
// nanoseconds): request accepted → response resolved.
func (t *telemetry) observeLatency(d time.Duration) { t.latency.Observe(d.Nanoseconds()) }

// setStatus installs the /statusz status probe.
func (t *telemetry) setStatus(fn func() map[string]any) { t.status.Store(&fn) }

func (t *telemetry) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := t.reg.WritePrometheus(w); err != nil {
		stdlog.Printf("metrics write: %v", err)
	}
}

func (t *telemetry) serveStatusz(w http.ResponseWriter, r *http.Request) {
	rec := t.tracer.Load().Recorder()
	window := -1
	if q := r.URL.Query().Get("trace"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			http.Error(w, "trace must be a non-negative integer", http.StatusBadRequest)
			return
		}
		if rec == nil {
			http.Error(w, "no flight recorder: ?trace=N needs a node run with -trace-dir", http.StatusBadRequest)
			return
		}
		window = n
	}
	doc := map[string]any{
		"id":             t.self,
		"n":              t.params.N,
		"t":              t.params.T,
		"uptime_seconds": time.Since(t.started).Seconds(),
		"trace_total":    rec.Total(),
	}
	if fn := t.status.Load(); fn != nil {
		for k, v := range (*fn)() {
			doc[k] = v
		}
	}
	if window >= 0 {
		doc["trace"] = rec.Last(window)
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
