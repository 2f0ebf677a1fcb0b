package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/netx"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/rt"
	"repro/internal/types"
	"repro/internal/xtrace"
)

// TestStatuszDuringSnapshotInstall pins the telemetry degradation
// contract: /statusz must answer even while the node loop is busy
// installing a snapshot (or otherwise wedged), because the status probe
// crosses onto the loop with a bounded timeout. The edge-side fields —
// identity, uptime, the ?trace=N flight-recorder window — must still be
// served, with the loop-side portion degraded to an error, and concurrent
// span emissions (the loop keeps receiving frames during an install)
// must not race the readers.
func TestStatuszDuringSnapshotInstall(t *testing.T) {
	params := types.Params{N: 4, T: 1, M: 2}
	tel := newTelemetry("127.0.0.1:0", 2, params)

	// The "node loop": one goroutine that is busy installing a snapshot
	// until released, so posted closures queue behind it.
	installDone := make(chan struct{})
	var loop sync.WaitGroup
	queue := make(chan func(), 16)
	loop.Add(1)
	go func() {
		defer loop.Done()
		<-installDone // the install runs first; posts wait
		for fn := range queue {
			fn()
		}
	}()
	defer func() {
		close(installDone)
		close(queue)
		loop.Wait()
	}()
	post := func(fn func()) bool {
		select {
		case queue <- fn:
			return true
		default:
			return false
		}
	}
	tel.setStatus(func() map[string]any {
		return probeStatus(post, func() map[string]any {
			return map[string]any{"mode": "kv"}
		})
	})

	// Protocol traffic keeps flowing into the flight recorder during the
	// install.
	tracer := xtrace.New(xtrace.Config{Proc: 2, Recorder: xtrace.NewRecorder(flightCap)})
	tel.tracer.Store(tracer)
	tracer.RBEvent(xtrace.StageRBEcho, 0, 1)
	stop := make(chan struct{})
	var emitter sync.WaitGroup
	emitter.Add(1)
	go func() {
		defer emitter.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
				tracer.RBEvent(xtrace.StageRBEcho, types.Instance(i), 1)
			}
		}
	}()
	defer func() { close(stop); emitter.Wait() }()

	client := &http.Client{Timeout: statusTimeout + 5*time.Second}
	resp, err := client.Get("http://" + tel.ln.Addr().String() + "/statusz?trace=8")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statusz returned %d mid-install", resp.StatusCode)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc["error"] == nil {
		t.Fatalf("wedged loop must degrade the probe to an error field, got %v", doc)
	}
	if doc["id"] == nil || doc["n"] == nil {
		t.Fatalf("edge-side identity fields missing: %v", doc)
	}
	spans, ok := doc["trace"].([]any)
	if !ok || len(spans) == 0 || len(spans) > 8 {
		t.Fatalf("?trace=8 window missing mid-install: %v", doc["trace"])
	}
	if span, ok := spans[0].(map[string]any); !ok || span["stage"] != string(xtrace.StageRBEcho) {
		t.Fatalf("?trace=8 spans are not encoded as in a dump: %v", spans[0])
	}
	if total, ok := doc["trace_total"].(float64); !ok || total < float64(len(spans)) {
		t.Fatalf("trace_total %v below the window's %d spans", doc["trace_total"], len(spans))
	}
}

// TestStatuszTraceNeedsRecorder: a node without a flight recorder
// (single-shot mode, or -kv without -trace-dir) answers ?trace=N with 400
// and says which flag it lacks; plain /statusz still answers.
func TestStatuszTraceNeedsRecorder(t *testing.T) {
	tel := newTelemetry("127.0.0.1:0", 1, types.Params{N: 4, T: 1})
	defer tel.ln.Close()
	tel.setStatus(func() map[string]any { return map[string]any{"mode": "single-shot"} })
	base := "http://" + tel.ln.Addr().String() + "/statusz"
	resp, err := http.Get(base + "?trace=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "-trace-dir") {
		t.Fatalf("?trace=1 without a recorder: %d %q, want 400 naming -trace-dir", resp.StatusCode, body)
	}
	resp, err = http.Get(base)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/statusz without ?trace: %d", resp.StatusCode)
	}
}

// TestKVCountsWithoutListener: without -metrics a -kv node still builds
// its registry and counts into it — wire frames and commit latency
// included — and opens no listener.
func TestKVCountsWithoutListener(t *testing.T) {
	params := types.Params{N: 4, T: 1}
	tel := newTelemetry("", 1, params)
	if tel.ln != nil {
		t.Fatal("newTelemetry opened a listener without an address")
	}
	// Process 2 is a bare transport that only counts; 3 and 4 are down.
	ports := reservePorts(t, 4)
	addrs := make(map[types.ProcID]string, 4)
	for i, a := range ports {
		addrs[types.ProcID(i+1)] = a
	}
	var got atomic.Int64
	peer, err := netx.Listen(netx.Config{Self: 2, Addrs: addrs, Recv: func(types.ProcID, proto.Message) { got.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	send := &sendAdapter{}
	node, err := newNode(tel, 1, params, send)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	tr, err := netx.Listen(netx.Config{Self: 1, Addrs: addrs, Metrics: tel.wire, Recv: node.Deliver})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	send.Transport = tr
	edge, err := startKV(node, tr, tel, 1, nil, kvOptions{
		Batch: 16, Pipeline: 4, SnapEvery: 16, PoolCap: 1024, Compact: true,
		Unit: 50 * time.Millisecond, Wait: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A proposal forwards the command to every peer before it is batched.
	c := kv.Command{Op: kv.OpPut, Client: 7, Seq: 1, Key: "k", Val: "v"}
	if err := edge.propose(c, c.Encode()); err != nil {
		t.Fatal(err)
	}
	tel.observeLatency(3 * time.Millisecond)
	sentSeries := `minsync_wire_frames_total{dir="sent",kind="` + proto.MsgKVRequest.String() + `"}`
	deadline := time.Now().Add(30 * time.Second)
	for tel.reg.Snapshot().Counters[sentSeries] == 0 || got.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the forward never counted: %s = %d, peer received %d",
				sentSeries, tel.reg.Snapshot().Counters[sentSeries], got.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if n := tel.reg.Snapshot().Histograms[obs.CommitLatencyName].Count; n != 1 {
		t.Fatalf("%s holds %d observations, want 1", obs.CommitLatencyName, n)
	}
}

// TestDedupCountsFramesBeforeStart: frames a restarted replica receives
// before its loop starts wait in the inbox and are dispatched first; the
// duplicates among them count on the node's registry, not in cells
// nobody exports.
func TestDedupCountsFramesBeforeStart(t *testing.T) {
	params := types.Params{N: 4, T: 1}
	tel := newTelemetry("", 1, params)
	mn := rt.NewMemNetwork()
	node, err := newNode(tel, 1, params, mn.Attach(1))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	mn.Register(1, node)
	echo := proto.Message{Kind: proto.MsgRBEcho, Tag: proto.Tag{Mod: proto.ModConsCB0}, Instance: 1, Origin: 3, Val: "v"}
	node.Deliver(2, echo)
	node.Deliver(2, echo)
	if _, err := startKV(node, mn.Attach(1), tel, 1, nil, kvOptions{
		Batch: 16, Pipeline: 4, SnapEvery: 16, PoolCap: 1024, Compact: true,
		Unit: 50 * time.Millisecond, Wait: time.Minute,
	}); err != nil {
		t.Fatal(err)
	}
	// The inbox is FIFO: once a post runs, both frames were dispatched.
	done := make(chan struct{})
	node.Post(func() { close(done) })
	<-done
	if got := tel.reg.Snapshot().Counters["minsync_dedup_dropped_total"]; got != 1 {
		t.Fatalf("minsync_dedup_dropped_total = %d, want 1", got)
	}
}

// TestFarFutureFramesRetainNothing: a peer naming instances far past a
// replica's window — 100 000 EA_PROP2 frames at instances ≥ 2^40 — makes
// the replica count each one as dropped ahead and keep none of them: the
// first-message rule runs only inside the engine's window, so nothing
// outside it allocates dedup state.
func TestFarFutureFramesRetainNothing(t *testing.T) {
	const frames = 100_000
	params := types.Params{N: 4, T: 1}
	tel := newTelemetry("", 1, params)
	mn := rt.NewMemNetwork()
	node, err := newNode(tel, 1, params, mn.Attach(1))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	mn.Register(1, node)
	if _, err := startKV(node, mn.Attach(1), tel, 1, nil, kvOptions{
		Batch: 16, Pipeline: 4, SnapEvery: 16, PoolCap: 1024, Compact: true,
		Unit: 50 * time.Millisecond, Wait: time.Minute,
	}); err != nil {
		t.Fatal(err)
	}
	barrier := func() {
		done := make(chan struct{})
		node.Post(func() { close(done) })
		<-done
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	barrier()
	before := heap()
	m := proto.Message{Kind: proto.MsgEAProp2, Tag: proto.Tag{Mod: proto.ModEA, Round: 1}, Val: "v"}
	for i := 0; i < frames; i++ {
		m.Instance = 1<<40 + types.Instance(i)
		node.Deliver(2, m)
	}
	barrier()
	grown := int64(heap()) - int64(before)
	t.Logf("%d far-future frames retained %d bytes", frames, grown)
	if grown >= 8<<20 {
		t.Fatalf("%d far-future frames retained %d bytes, want < 8 MiB", frames, grown)
	}
	if got := tel.reg.Snapshot().Counters["minsync_log_dropped_ahead_total"]; got != frames {
		t.Fatalf("minsync_log_dropped_ahead_total = %d, want %d", got, frames)
	}
}

// TestBenchmarkReadsExistingTelemetry is the contract between the live
// node and benchmark/, a nested module tier-1 does not build: every
// minsync_* series name its sources spell must appear on a `-kv` node's
// /metrics, and /statusz must still carry applied_entries (the
// benchmark's convergence check). Renaming a counter then fails here
// instead of silently zeroing a per-layer metric. The same goes for what
// operators and the e2e tests read off a node: the relay's drop counters
// (the idle wedge was four of them climbing unseen) and the status
// fields that say whether the ordering layer is at rest.
func TestBenchmarkReadsExistingTelemetry(t *testing.T) {
	files, err := filepath.Glob("../../benchmark/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no benchmark sources found: %v", err)
	}
	named := regexp.MustCompile(`minsync_[a-z_]+`)
	want := make(map[string]string) // series name -> a file that reads it
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range named.FindAllString(string(src), -1) {
			want[name] = filepath.Base(f)
		}
	}
	if len(want) == 0 {
		t.Fatal("benchmark/ names no minsync_* series; the contract is vacuous")
	}

	// The -kv telemetry exactly as main wires it, on an in-memory
	// transport: telemetry listener, event loop, serving replica.
	params := types.Params{N: 4, T: 1}
	tel := newTelemetry("127.0.0.1:0", 1, params)
	defer tel.ln.Close()
	mn := rt.NewMemNetwork()
	node, err := newNode(tel, 1, params, mn.Attach(1))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	mn.Register(1, node)
	_, err = startKV(node, mn.Attach(1), tel, 1, nil, kvOptions{
		Batch: 16, Pipeline: 4, SnapEvery: 16, PoolCap: 1024, Compact: true,
		TraceDir: t.TempDir(), // the traced pass: stage histograms registered
		Unit:     50 * time.Millisecond, Wait: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}

	base := "http://" + tel.ln.Addr().String()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	have := make(map[string]bool)
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		line := strings.TrimPrefix(sc.Text(), "# TYPE ")
		have[named.FindString(line)] = true
	}
	for name, file := range want {
		if !have[name] {
			t.Errorf("benchmark/%s reads %s, which a -kv node no longer exports", file, name)
		}
	}
	for _, name := range []string{
		"minsync_rb_park_drops_total", "minsync_rb_scope_drops_total", "minsync_rb_window_drops_total",
		"minsync_rb_cache_drops_total", "minsync_rb_bad_frames_total",
	} {
		if !have[name] {
			t.Errorf("a -kv node does not export the relay's %s", name)
		}
	}

	resp, err = http.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"applied_entries", "applied_instances", "pending_commands", "in_flight_instances"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("status document lost %s: %v", key, doc)
		}
	}
}

// TestWireSeriesPerKind: every wire kind the vocabulary defines has its
// own frame and byte series on a node's /metrics, so no frame is counted
// under kind="other" or on a counter nothing exports.
func TestWireSeriesPerKind(t *testing.T) {
	tel := newTelemetry("127.0.0.1:0", 1, types.Params{N: 4, T: 1})
	defer tel.ln.Close()
	var b strings.Builder
	if err := tel.reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for k := proto.MsgRBInit; k <= proto.MsgDecide; k++ {
		for _, series := range []string{"minsync_wire_frames_total", "minsync_wire_bytes_total"} {
			if want := `dir="recv",kind="` + k.String() + `"}`; !strings.Contains(b.String(), series+"{"+want) {
				t.Errorf("/metrics has no %s series for %v", series, k)
			}
		}
	}
}
