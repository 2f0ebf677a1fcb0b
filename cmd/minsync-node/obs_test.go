package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/types"
)

// TestStatuszDuringSnapshotInstall pins the telemetry degradation
// contract: /statusz must answer even while the node loop is busy
// installing a snapshot (or otherwise wedged), because the status probe
// crosses onto the loop with a bounded timeout. The edge-side fields —
// identity, uptime, the ?trace=N ring window — must still be served,
// with the loop-side portion degraded to an error, and concurrent trace
// emissions (the loop keeps receiving frames during an install) must
// not race the readers.
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

	// Protocol traffic keeps flowing into the ring during the install.
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
				tel.ring.Emit(trace.Event{Kind: trace.KindSend, Round: types.Round(i)})
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
	evs, ok := doc["trace"].([]any)
	if !ok || len(evs) == 0 {
		t.Fatalf("?trace=8 window missing mid-install: %v", doc["trace"])
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
