package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/netx/netxtest"
)

// httpGet fetches a URL with retries until the deadline, returning the
// body of the first 200 response.
func httpGet(t *testing.T, url string, deadline time.Time) (string, error) {
	t.Helper()
	var lastErr error
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				return string(body), nil
			}
			lastErr = fmt.Errorf("GET %s: status %d (%v)", url, resp.StatusCode, rerr)
		} else {
			lastErr = err
		}
		time.Sleep(200 * time.Millisecond)
	}
	return "", lastErr
}

// TestE2EClusterTelemetry boots a real 4-replica KV cluster over TCP
// (four OS processes of this very binary), runs a client session against
// its HTTP edge, and verifies every replica serves all three telemetry endpoint
// families: Prometheus /metrics, JSON /statusz (with ?trace=N, the
// flight recorder's newest spans under -trace-dir), and /debug/pprof/. Skipped under -short (it builds the binary and needs a
// few seconds of real time).
func TestE2EClusterTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e cluster test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "minsync-node")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	const n = 4
	consAddrs := netxtest.Addrs(t, n)
	httpAddrs := netxtest.Addrs(t, n)
	metricsAddrs := netxtest.Addrs(t, n)
	peerList := strings.Join(consAddrs, ",")

	procs := make([]*exec.Cmd, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(bin,
			"-id", fmt.Sprint(i+1),
			"-peers", peerList,
			"-t", "1",
			"-http", httpAddrs[i],
			"-metrics", metricsAddrs[i],
			"-trace-dir", filepath.Join(dir, "traces"),
			"-snapshot-every", "4",
			"-unit", "50ms",
			"-start-in", "1s",
			"-wait", "60s",
		)
		cmd.Stdout = io.Discard
		cmd.Stderr = io.Discard
		if err := cmd.Start(); err != nil {
			t.Fatalf("start replica %d: %v", i+1, err)
		}
		procs[i] = cmd
	}
	defer func() {
		for _, p := range procs {
			if p.Process != nil {
				p.Process.Kill()
				p.Wait()
			}
		}
	}()

	deadline := time.Now().Add(30 * time.Second)

	// The endpoints come up immediately (before consensus even starts).
	for i, addr := range metricsAddrs {
		if _, err := httpGet(t, "http://"+addr+"/statusz", deadline); err != nil {
			t.Fatalf("replica %d /statusz: %v", i+1, err)
		}
	}

	// Drive a client session through replica 1: one put, one ordered get.
	// The put is retried until the cluster is up and commits it.
	url := "http://" + httpAddrs[0]
	put := map[string]any{"client": 7, "seq": 1, "op": "put", "key": "user", "value": "ada", "timeout_ms": 5000}
	for {
		code, doc := postTx(t, url, put)
		if code == http.StatusOK && doc["status"] == "ok" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("put never committed: status %d, body %v", code, doc)
		}
		time.Sleep(300 * time.Millisecond)
	}
	get := map[string]any{"client": 7, "seq": 2, "op": "get", "key": "user", "timeout_ms": 5000}
	if code, doc := postTx(t, url, get); code != http.StatusOK || doc["value"] != "ada" {
		t.Fatalf("client did not read back the put: status %d, body %v", code, doc)
	}

	// /metrics: Prometheus exposition with live series on every replica.
	for i, addr := range metricsAddrs {
		body, err := httpGet(t, "http://"+addr+"/metrics", deadline)
		if err != nil {
			t.Fatalf("replica %d /metrics: %v", i+1, err)
		}
		for _, want := range []string{
			"# TYPE minsync_rt_posted_total counter",
			"minsync_wire_frames_total",
			`minsync_wire_dropped_frames_total{reason="down"}`,
			`minsync_wire_dropped_frames_total{reason="stalled"}`,
			"# TYPE minsync_wire_queue_bytes gauge",
			`minsync_wire_queue_bytes{peer="`,
			"minsync_rb_delivers_total",
			`minsync_rb_flushes_total{cause="idle"}`,
			`minsync_rb_flushes_total{cause="timer"}`,
			`minsync_rb_flushes_total{cause="full"}`,
			"# TYPE minsync_rb_hold_ns histogram",
			"# TYPE minsync_rb_hashes_total counter",
			"minsync_log_committed_total",
			"minsync_kv_applies_total",
			"# TYPE minsync_commit_latency_ns histogram",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("replica %d /metrics missing %q", i+1, want)
			}
		}
	}
	// The serving replica observed the client's wall-clock commit latency.
	body, err := httpGet(t, "http://"+metricsAddrs[0]+"/metrics", deadline)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(body, "minsync_commit_latency_ns_count 0\n") {
		t.Error("replica 1 served a client but recorded no commit latency")
	}

	// /statusz: JSON document with identity, applied position, snapshot
	// boundary, session count — and ?trace=N returns the flight
	// recorder's newest spans.
	for i, addr := range metricsAddrs {
		body, err := httpGet(t, "http://"+addr+"/statusz?trace=10", deadline)
		if err != nil {
			t.Fatalf("replica %d /statusz: %v", i+1, err)
		}
		var doc map[string]any
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("replica %d /statusz not JSON: %v\n%s", i+1, err, body)
		}
		if doc["id"] != float64(i+1) || doc["mode"] != "kv" {
			t.Errorf("replica %d /statusz identity wrong: %v", i+1, doc)
		}
		for _, key := range []string{"applied_entries", "sessions", "trace_total", "batch", "pipeline"} {
			if _, ok := doc[key]; !ok {
				t.Errorf("replica %d /statusz missing %q: %v", i+1, key, doc)
			}
		}
		if applied, ok := doc["applied_entries"].(float64); !ok || applied < 2 {
			t.Errorf("replica %d applied %v entries, want >= 2", i+1, doc["applied_entries"])
		}
		spans, ok := doc["trace"].([]any)
		if !ok || len(spans) == 0 || len(spans) > 10 {
			t.Errorf("replica %d /statusz?trace=10 returned %v, want 1..10 spans", i+1, doc["trace"])
			continue
		}
		for _, sp := range spans {
			if span, ok := sp.(map[string]any); !ok || span["stage"] == nil || span["proc"] != float64(i+1) {
				t.Errorf("replica %d /statusz?trace=10 holds %v, not one of its spans", i+1, sp)
			}
		}
		if total, ok := doc["trace_total"].(float64); !ok || total < float64(len(spans)) {
			t.Errorf("replica %d trace_total %v below its %d-span window", i+1, doc["trace_total"], len(spans))
		}
	}

	// /debug/pprof/: the standard profiling handlers answer.
	if _, err := httpGet(t, "http://"+metricsAddrs[0]+"/debug/pprof/cmdline", deadline); err != nil {
		t.Fatalf("/debug/pprof/cmdline: %v", err)
	}
}
