package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// reservePorts grabs n loopback ports no earlier call in this process
// handed out: the listeners of one call stay open until it has them all
// (the kernel may otherwise give the port just closed straight back), and
// a port seen before is skipped. The close-to-reuse race against OTHER
// processes is acceptable in a test.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	reservedMu.Lock()
	defer reservedMu.Unlock()
	var addrs []string
	for len(addrs) < n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		if addr := ln.Addr().String(); !reserved[addr] {
			reserved[addr] = true
			addrs = append(addrs, addr)
		}
	}
	return addrs
}

var (
	reservedMu sync.Mutex
	reserved   = make(map[string]bool)
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
// it, and verifies every replica serves all three telemetry endpoint
// families: Prometheus /metrics, JSON /statusz (with ?trace=N), and
// /debug/pprof/. Skipped under -short (it builds the binary and needs a
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
	consAddrs := reservePorts(t, n)
	kvAddrs := reservePorts(t, n)
	metricsAddrs := reservePorts(t, n)
	peerList := strings.Join(consAddrs, ",")

	procs := make([]*exec.Cmd, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(bin,
			"-id", fmt.Sprint(i+1),
			"-peers", peerList,
			"-t", "1",
			"-kv",
			"-kv-listen", kvAddrs[i],
			"-metrics", metricsAddrs[i],
			"-snapshot-every", "4",
			"-snapshot-refresh", "16",
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

	// Drive a client session through replica 1: one put, one get. Retry
	// until the cluster is up (the client fails fast before listeners
	// exist and blocks on its own -wait once connected).
	var clientOut []byte
	for {
		cl := exec.Command(bin,
			"-kv-client", kvAddrs[0],
			"-client-id", "7",
			"-ops", "put:user=ada,get:user",
			"-wait", "20s",
		)
		out, err := cl.CombinedOutput()
		if err == nil {
			clientOut = out
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("kv client never succeeded: %v\n%s", err, out)
		}
		time.Sleep(300 * time.Millisecond)
	}
	if !strings.Contains(string(clientOut), "ada") {
		t.Fatalf("client did not read back the put: %s", clientOut)
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
	// boundary, session count — and ?trace=N returns recent events.
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
		if lines, ok := doc["trace"].([]any); !ok || len(lines) == 0 {
			t.Errorf("replica %d /statusz?trace=10 returned no events", i+1)
		}
	}

	// /debug/pprof/: the standard profiling handlers answer.
	if _, err := httpGet(t, "http://"+metricsAddrs[0]+"/debug/pprof/cmdline", deadline); err != nil {
		t.Fatalf("/debug/pprof/cmdline: %v", err)
	}
}
