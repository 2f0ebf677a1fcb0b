package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netx/netxtest"
)

// buildBinary compiles a package of this module into dir and returns the
// binary path.
func buildBinary(t *testing.T, dir, name, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	build := exec.Command("go", "build", "-o", bin, pkg)
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// postTx POSTs one transaction to a replica's HTTP edge and returns the
// status code and decoded body (nil body when it is not JSON).
func postTx(t *testing.T, url string, req map[string]any) (int, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/tx", "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var doc map[string]any
	if json.Unmarshal(body, &doc) != nil {
		doc = nil
	}
	return resp.StatusCode, doc
}

// TestE2EHTTPPool boots a real 4-replica cluster with the HTTP edge on,
// drives it through the admission pool as an HTTP client — including
// duplicate (client, seq) retries against DIFFERENT replicas, which must
// all be answered exactly-once from pool or session cache — and then
// through 8 concurrent sessions that check every read against the
// session's own last write. Skipped under -short.
func TestE2EHTTPPool(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e cluster test skipped in -short mode")
	}
	dir := t.TempDir()
	node := buildBinary(t, dir, "minsync-node", ".")

	const n = 4
	consAddrs := netxtest.Addrs(t, n)
	httpAddrs := netxtest.Addrs(t, n)
	peerList := strings.Join(consAddrs, ",")

	procs := make([]*exec.Cmd, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(node,
			"-id", fmt.Sprint(i+1),
			"-peers", peerList,
			"-t", "1",
			"-http", httpAddrs[i],
			"-snapshot-every", "8",
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
	urls := make([]string, n)
	for i, addr := range httpAddrs {
		urls[i] = "http://" + addr
		if _, err := httpGet(t, urls[i]+"/v1/status", deadline); err != nil {
			t.Fatalf("replica %d /v1/status: %v", i+1, err)
		}
	}

	// One put through replica 1, retried until the cluster commits it
	// (the pipeline needs a moment after boot).
	put := map[string]any{
		"client": 42, "seq": 1, "op": "put", "key": "user", "value": "ada",
		"timeout_ms": 5000,
	}
	var code int
	var doc map[string]any
	for {
		code, doc = postTx(t, urls[0], put)
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("put never committed: status %d, body %v", code, doc)
		}
		time.Sleep(300 * time.Millisecond)
	}
	if doc["status"] != "ok" {
		t.Fatalf("put answered %v, want ok", doc)
	}

	// Duplicate retries of the SAME (client, seq) against the three OTHER
	// replicas: committed-response forwarding resolves every replica's
	// pool on apply, so each must answer ok without re-executing.
	for i := 1; i < n; i++ {
		code, doc = postTx(t, urls[i], put)
		if code != http.StatusOK || doc["status"] != "ok" {
			t.Fatalf("replica %d duplicate retry: status %d, body %v", i+1, code, doc)
		}
	}

	// A linearizable read (ordered get) sees the put; seq advances.
	get := map[string]any{
		"client": 42, "seq": 2, "op": "get", "key": "user", "timeout_ms": 5000,
	}
	code, doc = postTx(t, urls[2], get)
	if code != http.StatusOK || doc["status"] != "ok" || doc["value"] != "ada" {
		t.Fatalf("ordered get: status %d, body %v", code, doc)
	}

	// Exactly-once proof: replaying the old seq AFTER the session moved on
	// is answered "stale" from the session table — it was not re-applied.
	// Until replica 4 applies the seq-2 command its session cache still
	// holds seq 1 and legitimately answers "ok" from cache (also without
	// re-applying), so poll until the watermark advances there.
	staleBy := time.Now().Add(15 * time.Second)
	for {
		code, doc = postTx(t, urls[3], put)
		if code == http.StatusOK && doc["status"] == "stale" {
			break
		}
		if time.Now().After(staleBy) {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	if code != http.StatusOK || doc["status"] != "stale" {
		t.Fatalf("regressed seq replay: status %d, body %v, want 200/stale", code, doc)
	}

	// The locally-applied read path converges on every replica.
	for i, u := range urls {
		var body string
		var err error
		for {
			body, err = httpGet(t, u+"/v1/kv/user", deadline)
			if err == nil && strings.Contains(body, "ada") {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %d GET /v1/kv/user: %v (%s)", i+1, err, body)
			}
			time.Sleep(200 * time.Millisecond)
		}
	}

	// /v1/status reports the pool: replica 1 admitted the put, replica 4
	// served a dedup/cached answer; every replica exposes the fields.
	for i, u := range urls {
		body, err := httpGet(t, u+"/v1/status", deadline)
		if err != nil {
			t.Fatalf("replica %d /v1/status: %v", i+1, err)
		}
		var st map[string]any
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("replica %d /v1/status not JSON: %v\n%s", i+1, err, body)
		}
		for _, key := range []string{"pool_pending", "pool_capacity", "pool_admitted", "pool_shed"} {
			if _, ok := st[key]; !ok {
				t.Errorf("replica %d /v1/status missing %q: %v", i+1, key, st)
			}
		}
	}

	// Concurrent load: 8 sessions × 6 commands, alternating put/get on the
	// session's own key so every read has one correct answer. Every
	// command must be answered ok; a retry of (client, seq) goes to a
	// DIFFERENT replica, which must answer it exactly-once from its pool
	// or session cache.
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			key, last := fmt.Sprintf("load/c%d", c), ""
			for i := 0; i < 6; i++ {
				req := map[string]any{
					"client": 100 + c, "seq": i + 1, "op": "get", "key": key, "timeout_ms": 10000,
				}
				if i%2 == 0 {
					last = fmt.Sprintf("v%d-%d", c, i)
					req["op"], req["value"] = "put", last
				}
				var code int
				var doc map[string]any
				giveUp := time.Now().Add(30 * time.Second)
				for attempt := 0; ; attempt++ {
					code, doc = postTx(t, urls[(c+attempt)%n], req)
					if code == http.StatusOK || time.Now().After(giveUp) {
						break
					}
					time.Sleep(100 * time.Millisecond)
				}
				if code != http.StatusOK || doc["status"] != "ok" {
					t.Errorf("session %d seq %d: status %d, body %v", c, i+1, code, doc)
					return
				}
				if i%2 == 1 && doc["value"] != last {
					t.Errorf("session %d seq %d: read %v, want the session's last put %q", c, i+1, doc["value"], last)
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestE2EHTTPShed boots only ONE replica of a 4-peer configuration — no
// quorum, so nothing ever commits — with a tiny admission pool, and
// verifies the backpressure contract: pending commands time out with 504
// but keep their pool slot, the pool fills, and the overflow admission is
// shed with 429 POOL_FULL plus Retry-After. Skipped under -short.
func TestE2EHTTPShed(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e cluster test skipped in -short mode")
	}
	dir := t.TempDir()
	node := buildBinary(t, dir, "minsync-node", ".")

	consAddrs := netxtest.Addrs(t, 4)
	httpAddr := netxtest.Addrs(t, 1)[0]

	cmd := exec.Command(node,
		"-id", "1",
		"-peers", strings.Join(consAddrs, ","),
		"-t", "1",
		"-http", httpAddr,
		"-pool", "2",
		"-unit", "50ms",
		"-start-in", "200ms",
		"-wait", "60s", // also the pool TTL: entries must outlive this test
	)
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	deadline := time.Now().Add(20 * time.Second)
	url := "http://" + httpAddr
	if _, err := httpGet(t, url+"/v1/status", deadline); err != nil {
		t.Fatalf("/v1/status: %v", err)
	}

	// Two commands with short client timeouts: each expires with 504 (no
	// quorum, never commits) but stays pending in the pool — the occupancy
	// IS the backpressure signal.
	for seq := 1; seq <= 2; seq++ {
		code, doc := postTx(t, url, map[string]any{
			"client": 9, "seq": seq, "op": "put", "key": "k", "value": "v",
			"timeout_ms": 300,
		})
		if code != http.StatusGatewayTimeout {
			t.Fatalf("seq %d: status %d, body %v, want 504", seq, code, doc)
		}
		if errCode(doc) != "TIMEOUT" {
			t.Fatalf("seq %d: error %v, want TIMEOUT", seq, doc)
		}
	}

	// The pool is full: a NEW (client, seq) is shed with 429 + Retry-After.
	buf, _ := json.Marshal(map[string]any{
		"client": 10, "seq": 1, "op": "put", "key": "k2", "value": "v",
		"timeout_ms": 300,
	})
	resp, err := http.Post(url+"/v1/tx", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: status %d, body %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil || errCode(doc) != "POOL_FULL" {
		t.Fatalf("overflow body %s, want POOL_FULL", body)
	}

	// A duplicate of a PENDING command is NOT new load: it joins the
	// existing entry (and times out with it) instead of being shed.
	code, doc := postTx(t, url, map[string]any{
		"client": 9, "seq": 1, "op": "put", "key": "k", "value": "v",
		"timeout_ms": 300,
	})
	if code != http.StatusGatewayTimeout || errCode(doc) != "TIMEOUT" {
		t.Fatalf("pending duplicate: status %d, body %v, want 504 TIMEOUT", code, doc)
	}

	// /v1/status tells the story: 2 pending of capacity 2, 1 shed.
	statusBody, err := httpGet(t, url+"/v1/status", deadline)
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]any
	if err := json.Unmarshal([]byte(statusBody), &st); err != nil {
		t.Fatalf("/v1/status not JSON: %v\n%s", err, statusBody)
	}
	if st["pool_pending"] != float64(2) || st["pool_capacity"] != float64(2) {
		t.Errorf("pool occupancy: pending %v of %v, want 2 of 2", st["pool_pending"], st["pool_capacity"])
	}
	if shed, ok := st["pool_shed"].(float64); !ok || shed < 1 {
		t.Errorf("pool_shed %v, want >= 1", st["pool_shed"])
	}
	if deduped, ok := st["pool_deduped"].(float64); !ok || deduped < 1 {
		t.Errorf("pool_deduped %v, want >= 1", st["pool_deduped"])
	}
}

// errCode digs the structured error code out of a decoded error body.
func errCode(doc map[string]any) string {
	e, ok := doc["error"].(map[string]any)
	if !ok {
		return ""
	}
	code, _ := e["code"].(string)
	return code
}
