package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer collects a replica's stderr: exec's copier goroutine writes
// while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// liveCluster is a 4-replica KV cluster of OS processes on TCP loopback,
// default flags except a short snapshot cadence, HTTP and telemetry
// listeners on. Replicas are 0-based here and 1-based on the wire.
type liveCluster struct {
	t        *testing.T
	bin      string
	peerList string
	urls     []string          // HTTP client edge
	metrics  []string          // telemetry listener
	dataDirs map[int]string    // durable replicas
	procs    []*exec.Cmd       // nil while a replica is down
	logs     []*syncBuffer     // stderr of each replica's current incarnation
	seqs     map[uint64]uint64 // last sequence number used per session
}

const clusterN = 4

// startCluster boots the cluster; the replicas listed in durable run with
// -data-dir.
func startCluster(t *testing.T, durable ...int) *liveCluster {
	t.Helper()
	dir := t.TempDir()
	c := &liveCluster{
		t:        t,
		bin:      buildBinary(t, dir, "minsync-node", "."),
		metrics:  reservePorts(t, clusterN),
		dataDirs: make(map[int]string),
		procs:    make([]*exec.Cmd, clusterN),
		logs:     make([]*syncBuffer, clusterN),
		seqs:     make(map[uint64]uint64),
	}
	c.peerList = strings.Join(reservePorts(t, clusterN), ",")
	for _, addr := range reservePorts(t, clusterN) {
		c.urls = append(c.urls, "http://"+addr)
	}
	for _, i := range durable {
		c.dataDirs[i] = filepath.Join(dir, fmt.Sprintf("replica%d-data", i+1))
	}
	t.Cleanup(func() {
		for i := range c.procs {
			c.kill(i)
		}
	})
	for i := range c.procs {
		c.start(i)
	}
	for i := range c.procs {
		c.waitFor(fmt.Sprintf("replica %d to serve /v1/status", i+1), func() bool {
			_, ok := c.status(i)
			return ok
		})
	}
	return c
}

// start launches (or relaunches) replica i.
func (c *liveCluster) start(i int) {
	c.t.Helper()
	args := []string{
		"-id", fmt.Sprint(i + 1),
		"-peers", c.peerList,
		"-t", "1",
		"-kv",
		"-http", strings.TrimPrefix(c.urls[i], "http://"),
		"-metrics", c.metrics[i],
		"-snapshot-every", "4",
		"-unit", "50ms",
		"-start-in", "1s",
		"-wait", "60s",
	}
	if dir := c.dataDirs[i]; dir != "" {
		args = append(args, "-data-dir", dir)
	}
	cmd := exec.Command(c.bin, args...)
	c.logs[i] = &syncBuffer{}
	cmd.Stderr = c.logs[i]
	if err := cmd.Start(); err != nil {
		c.t.Fatalf("start replica %d: %v", i+1, err)
	}
	c.procs[i] = cmd
}

// kill is a power failure: SIGKILL gives the process no chance to flush
// anything that was not already fsync'd.
func (c *liveCluster) kill(i int) {
	if p := c.procs[i]; p != nil {
		p.Process.Kill()
		p.Wait()
		c.procs[i] = nil
	}
}

// waitFor polls cond until it holds; every wait in these tests is a
// condition on what the cluster reports, never a guess at how long
// something takes.
func (c *liveCluster) waitFor(what string, cond func() bool) {
	c.t.Helper()
	for deadline := time.Now().Add(60 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			for i, l := range c.logs {
				c.t.Logf("--- replica %d (status %v) ---\n%s", i+1, c.statusOrNil(i), tail(l.String(), 15))
			}
			c.t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// tail returns the last lines of a replica's log, the per-snapshot
// chatter left out.
func tail(s string, lines int) string {
	var kept []string
	for _, l := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		if !strings.Contains(l, " snapshot: ") {
			kept = append(kept, l)
		}
	}
	return strings.Join(kept[max(0, len(kept)-lines):], "\n")
}

// status fetches replica i's status document (/v1/status); ok is false
// while it is down or not serving yet.
func (c *liveCluster) status(i int) (doc map[string]float64, ok bool) {
	resp, err := http.Get(c.urls[i] + "/v1/status")
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	var raw map[string]any
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&raw) != nil {
		return nil, false
	}
	if _, degraded := raw["error"]; degraded {
		return nil, false
	}
	doc = make(map[string]float64)
	for k, v := range raw {
		if f, isNum := v.(float64); isNum {
			doc[k] = f
		}
	}
	return doc, true
}

func (c *liveCluster) statusOrNil(i int) map[string]float64 {
	doc, _ := c.status(i)
	return doc
}

// counter reads one unlabeled counter from replica i's /metrics.
func (c *liveCluster) counter(i int, name string) float64 {
	c.t.Helper()
	body, err := httpGet(c.t, "http://"+c.metrics[i]+"/metrics", time.Now().Add(10*time.Second))
	if err != nil {
		c.t.Fatalf("replica %d /metrics: %v", i+1, err)
	}
	for _, line := range strings.Split(body, "\n") {
		var v float64
		if rest, found := strings.CutPrefix(line, name+" "); found {
			if _, err := fmt.Sscan(rest, &v); err == nil {
				return v
			}
		}
	}
	c.t.Fatalf("replica %d exports no %s", i+1, name)
	return 0
}

// waitQuiescent waits until all replicas are at rest at the same
// instance — nothing pending, nothing in flight, equal applied_instances
// — and returns that instance. With no client active nothing can move a
// cluster out of that state.
func (c *liveCluster) waitQuiescent() float64 {
	c.t.Helper()
	var applied float64
	c.waitFor("the replicas to come to rest at one instance", func() bool {
		for i := range c.procs {
			doc, ok := c.status(i)
			if !ok || doc["pending_commands"] != 0 || doc["in_flight_instances"] != 0 {
				return false
			}
			if i > 0 && doc["applied_instances"] != applied {
				return false
			}
			applied = doc["applied_instances"]
		}
		return true
	})
	return applied
}

// tx commits the session's next command through replica i, retrying the
// same (client, seq) until the cluster answers it, and returns the value.
func (c *liveCluster) tx(i int, client uint64, op, key, val string) string {
	c.t.Helper()
	c.seqs[client]++
	req := map[string]any{"client": client, "seq": c.seqs[client], "op": op, "key": key, "value": val, "timeout_ms": 5000}
	var code int
	var doc map[string]any
	c.waitFor(fmt.Sprintf("replica %d to commit %s %s for session %d", i+1, op, key, client), func() bool {
		code, doc = postTx(c.t, c.urls[i], req)
		return code == http.StatusOK
	})
	if op == "put" && doc["status"] != "ok" {
		c.t.Fatalf("replica %d answered %s %s with %v", i+1, op, key, doc)
	}
	got, _ := doc["value"].(string)
	return got
}

// TestE2EDurableRestart is the live-cluster pin for the durable-storage
// path. Replica 1 runs with -data-dir, a session commits enough entries
// to stamp a snapshot, and the cluster comes to rest — instances start on
// demand, so with no client nothing is decided while replica 1 is down.
// It is SIGKILLed and restarted on the same directory, and must come back
// from its OWN disk at the cluster's own position: the boot log reports
// the restored snapshot and WAL replay, applied_instances and
// applied_entries equal the peers', and the peer-transfer counters stay
// at ZERO. Then it serves a read of the recovered state and a write.
// Skipped under -short.
func TestE2EDurableRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e durable restart test skipped in -short mode")
	}
	c := startCluster(t, 0)
	for k, key := range []string{"a", "b", "c", "d", "e"} {
		c.tx(0, 7, "put", key, fmt.Sprint(k+1))
	}
	if got := c.tx(0, 7, "get", "a", ""); got != "1" {
		t.Fatalf("read back %q, want 1", got)
	}
	applied := c.waitQuiescent()
	entries := c.statusOrNil(1)["applied_entries"]
	if entries < 6 {
		t.Fatalf("the cluster applied %v entries before the kill, want >= 6", entries)
	}

	c.kill(0)
	c.start(0)
	c.waitFor("replica 1 to report the cluster's position from its own disk", func() bool {
		doc, ok := c.status(0)
		return ok && doc["applied_instances"] == applied && doc["applied_entries"] == entries
	})
	if log := c.logs[0].String(); !strings.Contains(log, "booted from "+c.dataDirs[0]) {
		t.Fatalf("no durable boot in the log:\n%s", log)
	}

	// A fresh session (the old one's sequence numbers are used up) reads
	// the recovered state and writes through the rebooted replica.
	if got := c.tx(0, 8, "get", "e", ""); got != "5" {
		t.Fatalf("recovered replica lost state: e = %q", got)
	}
	c.tx(0, 8, "put", "f", "6")
	if got := c.tx(0, 8, "get", "f", ""); got != "6" {
		t.Fatalf("write through the recovered replica read back %q", got)
	}
	c.waitQuiescent()
	for _, name := range []string{"minsync_transfer_installs_total", "minsync_transfer_requests_total"} {
		if v := c.counter(0, name); v != 0 {
			t.Errorf("rebooted from disk into a quiescent cluster, yet %s = %v\n%s", name, v, c.logs[0])
		}
	}
}

// TestE2ERestartUnderLoad is the other half: a replica that is down while
// the cluster keeps committing can never re-run the instances it missed
// (nothing retransmits them), so it must catch up by snapshot transfer —
// from its disk boundary if it has one, from nothing if it is volatile —
// converge onto the live frontier while the load continues, and then
// serve a write. Skipped under -short.
func TestE2ERestartUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e restart-under-load test skipped in -short mode")
	}
	for name, durable := range map[string][]int{"durable": {0}, "volatile": nil} {
		t.Run(name, func(t *testing.T) {
			c := startCluster(t, durable...)
			c.tx(1, 7, "put", "warm", "up")

			// The load: one closed-loop session through replica 2.
			stop, stopped := make(chan struct{}), make(chan struct{})
			stopLoad := sync.OnceFunc(func() { close(stop); <-stopped })
			defer stopLoad()
			go func() {
				defer close(stopped)
				for seq := uint64(1); ; seq++ {
					req := map[string]any{"client": 50, "seq": seq, "op": "put", "key": fmt.Sprint("load-", seq%32), "value": fmt.Sprint(seq), "timeout_ms": 5000}
					for code := 0; code != http.StatusOK; {
						select {
						case <-stop:
							return
						default:
						}
						if code, _ = postTx(t, c.urls[1], req); code != http.StatusOK {
							time.Sleep(20 * time.Millisecond)
						}
					}
				}
			}()
			entriesAt := func(i int) float64 { return c.statusOrNil(i)["applied_entries"] }

			c.waitFor("replica 1 to apply some of the load", func() bool { return entriesAt(0) >= 20 })
			c.kill(0)
			down := entriesAt(1)
			c.waitFor("the cluster to commit 40 entries without replica 1", func() bool { return entriesAt(1) >= down+40 })
			c.start(0)
			c.waitFor("replica 1 to install a peer snapshot and reach the live frontier", func() bool {
				doc, ok := c.status(0)
				frontier, live := c.status(1)
				return ok && live && doc["applied_entries"]+8 >= frontier["applied_entries"] &&
					c.counter(0, "minsync_transfer_installs_total") >= 1
			})
			if dir := c.dataDirs[0]; dir != "" && !strings.Contains(c.logs[0].String(), "booted from "+dir) {
				t.Errorf("no durable boot in the log:\n%s", c.logs[0])
			}
			if n := c.counter(0, "minsync_transfer_chunks_received_total"); n < 1 {
				t.Errorf("replica 1 installed a snapshot without receiving a chunk (%v)", n)
			}
			stopLoad()

			c.waitQuiescent()
			c.tx(0, 8, "put", "after", "restart")
			if got := c.tx(2, 9, "get", "after", ""); got != "restart" {
				t.Fatalf("a write through the restarted replica read back %q at replica 3", got)
			}
			t.Logf("replica 1 caught up through %v snapshot installs", c.counter(0, "minsync_transfer_installs_total"))
		})
	}
}

// TestE2EIdleQuiescent: a cluster nobody asks anything decides nothing.
// After a commit the four replicas come to rest at one instance; five
// seconds later (two stall-probe periods) every one of them is still
// there, has started no instance and has asked no peer for a snapshot;
// and the next command commits as if nothing had happened. Skipped under
// -short.
func TestE2EIdleQuiescent(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e idle test skipped in -short mode")
	}
	c := startCluster(t)
	c.tx(0, 7, "put", "before", "idle")
	applied := c.waitQuiescent()

	time.Sleep(5 * time.Second) // the idle period under test, not a wait for anything

	for i := range c.procs {
		doc, ok := c.status(i)
		if !ok || doc["applied_instances"] != applied || doc["in_flight_instances"] != 0 {
			t.Errorf("replica %d moved while idle: %v (was at rest at instance %v)", i+1, doc, applied)
		}
		if v := c.counter(i, "minsync_transfer_requests_total"); v != 0 {
			t.Errorf("replica %d probed an idle cluster for snapshots %v times", i+1, v)
		}
	}
	c.tx(2, 7, "put", "after", "idle")
	if got := c.tx(3, 7, "get", "after", ""); got != "idle" {
		t.Fatalf("read back %q after the idle period", got)
	}
	if after := c.waitQuiescent(); after <= applied {
		t.Fatalf("two commands committed yet applied_instances went %v -> %v", applied, after)
	}
}
