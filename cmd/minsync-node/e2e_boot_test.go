package main

import (
	"errors"
	"fmt"
	"net"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// bootStatus checks what replica i's status document says about its
// boot: every peer link in the state want names, with its queued bytes
// reported, and the wait ended by endedBy.
func (c *liveCluster) bootStatus(i int, endedBy string, want map[string]string) {
	c.t.Helper()
	doc, ok := c.statusDoc(i)
	if !ok {
		c.t.Fatalf("replica %d serves no status", i+1)
	}
	links, _ := doc["links"].(map[string]any)
	if len(links) != len(want) {
		c.t.Errorf("replica %d links %v, want %v", i+1, doc["links"], want)
	}
	queued, _ := doc["link_queue_bytes"].(map[string]any)
	for p, state := range want {
		if links[p] != state {
			c.t.Errorf("replica %d link to %s is %v, want %s", i+1, p, links[p], state)
		}
		if _, ok := queued[p].(float64); !ok {
			c.t.Errorf("replica %d reports no queued bytes for peer %s: %v", i+1, p, doc["link_queue_bytes"])
		}
	}
	if doc["boot_ended_by"] != endedBy {
		c.t.Errorf("replica %d boot ended by %v, want %s", i+1, doc["boot_ended_by"], endedBy)
	}
	if _, ok := doc["boot_wait_ms"].(float64); !ok {
		c.t.Errorf("replica %d reports no boot_wait_ms: %v", i+1, doc)
	}
}

// peerLinks is the links field a replica of the cluster should report
// when the peers in down are down and the others up.
func peerLinks(self int, down ...int) map[string]string {
	want := make(map[string]string)
	for p := 1; p <= clusterN; p++ {
		if p != self {
			want[fmt.Sprint(p)] = "up"
		}
	}
	for _, p := range down {
		want[fmt.Sprint(p)] = "down"
	}
	return want
}

// TestE2EBootOnReadiness: with a ceiling of ten minutes, a cluster whose
// replicas all listen opens on a quorum of links at once — it serves its
// status and commits a put with no frame dropped at boot, and every
// replica reports the wait ended by the quorum and, once the last link
// has connected, each link up. Skipped under -short.
func TestE2EBootOnReadiness(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e boot test skipped in -short mode")
	}
	c := newCluster(t)
	c.startIn = "10m"
	c.startAll(clusterN)
	c.tx(0, 7, "put", "user", "ada")
	for i := 0; i < clusterN; i++ {
		for _, reason := range []string{"down", "stalled"} {
			name := fmt.Sprintf(`minsync_wire_dropped_frames_total{reason=%q}`, reason)
			if d := c.counter(i, name); d != 0 {
				t.Errorf("replica %d dropped %v frames as %s at boot", i+1, d, reason)
			}
		}
		c.waitFor(fmt.Sprintf("replica %d to report every link up", i+1), func() bool {
			doc, _ := c.statusDoc(i)
			links, _ := doc["links"].(map[string]any)
			up := 0
			for _, state := range links {
				if state == "up" {
					up++
				}
			}
			return up == clusterN-1
		})
		c.bootStatus(i, "quorum", peerLinks(i+1))
		if log := c.logs[i].String(); !strings.Contains(log, "opening on quorum after") {
			t.Errorf("replica %d logged no quorum boot:\n%s", i+1, tail(log, 10))
		}
	}
}

// TestE2EBootOnQuorum: with replica 4 never started and a ceiling of ten
// minutes, the other three — n−t of the four — open on their quorum of
// links at once: each serves, reports the wait ended by the quorum with
// peer 4 down, names it in the boot log, and the cluster commits a put.
// Skipped under -short.
func TestE2EBootOnQuorum(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e boot test skipped in -short mode")
	}
	c := newCluster(t)
	c.startIn = "10m"
	c.startAll(clusterN - 1)
	// No frame has gone to peer 4 yet, so its link reads down, not backoff.
	for i := 0; i < clusterN-1; i++ {
		c.bootStatus(i, "quorum", peerLinks(i+1, 4))
		if log := c.logs[i].String(); !strings.Contains(log, "opening on quorum after") || !strings.Contains(log, "links down: [p4]") {
			t.Errorf("replica %d did not log a quorum boot with peer 4 down:\n%s", i+1, tail(log, 10))
		}
	}
	c.tx(0, 7, "put", "user", "ada")
}

// TestE2EBootCeiling: with only replicas 1 and 2 started — fewer than
// the n−t a quorum needs — both wait out their 2 s ceiling, then serve
// and name peers 3 and 4 down, in the status document and in the boot
// log. Skipped under -short.
func TestE2EBootCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e boot test skipped in -short mode")
	}
	c := newCluster(t)
	c.startIn = "2s"
	c.startAll(clusterN - 2)
	for i := 0; i < clusterN-2; i++ {
		c.bootStatus(i, "start-in", peerLinks(i+1, 3, 4))
		if doc, _ := c.status(i); doc["boot_wait_ms"] < 2000 {
			t.Errorf("replica %d opened after %v ms, before its 2 s ceiling", i+1, doc["boot_wait_ms"])
		}
		if log := c.logs[i].String(); !strings.Contains(log, "opening on start-in after") || !strings.Contains(log, "(-start-in 2s), links down: [p3 p4]") {
			t.Errorf("replica %d did not log the down peers:\n%s", i+1, tail(log, 10))
		}
	}
}

// TestE2EBootHTTPPortHeld: a replica whose -http address is already bound
// exits non-zero with the bind error at once, not after its ten-minute
// boot wait. Skipped under -short.
func TestE2EBootHTTPPortHeld(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e boot test skipped in -short mode")
	}
	c := newCluster(t)
	held, err := net.Listen("tcp", strings.TrimPrefix(c.urls[0], "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	c.startIn = "10m"
	c.start(0)
	exited := make(chan error, 1)
	go func() { exited <- c.procs[0].Wait() }()
	select {
	case err := <-exited:
		c.procs[0] = nil
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Fatalf("replica exited with %v, want a non-zero status", err)
		}
		if log := c.logs[0].String(); !strings.Contains(log, "address already in use") {
			t.Fatalf("replica did not report the bind error:\n%s", tail(log, 10))
		}
	case <-time.After(60 * time.Second):
		t.Fatal("replica kept running with its HTTP port held")
	}
}
