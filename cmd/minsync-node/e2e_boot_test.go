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
// boot: every peer link in the state want names, and the wait ended by
// endedBy.
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
	for p, state := range want {
		if links[p] != state {
			c.t.Errorf("replica %d link to %s is %v, want %s", i+1, p, links[p], state)
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
// replicas all listen opens as soon as every link is up — it serves its
// status, commits a put, and every replica reports each link up and the
// wait ended by the links. Skipped under -short.
func TestE2EBootOnReadiness(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e boot test skipped in -short mode")
	}
	c := newCluster(t)
	c.startIn = "10m"
	c.startAll(clusterN)
	c.tx(0, 7, "put", "user", "ada")
	for i := 0; i < clusterN; i++ {
		c.bootStatus(i, "links", peerLinks(i+1))
		if log := c.logs[i].String(); !strings.Contains(log, "every peer link up after") {
			t.Errorf("replica %d logged no readiness:\n%s", i+1, tail(log, 10))
		}
	}
}

// TestE2EBootCeiling: with replica 4 never started, the other three wait
// out their 2 s ceiling, then serve, commit, and name peer 4 down — in
// the status document and in the boot log. Skipped under -short.
func TestE2EBootCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e boot test skipped in -short mode")
	}
	c := newCluster(t)
	c.startIn = "2s"
	c.startAll(clusterN - 1)
	c.tx(0, 7, "put", "user", "ada")
	for i := 0; i < clusterN-1; i++ {
		c.bootStatus(i, "start-in", peerLinks(i+1, 4))
		if doc, _ := c.status(i); doc["boot_wait_ms"] < 2000 {
			t.Errorf("replica %d opened after %v ms, before its 2 s ceiling", i+1, doc["boot_wait_ms"])
		}
		if log := c.logs[i].String(); !strings.Contains(log, "-start-in 2s passed with the links to [p4] down") {
			t.Errorf("replica %d did not log the down peer:\n%s", i+1, tail(log, 10))
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
