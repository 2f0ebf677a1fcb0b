package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// nodeFlags are the documented serving defaults (the ones
// scripts/load-smoke.sh runs with), spelled out so the benchmark does not
// silently follow a changed flag default. -start-in is boot choreography,
// not an engine knob: it is shortened from load-smoke's 2s so that
// set-up time is mostly work rather than one fixed sleep.
var nodeFlags = []string{
	"-kv", "-t", "1", "-unit", "50ms", "-batch", "16", "-pipeline", "4",
	"-coalesce=true", "-snapshot-every", "16", "-compact=true", "-pool", "1024",
	"-start-in", "500ms", "-wait", "60s", "-kv-listen", "127.0.0.1:0",
}

// clusterSpec says which cluster to boot.
type clusterSpec struct {
	bin     string // minsync-node binary
	dir     string // scratch directory for logs, data dirs and trace dirs
	n       int    // addresses in the peer list
	started int    // replicas 1..started are spawned; the rest never exist
	durable bool   // -data-dir on
	traced  bool   // -metrics and -trace-dir on
}

type replica struct {
	id      int
	cmd     *exec.Cmd
	exited  chan struct{} // closed once Wait returned
	http    string        // base URL of the HTTP edge
	metrics string        // base URL of the telemetry listener ("" = off)
	dataDir string        // "" = volatile
	logPath string
}

func (r *replica) alive() bool {
	select {
	case <-r.exited:
		return false
	default:
		return true
	}
}

// cluster is a set of minsync-node subprocesses on TCP loopback.
type cluster struct {
	spec     clusterSpec
	replicas []*replica
	spawned  time.Time // when the first replica was started
}

// liveClusters lets the signal handler kill whatever is running.
var liveClusters struct {
	sync.Mutex
	set map[*cluster]struct{}
}

func stopAllClusters() {
	liveClusters.Lock()
	var all []*cluster
	for c := range liveClusters.set {
		all = append(all, c)
	}
	liveClusters.Unlock()
	for _, c := range all {
		c.stop()
	}
}

// firstStaticPort is the bottom of the range replica listeners are drawn
// from; the top is wherever the kernel's ephemeral range begins.
const firstStaticPort = 10000

// ephemeralFloor is the lowest port the kernel hands to outgoing
// connections and to listeners on port 0.
func ephemeralFloor() int {
	b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range")
	if f := strings.Fields(string(b)); err == nil && len(f) == 2 {
		if lo, err := strconv.Atoi(f[0]); err == nil {
			return lo
		}
	}
	return 32768 // the Linux default
}

// reserveAddrs returns k distinct free loopback addresses, found by
// binding them: every listener is held until all k are known, so no port
// is handed out twice.
//
// The ports are drawn at random from BELOW the ephemeral range rather
// than taken from ":0". A replica binds its HTTP and telemetry listeners
// only after -start-in, and in that half second its peers are already
// dialling each other: a port that ":0" returned is an ephemeral port,
// and the kernel is free to give it to one of those outgoing connections
// the moment the reservation is closed — the replica then dies on "bind:
// address already in use" (seen once in ≈ 2 000 boots). Nothing allocates
// a static port behind our back; another program binding the same one
// explicitly in that window is what the liveness checks are for.
func reserveAddrs(k int) ([]string, error) {
	span := ephemeralFloor() - firstStaticPort
	if span < 10*k {
		return nil, fmt.Errorf("reserve ports: ephemeral range starts at %d, no room for static ports above %d", ephemeralFloor(), firstStaticPort)
	}
	lns := make([]net.Listener, 0, k)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, 0, k)
	for tries := 0; len(addrs) < k; tries++ {
		if tries > 100*k {
			return nil, fmt.Errorf("reserve ports: found only %d of %d free ports", len(addrs), k)
		}
		addr := fmt.Sprintf("127.0.0.1:%d", firstStaticPort+rand.Intn(span))
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			continue // taken; draw again
		}
		lns = append(lns, ln)
		addrs = append(addrs, addr)
	}
	return addrs, nil
}

// startCluster spawns the replicas and returns once every started
// replica's HTTP edge answers /v1/status. On any failure everything
// already spawned is killed.
func startCluster(spec clusterSpec) (*cluster, error) {
	per := 1 // HTTP edge
	if spec.traced {
		per = 2 // + telemetry listener
	}
	addrs, err := reserveAddrs(spec.n + per*spec.started)
	if err != nil {
		return nil, err
	}
	peers := strings.Join(addrs[:spec.n], ",")
	c := &cluster{spec: spec}
	liveClusters.Lock()
	if liveClusters.set == nil {
		liveClusters.set = make(map[*cluster]struct{})
	}
	liveClusters.set[c] = struct{}{}
	liveClusters.Unlock()

	for id := 1; id <= spec.started; id++ {
		r := &replica{
			id:      id,
			exited:  make(chan struct{}),
			http:    "http://" + addrs[spec.n+per*(id-1)],
			logPath: filepath.Join(spec.dir, fmt.Sprintf("node%d.log", id)),
		}
		args := append([]string{"-id", fmt.Sprint(id), "-peers", peers, "-http", strings.TrimPrefix(r.http, "http://")}, nodeFlags...)
		if spec.durable {
			r.dataDir = filepath.Join(spec.dir, fmt.Sprintf("data%d", id))
			args = append(args, "-data-dir", r.dataDir)
		}
		if spec.traced {
			maddr := addrs[spec.n+per*(id-1)+1]
			r.metrics = "http://" + maddr
			traceDir := filepath.Join(spec.dir, fmt.Sprintf("trace%d", id))
			if err := os.MkdirAll(traceDir, 0o755); err != nil {
				c.stop()
				return nil, err
			}
			args = append(args, "-metrics", maddr, "-trace-dir", traceDir)
		}
		logf, err := os.Create(r.logPath)
		if err != nil {
			c.stop()
			return nil, err
		}
		r.cmd = exec.Command(spec.bin, args...)
		r.cmd.Stdout, r.cmd.Stderr = logf, logf
		// Own process group, so one kill reaches anything the replica might
		// fork; Pdeathsig, so a replica cannot outlive a benchmark that was
		// itself killed without a chance to clean up. (Pdeathsig follows the
		// spawning THREAD: main locks itself to the main thread for that.)
		r.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
		err = r.cmd.Start()
		logf.Close()
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("start replica %d: %w", id, err)
		}
		if id == 1 {
			c.spawned = time.Now()
		}
		go func() {
			r.cmd.Wait()
			close(r.exited)
		}()
		c.replicas = append(c.replicas, r)
	}

	deadline := time.Now().Add(10 * time.Second)
	for _, r := range c.replicas {
		for {
			if _, err := r.status(); err == nil {
				break
			}
			if !r.alive() || time.Now().After(deadline) {
				err := fmt.Errorf("replica %d never answered /v1/status (alive=%v)\n%s", r.id, r.alive(), r.logTail())
				c.stop()
				return nil, err
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return c, nil
}

// checkAlive fails unless every started replica is still running — a
// replica that lost a bind race or crashed would otherwise leave a
// "fault-free" run silently measuring a smaller cluster.
func (c *cluster) checkAlive(when string) error {
	for _, r := range c.replicas {
		if !r.alive() {
			return fmt.Errorf("%s: replica %d is not running (want %d alive)\n%s", when, r.id, len(c.replicas), r.logTail())
		}
	}
	return nil
}

// stop kills every replica's process group and waits for the processes.
func (c *cluster) stop() {
	for _, r := range c.replicas {
		if r.alive() {
			syscall.Kill(-r.cmd.Process.Pid, syscall.SIGKILL)
		}
	}
	for _, r := range c.replicas {
		<-r.exited
	}
	liveClusters.Lock()
	delete(liveClusters.set, c)
	liveClusters.Unlock()
}

func (c *cluster) pids() []int {
	pids := make([]int, len(c.replicas))
	for i, r := range c.replicas {
		pids[i] = r.cmd.Process.Pid
	}
	return pids
}

// cpuMS sums the CPU time of every replica process so far.
func (c *cluster) cpuMS() (float64, error) {
	total := 0.0
	for _, pid := range c.pids() {
		ms, err := procCPUms(pid)
		if err != nil {
			return 0, err
		}
		total += ms
	}
	return total, nil
}

// peakRSSmb is the largest replica VmHWM.
func (c *cluster) peakRSSmb() (float64, error) {
	peak := 0.0
	for _, pid := range c.pids() {
		mb, err := procPeakRSSmb(pid)
		if err != nil {
			return 0, err
		}
		peak = max(peak, mb)
	}
	return peak, nil
}

// statusClient serves the control-plane requests (status, scrapes, the
// final state comparison); the load sessions have their own clients.
var statusClient = &http.Client{Timeout: 5 * time.Second}

func (r *replica) status() (map[string]any, error) {
	resp, err := statusClient.Get(r.http + "/v1/status")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status: HTTP %d", resp.StatusCode)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	if e, ok := doc["error"]; ok {
		return nil, fmt.Errorf("status: %v", e)
	}
	return doc, nil
}

// statusNumber reads one numeric field of /v1/status.
func (r *replica) statusNumber(field string) (float64, error) {
	doc, err := r.status()
	if err != nil {
		return 0, err
	}
	v, ok := doc[field].(float64)
	if !ok {
		return 0, fmt.Errorf("replica %d: /v1/status has no numeric %q", r.id, field)
	}
	return v, nil
}

func (r *replica) scrape() (promSample, error) {
	if r.metrics == "" {
		return nil, errors.New("replica runs without -metrics")
	}
	resp, err := statusClient.Get(r.metrics + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

// dataDirBytes is the total size of the replica's data directory (0 for
// a volatile replica).
func (r *replica) dataDirBytes() (int64, error) {
	if r.dataDir == "" {
		return 0, nil
	}
	var total int64
	err := filepath.Walk(r.dataDir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			// Snapshot temp files come and go under the walk.
			if errors.Is(err, os.ErrNotExist) {
				return nil
			}
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// logTail returns the last lines of the replica's log for diagnostics.
func (r *replica) logTail() string {
	f, err := os.Open(r.logPath)
	if err != nil {
		return ""
	}
	defer f.Close()
	const tail = 2048
	if st, err := f.Stat(); err == nil && st.Size() > tail {
		f.Seek(-tail, io.SeekEnd)
	}
	b, _ := io.ReadAll(f)
	return fmt.Sprintf("--- node%d.log (tail) ---\n%s", r.id, b)
}
