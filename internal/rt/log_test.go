package rt_test

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/log"
	"repro/internal/netx"
	"repro/internal/netx/netxtest"
	"repro/internal/proto"
	"repro/internal/rt"
	"repro/internal/types"
)

// logReplica is one real-time log replica plus its commit collector.
type logReplica struct {
	node *rt.Node
	eng  *log.Engine

	mu      sync.Mutex
	commits []types.Value
	done    chan struct{} // closed when target commits reached
	target  int
}

func (r *logReplica) onCommit(e log.Entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.commits = append(r.commits, e.Cmd)
	if len(r.commits) == r.target {
		close(r.done)
	}
}

func (r *logReplica) log() []types.Value {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]types.Value, len(r.commits))
	copy(out, r.commits)
	return out
}

// startLogReplica hosts a log engine on node with the given knobs.
func startLogReplica(t *testing.T, node *rt.Node, target int, unit time.Duration) *logReplica {
	t.Helper()
	r := &logReplica{node: node, done: make(chan struct{}), target: target}
	var engErr error
	node.Start(func(env proto.Env) proto.Handler {
		cfg := log.Config{
			Env:       env,
			BatchSize: 8,
			Pipeline:  2,
			Target:    target,
			OnCommit:  r.onCommit,
		}
		cfg.Engine.TimeUnit = unit
		eng, err := log.New(cfg)
		if err != nil {
			engErr = err
			return proto.HandlerFunc(func(types.ProcID, proto.Message) {})
		}
		r.eng = eng
		return eng
	})
	if engErr != nil {
		t.Fatal(engErr)
	}
	return r
}

func runLogCluster(t *testing.T, replicas []*logReplica, cmds []types.Value, wait time.Duration) {
	t.Helper()
	for _, r := range replicas {
		r := r
		if !r.node.Post(func() {
			for _, c := range cmds {
				_ = r.eng.Submit(c)
			}
			if err := r.eng.Start(); err != nil {
				t.Errorf("start: %v", err)
			}
		}) {
			t.Fatal("node stopped before start")
		}
	}
	deadline := time.After(wait)
	for i, r := range replicas {
		select {
		case <-r.done:
		case <-deadline:
			t.Fatalf("replica %d committed %d/%d within %v", i+1, len(r.log()), r.target, wait)
		}
	}
	ref := replicas[0].log()
	if len(ref) != len(cmds) {
		t.Fatalf("replica 1 committed %d commands, want %d", len(ref), len(cmds))
	}
	for i, r := range replicas[1:] {
		got := r.log()
		if len(got) != len(ref) {
			t.Fatalf("replica %d committed %d, reference %d", i+2, len(got), len(ref))
		}
		for k := range ref {
			if got[k] != ref[k] {
				t.Fatalf("replica %d entry %d = %q, reference %q", i+2, k, got[k], ref[k])
			}
		}
	}
}

// TestLogOverMemNetwork runs a 4-replica log on the in-memory real-time
// transport: 30 commands, identical committed sequences everywhere, the
// relays flushing on the host's idle signal.
func TestLogOverMemNetwork(t *testing.T) {
	const n, target = 4, 30
	params := types.Params{N: n, T: 1}
	net := rt.NewMemNetwork()
	nodes := make([]*rt.Node, 0, n)
	for _, id := range params.AllProcs() {
		node, err := rt.NewNode(rt.NodeConfig{ID: id, Params: params, Transport: net.Attach(id)})
		if err != nil {
			t.Fatal(err)
		}
		net.Register(id, node)
		nodes = append(nodes, node)
	}
	defer func() {
		for _, node := range nodes {
			node.Stop()
		}
	}()
	replicas := make([]*logReplica, 0, n)
	for _, node := range nodes {
		replicas = append(replicas, startLogReplica(t, node, target, 20*time.Millisecond))
	}
	cmds := make([]types.Value, target)
	for i := range cmds {
		cmds[i] = types.Value(fmt.Sprintf("mem-cmd-%03d", i))
	}
	runLogCluster(t, replicas, cmds, 30*time.Second)

	// rt reports running out of input, so the relay's holds end there at
	// least some of the time, and every frame has exactly one cause.
	for i, r := range replicas {
		counts := make(chan [4]uint64, 1)
		relay := r.eng.Relay()
		if !r.node.Post(func() {
			counts <- [4]uint64{relay.IdleFlushes(), relay.TimerFlushes(), relay.FullFlushes(), relay.FramesOut()}
		}) {
			t.Fatal("node stopped before the relay was read")
		}
		c := <-counts
		if c[0] == 0 {
			t.Errorf("replica %d: no idle-caused flush in %d frames", i+1, c[3])
		}
		if c[0]+c[1]+c[2] != c[3] {
			t.Errorf("replica %d: idle %d + timer %d + full %d != %d frames", i+1, c[0], c[1], c[2], c[3])
		}
	}
}

// TestLogOverTCP runs the same workload across four real TCP transports on
// localhost — the full wire-codec-v2 path end to end.
func TestLogOverTCP(t *testing.T) {
	runTCPLog(t, nil)
}

// TestLogOverTCPStalledPeer: process 4 accepts connections and never reads
// from them. The other three — exactly n−t — commit every command: their
// event loops never wait on its links.
func TestLogOverTCPStalledPeer(t *testing.T) {
	ln, err := net.Listen("tcp", netxtest.Addr(t))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	defer func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	}()
	runTCPLog(t, map[types.ProcID]string{4: ln.Addr().String()})
}

// lateTransport lets a node hold its transport before it is bound.
type lateTransport struct{ *netx.Transport }

// runTCPLog runs 20 commands through a 4-replica log over TCP transports
// on localhost. The processes in absent are not started; they are
// reachable at the given addresses, or not at all.
func runTCPLog(t *testing.T, absent map[types.ProcID]string) {
	const n, target = 4, 20
	params := types.Params{N: n, T: 1}

	// Reserve every address first (netxtest) so each transport knows the
	// full address map up front.
	addrs := make(map[types.ProcID]string, n)
	for _, id := range params.AllProcs() {
		if addr, ok := absent[id]; ok {
			addrs[id] = addr
			continue
		}
		addrs[id] = netxtest.Addr(t)
	}
	// Every node exists before its transport listens, as in minsync-node:
	// links connect at boot, so a peer's first frames can arrive before
	// the last node is built, and they wait in its inbox until Start. The
	// transport is bound once it listens; a node sends nothing before
	// Start.
	nodes := make(map[types.ProcID]*rt.Node, n)
	for _, id := range params.AllProcs() {
		if _, ok := absent[id]; ok {
			continue
		}
		send := &lateTransport{}
		node, err := rt.NewNode(rt.NodeConfig{ID: id, Params: params, Transport: send})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = node
		tr, err := netx.Listen(netx.Config{Self: id, Addrs: addrs, Recv: node.Deliver})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		send.Transport = tr
	}
	replicas := make([]*logReplica, 0, n)
	for _, id := range params.AllProcs() {
		node, ok := nodes[id]
		if !ok {
			continue
		}
		defer node.Stop()
		replicas = append(replicas, startLogReplica(t, node, target, 25*time.Millisecond))
	}
	cmds := make([]types.Value, target)
	for i := range cmds {
		cmds[i] = types.Value(fmt.Sprintf("tcp-cmd-%03d", i))
	}
	runLogCluster(t, replicas, cmds, 60*time.Second)
}
