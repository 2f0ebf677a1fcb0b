// Command minsync-node runs ONE replica over real TCP — start n of them
// (locally or on separate machines), each with the same peer list, and
// they replicate a key-value store through the paper's consensus.
//
// Each process runs the multi-instance consensus pipeline of internal/log
// under the state-machine stack (sm applier + kv store with client
// sessions, snapshots and log compaction) and serves client gets/puts
// over the HTTP/JSON API (-http; docs/api.md). Commands posted to /v1/tx,
// reads included, are ordered through the log, so answers are
// linearizable (n = 4, t = 1, four terminals):
//
//	minsync-node -id 1 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003,127.0.0.1:7004 -t 1 -http 127.0.0.1:8001
//	minsync-node -id 2 -peers ...same... -t 1 -http 127.0.0.1:8002
//	...
//	curl -s -X POST localhost:8001/v1/tx -d '{"client":7,"seq":1,"op":"put","key":"user","value":"ada"}'
//
// Sending the same (client, seq) command to several replicas is answered
// once per replica and applied once: the session layer's exactly-once
// guarantee.
//
// The i-th peer address belongs to process i.
package main

import (
	"flag"
	stdlog "log"
	"strings"
	"time"

	"repro/internal/netx"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/types"
)

func main() {
	var (
		idF      = flag.Int("id", 0, "this process's id (1..n)")
		peersF   = flag.String("peers", "", "comma list of n host:port addresses; the i-th is process i")
		tF       = flag.Int("t", 1, "Byzantine fault budget (t < n/3)")
		batch    = flag.Int("batch", 16, "max commands per batch")
		pipeline = flag.Int("pipeline", 4, "consensus instances in flight; cluster-wide like -peers and -t: it also stripes the pending commands into lanes, and replicas that disagree on it propose different batches and decide nothing (compare `pipeline` on /statusz)")
		unit     = flag.Duration("unit", 50*time.Millisecond, "EA round timer unit")
		_        = flag.Bool("coalesce", true, "ignored (the relay is always on): benchmark/cluster.go still passes it; ROADMAP 13(c) deletes it")
		wait     = flag.Duration("wait", 2*time.Minute, "give up after this long")
		startIn  = flag.Duration("start-in", 2*time.Second, "longest to wait for links to n−t−1 peers before opening the pipeline and the HTTP edge")

		metricsF = flag.String("metrics", "", "serve /metrics, /statusz and /debug/pprof/ on this address (empty = no listener; the node counts either way)")
		traceDir = flag.String("trace-dir", "", "attach causal command tracing and write flight-recorder dumps into this directory on a stall or lag signal (empty = off; merge dumps with minsync-trace)")

		_         = flag.Bool("kv", false, "ignored (the replicated KV is the only mode): benchmark/cluster.go still passes it; ROADMAP 13(c) deletes it")
		_         = flag.String("kv-listen", "", "ignored (clients use -http): benchmark/cluster.go still passes it; ROADMAP 13(c) deletes it")
		dataDir   = flag.String("data-dir", "", "durable storage directory — committed entries are write-ahead logged and snapshots stamped there, and a restart boots from it instead of asking peers (empty = volatile)")
		httpF     = flag.String("http", "", "serve the HTTP/JSON API (/v1/tx, /v1/kv/{key}, /v1/status) on this address (empty = off)")
		poolCap   = flag.Int("pool", 1024, "admission pool capacity (pending commands before load shedding)")
		kvTarget  = flag.Int("kv-target", 0, "exit after applying this many commands (0 = serve until killed)")
		snapEvery = flag.Int("snapshot-every", 16, "snapshot cadence in applied entries; a snapshot is also re-stamped after 4× as many applied instances without one, so command-less instances are compacted too (0 = off, both)")
		compact   = flag.Bool("compact", true, "retire pre-snapshot state after each snapshot")
	)
	flag.Parse()
	peers := strings.Split(*peersF, ",")
	n := len(peers)
	if *idF < 1 || *idF > n {
		stdlog.Fatalf("-id must be in 1..%d", n)
	}
	params := types.Params{N: n, T: *tF}
	if err := params.Validate(true); err != nil {
		stdlog.Fatal(err)
	}
	self := types.ProcID(*idF)
	addrs := make(map[types.ProcID]string, n)
	for i, a := range peers {
		addrs[types.ProcID(i+1)] = strings.TrimSpace(a)
	}

	tel := newTelemetry(*metricsF, self, params)

	// The node exists before the transport accepts its first connection:
	// peers under load have a frame for a restarted replica within a
	// fraction of a millisecond of its listener opening, and what arrives
	// before Start waits in the inbox. The transport is bound below; the
	// node sends nothing before Start.
	send := &sendAdapter{}
	node, err := newNode(tel, self, params, send)
	if err != nil {
		stdlog.Fatal(err)
	}
	tr, err := netx.Listen(netx.Config{
		Self:    self,
		Addrs:   addrs,
		Metrics: tel.wire,
		Recv:    node.Deliver,
		Logf:    stdlog.Printf,
	})
	if err != nil {
		stdlog.Fatal(err)
	}
	defer tr.Close()
	send.Transport = tr
	defer node.Stop()

	runKVServe(node, tr, tel, self, kvOptions{
		HTTPAddr: *httpF, DataDir: *dataDir,
		Batch: *batch, Pipeline: *pipeline,
		SnapEvery: *snapEvery, PoolCap: *poolCap,
		Target: *kvTarget, Compact: *compact,
		TraceDir: *traceDir, Unit: *unit, Wait: *wait, StartIn: *startIn,
	})
}

// newNode builds the replica's event loop, counting its loop
// tally into the telemetry's registry.
func newNode(tel *telemetry, self types.ProcID, params types.Params, tr rt.Transport) (*rt.Node, error) {
	return rt.NewNode(rt.NodeConfig{
		ID:        self,
		Params:    params,
		Transport: tr,
		Metrics:   obs.NewNodeMetrics(tel.reg, ""),
	})
}

// sendAdapter lets the node hold the transport before it is bound.
type sendAdapter struct{ *netx.Transport }
