// Command minsync-node runs ONE consensus process over real TCP — start n
// of them (locally or on separate machines), each with the same peer list,
// and they reach Byzantine consensus.
//
// Single-shot mode (the paper's one-decision algorithm; n = 4, t = 1,
// four terminals):
//
//	minsync-node -id 1 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003,127.0.0.1:7004 -t 1 -propose alpha
//	minsync-node -id 2 -peers ...same... -t 1 -propose beta
//	minsync-node -id 3 -peers ...same... -t 1 -propose alpha
//	minsync-node -id 4 -peers ...same... -t 1 -propose beta
//
// Each prints its decision and exits 0.
//
// Replicated-KV mode (-kv): each process runs the multi-instance
// consensus pipeline of internal/log under the state-machine stack (sm
// applier + kv store with client sessions, snapshots and log compaction)
// and serves client gets/puts over the HTTP/JSON API (-http; docs/api.md).
// Commands posted to /v1/tx, reads included, are ordered through the log,
// so answers are linearizable:
//
//	minsync-node -id 1 -peers ...as above... -t 1 -kv -http 127.0.0.1:8001
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
	"fmt"
	stdlog "log"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/netx"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/replica"
	"repro/internal/rt"
	"repro/internal/types"
)

func main() {
	var (
		idF      = flag.Int("id", 0, "this process's id (1..n)")
		peersF   = flag.String("peers", "", "comma list of n host:port addresses; the i-th is process i")
		tF       = flag.Int("t", 1, "Byzantine fault budget (t < n/3)")
		mF       = flag.Int("m", 2, "distinct proposable values (single-shot mode)")
		propose  = flag.String("propose", "", "value to propose (required in single-shot mode)")
		batch    = flag.Int("batch", 16, "kv mode: max commands per batch")
		pipeline = flag.Int("pipeline", 4, "kv mode: consensus instances in flight; cluster-wide like -peers and -t: it also stripes the pending commands into lanes, and replicas that disagree on it propose different batches and decide nothing (compare `pipeline` on /statusz)")
		unit     = flag.Duration("unit", 50*time.Millisecond, "EA round timer unit")
		_        = flag.Bool("coalesce", true, "ignored (the relay is always on): benchmark/cluster.go still passes it; ROADMAP 13(c) deletes it")
		wait     = flag.Duration("wait", 2*time.Minute, "give up after this long")
		startIn  = flag.Duration("start-in", 2*time.Second, "delay before proposing (lets peers come up)")

		metricsF    = flag.String("metrics", "", "serve /metrics, /statusz and /debug/pprof/ on this address (empty = no listener; the node counts either way)")
		traceDir    = flag.String("trace-dir", "", "kv mode: attach causal command tracing and write flight-recorder dumps into this directory on a stall or lag signal (empty = off; merge dumps with minsync-trace)")
		snapRefresh = flag.Int("snapshot-refresh", int(replica.DefaultSnapshotRefresh), "kv mode: snapshot (and compact) at least every N applied instances even when they carried no entries, so command-less instances cannot pile up uncompacted and rejoining replicas find a fresh transfer boundary (0 = off)")

		kvMode    = flag.Bool("kv", false, "replicated-KV mode: replicate a KV store and serve gets/puts through the HTTP/JSON API (-http)")
		_         = flag.String("kv-listen", "", "ignored (clients use -http): benchmark/cluster.go still passes it; ROADMAP 13(c) deletes it")
		dataDir   = flag.String("data-dir", "", "kv mode: durable storage directory — committed entries are write-ahead logged and snapshots stamped there, and a restart boots from it instead of asking peers (empty = volatile)")
		httpF     = flag.String("http", "", "kv mode: serve the HTTP/JSON API (/v1/tx, /v1/kv/{key}, /v1/status) on this address (empty = off)")
		poolCap   = flag.Int("pool", 1024, "kv mode: admission pool capacity (pending commands before load shedding)")
		kvTarget  = flag.Int("kv-target", 0, "kv mode: exit after applying this many commands (0 = serve until killed)")
		snapEvery = flag.Int("snapshot-every", 16, "kv mode: snapshot cadence in applied entries (0 = off)")
		compact   = flag.Bool("compact", true, "kv mode: retire pre-snapshot state after each snapshot")
	)
	flag.Parse()
	if !*kvMode && *propose == "" {
		stdlog.Fatal("-propose is required (or use -kv)")
	}
	peers := strings.Split(*peersF, ",")
	n := len(peers)
	if *idF < 1 || *idF > n {
		stdlog.Fatalf("-id must be in 1..%d", n)
	}
	params := types.Params{N: n, T: *tF, M: *mF}
	if err := params.Validate(*kvMode); err != nil {
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

	if *kvMode {
		runKVServe(node, tr, tel, self, kvOptions{
			HTTPAddr: *httpF, DataDir: *dataDir,
			Batch: *batch, Pipeline: *pipeline,
			SnapEvery: *snapEvery, SnapRefresh: *snapRefresh,
			PoolCap: *poolCap, Target: *kvTarget, Compact: *compact,
			TraceDir: *traceDir, Unit: *unit, Wait: *wait, StartIn: *startIn,
		})
		return
	}
	runSingleShot(node, tr, tel, self, *propose, *unit, *wait, *startIn)
}

// runSingleShot is the classic one-decision mode.
func runSingleShot(node *rt.Node, tr *netx.Transport, tel *telemetry, self types.ProcID, propose string, unit, wait, startIn time.Duration) {
	decided := make(chan types.Value, 1)
	var engine *core.Engine
	var engErr error
	node.Start(func(env proto.Env) proto.Handler {
		eng, err := core.New(core.Config{
			Env:       env,
			TimeUnit:  types.Duration(unit),
			RBMetrics: obs.NewRBMetrics(tel.reg, ""),
			OnDecide: func(v types.Value) {
				select {
				case decided <- v:
				default:
				}
			},
		})
		if err != nil {
			engErr = err
			return proto.HandlerFunc(func(types.ProcID, proto.Message) {})
		}
		engine = eng
		return proto.NewNode(eng, obs.NewDedupMetrics(tel.reg, ""))
	})
	if engErr != nil {
		stdlog.Fatal(engErr)
	}

	tel.setStatus(func() map[string]any {
		return probeStatus(node.Post, func() map[string]any {
			return map[string]any{"mode": "single-shot", "proposing": propose}
		})
	})
	stdlog.Printf("process %v listening on %s, proposing %q in %v", self, tr.Addr(), propose, startIn)
	time.Sleep(startIn)
	node.Post(func() {
		if err := engine.Propose(types.Value(propose)); err != nil {
			stdlog.Printf("propose: %v", err)
		}
	})

	select {
	case v := <-decided:
		fmt.Printf("process %v DECIDED %q (sent %d frames, received %d, rejected %d)\n",
			self, v, tr.Sent(), tr.Received(), tr.Rejected())
	case <-time.After(wait):
		stdlog.Printf("no decision within %v", wait)
		os.Exit(1)
	}
}

// newNode builds the event loop every mode runs on, counting its loop
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
