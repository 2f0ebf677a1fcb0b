// The KV replica: each process runs the full state-machine stack — log
// engine, sm applier, kv store with client sessions — and serves clients
// through one edge, the HTTP/JSON API (-http) from internal/httpapi:
// POST /v1/tx, GET /v1/kv/{key}, GET /v1/status (see docs/api.md),
// fronted by an admission-controlled command pool (internal/txpool).
//
// Every POST /v1/tx operation, reads included, is ordered through the
// replicated log before it is answered, so answers are linearizable;
// GET /v1/kv/{key} is the documented exception, a locally-applied read.
// A command submitted to one replica rides that replica's batches;
// clients that need submission-path fault tolerance send the same
// (client, seq) command to several replicas — the session table makes the
// duplicates harmless, and each replica's pool dedups concurrent retries
// before they cost a proposal.
package main

import (
	"errors"
	"fmt"
	stdlog "log"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
	"repro/internal/kv"
	"repro/internal/log"
	"repro/internal/netx"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/replica"
	"repro/internal/rt"
	"repro/internal/sm"
	dstore "repro/internal/store"
	"repro/internal/txpool"
	"repro/internal/types"
	"repro/internal/xtrace"
)

// kvOptions carries the replica's knobs from flag parsing.
type kvOptions struct {
	// HTTPAddr is the HTTP/JSON API listener ("" = no client edge).
	// DataDir is the durable storage directory ("" = volatile): with it
	// set, the replica write-ahead logs committed entries and stamps
	// snapshots (store.File), and a restarted process boots from that
	// directory (replica.New) — applied prefix restored from disk, no peer
	// transfer needed.
	HTTPAddr, DataDir string
	// Batch/Pipeline/SnapEvery mirror the engine and applier flags;
	// PoolCap bounds the admission pool; Target is -kv-target.
	Batch, Pipeline, SnapEvery, PoolCap, Target int
	Compact                                     bool
	// TraceDir enables causal command tracing (internal/xtrace) and
	// names the directory where the flight recorder dumps its span ring
	// on a stall or lag signal ("" = tracing off).
	TraceDir   string
	Unit, Wait time.Duration
	// StartIn is the longest the replica waits at boot for links to n−t−1
	// peers to connect before it opens the pipeline and the HTTP edge.
	StartIn time.Duration
}

// kvEdge is the serving side behind the HTTP edge: the admission pool
// plus the propose/read/status callbacks that cross onto the node loop.
// One instance per serving replica.
type kvEdge struct {
	node   *rt.Node
	tr     rt.Multicaster
	pool   *txpool.Pool
	rep    *replica.Replica // built on the node loop and only touched there
	peers  []types.ProcID
	tracer *xtrace.Tracer // nil = tracing off
	// links is the TCP transport whose per-peer link state the status
	// document reports; nil when the replica runs on another transport.
	links *netx.Transport
	// boot is how the boot wait ended, set once the pipeline opens.
	boot atomic.Pointer[bootWait]
	// done closes once -kv-target entries are applied; applied mirrors
	// Applier.Applied() for the main goroutine's timeout message.
	done    chan struct{}
	applied atomic.Int64
}

// propose hands a newly-admitted command to the ordering layer: on the
// node loop, answer from the session cache if the command already
// applied, otherwise forward it to every peer (recreating the PBFT-style
// client-broadcast model — a batch only makes progress if every correct
// replica eventually proposes the command) and submit it locally. The
// forward goes first: Submit opens an instance for the command at once,
// and on each link the command must precede the INIT that carries it, or
// the peer joins the instance before it holds the command and proposes a
// different batch.
func (e *kvEdge) propose(c kv.Command, enc types.Value) error {
	k := txpool.Key{Client: c.Client, Seq: c.Seq}
	posted := e.node.Post(func() {
		// A retry of an already-applied request must be answered from the
		// session cache here: the log's content dedup absorbs the
		// re-submission, so no new apply — and hence no OnResponse — will
		// ever fire for it.
		if seq, cached, ok := e.rep.Store.CachedResponse(c.Client); ok && c.Seq <= seq {
			if c.Seq == seq {
				e.pool.Resolve(k, cached)
			} else {
				e.pool.Resolve(k, kv.Response{Status: kv.StatusStale}.Encode())
			}
			return
		}
		// Errors are swallowed as rt's env swallows them: netx counts each
		// refused frame and logs a down link once per backoff.
		_ = e.tr.Multicast(e.peers, proto.Message{Kind: proto.MsgKVRequest, Tag: proto.Tag{Mod: proto.ModKV}, Val: enc})
		if err := e.rep.Engine.Submit(enc); err != nil {
			stdlog.Printf("submit: %v", err)
		}
	})
	if !posted {
		return errors.New("node stopped")
	}
	return nil
}

// read probes the applied store on the node loop (one bounded Post round
// trip): the HTTP edge's locally-applied GET /v1/kv/{key} path.
func (e *kvEdge) read(key string) (string, bool, error) {
	type res struct {
		v  string
		ok bool
	}
	r, err := onLoop(e.node.Post, func() res {
		v, ok := e.rep.Store.Get(key)
		return res{v, ok}
	})
	return r.v, r.ok, err
}

// startKV assembles the serving replica on the node loop — tracer,
// admission pool, the replica stack itself (internal/replica, which also
// takes in peers' forwards) and the status document — without opening a
// client listener or the pipeline. persist is the durable store (nil = volatile).
func startKV(node *rt.Node, tr rt.Transport, tel *telemetry, self types.ProcID, persist dstore.Persister, opts kvOptions) (*kvEdge, error) {
	// Causal tracing is opt-in (-trace-dir) and passive: the tracer
	// records into its own bounded ring — the flight recorder — dumped on
	// a stall or lag signal and read by /statusz?trace=N. Stage latencies
	// flow into the telemetry registry.
	var tracer *xtrace.Tracer
	if opts.TraceDir != "" {
		tracer = xtrace.New(xtrace.Config{
			Proc:     self,
			Now:      func() types.Time { return types.Time(time.Now().UnixNano()) },
			Recorder: xtrace.NewRecorder(flightCap),
			Stages:   obs.NewStageMetrics(tel.reg, ""),
		})
	}

	edge := &kvEdge{
		node: node,
		tr:   rt.AsMulticaster(tr),
		pool: txpool.New(txpool.Config{
			Capacity: opts.PoolCap,
			// An entry whose commit path died must not pin capacity much
			// longer than any client would wait for it.
			TTL:     opts.Wait,
			Metrics: obs.NewPoolMetrics(tel.reg, ""),
			Tracer:  tracer,
		}),
		peers:  slices.DeleteFunc(node.Params().AllProcs(), func(p types.ProcID) bool { return p == self }),
		tracer: tracer,
		done:   make(chan struct{}),
	}
	edge.links, _ = tr.(*netx.Transport)

	// progress runs on the loop after New and after every commit and
	// install: each can satisfy the -kv-target stop rule (a durable
	// prefix or an installed snapshot IS the prefix, without a single
	// local commit). Meeting it closes the engine — the one stop rule of
	// every host — and releases the main goroutine.
	var once, lagDump sync.Once
	progress := func() {
		n := edge.rep.Applier.Applied()
		edge.applied.Store(int64(n))
		if opts.Target > 0 && n >= opts.Target {
			edge.rep.Engine.Close()
			once.Do(func() { close(edge.done) })
		}
	}
	var newErr error
	node.Start(func(env proto.Env) proto.Handler {
		cfg := log.Config{
			BatchSize: opts.Batch,
			Pipeline:  opts.Pipeline,
		}
		cfg.Engine.TimeUnit = types.Duration(opts.Unit)
		edge.rep, newErr = replica.New(replica.Config{
			Env:           env,
			Persist:       persist,
			Log:           cfg,
			SnapshotEvery: opts.SnapEvery,
			Compact:       opts.Compact,
			// Snapshot state transfer makes the crash-recovery story real
			// over TCP: a restarted replica misses its peers' frames for
			// good (no transport retransmission), so once the cluster has
			// compacted past it, only fetching a corroborated peer snapshot
			// can bring it back. The stall probe covers the restart case
			// where no inbound pressure exists at all.
			Transfer:      true,
			TransferRetry: time.Second,
			TransferProbe: 2 * time.Second,
			Obs:           tel.reg,
			Tracer:        tracer,
			OnCommit:      func(log.Entry) { progress() },
			OnSnapshot: func(s sm.Snapshot) {
				stdlog.Printf("snapshot: %d entries through instance %v, digest %x…, floor %v",
					s.Index, s.Instance, s.Digest[:8], edge.rep.Engine.Floor())
			},
			// Committed-response forwarding: every replica resolves its OWN
			// pool as it applies, so whichever replica a client retried
			// against answers as soon as the command commits there.
			OnResponse: func(e log.Entry, resp types.Value) {
				c, err := kv.DecodeCommand(e.Cmd)
				if err != nil || c.Client == 0 {
					return
				}
				edge.pool.Resolve(txpool.Key{Client: c.Client, Seq: c.Seq}, resp)
			},
			OnInstall: func(s sm.Snapshot) {
				stdlog.Printf("installed peer snapshot: %d entries through instance %v, digest %x…",
					s.Index, s.Instance, s.Digest[:8])
				progress()
			},
			// Lag signal: peers are deciding instances we dropped, i.e. we
			// fell behind the pipeline window. Dump the flight recorder
			// once so the forensic window isn't overwritten by catch-up
			// traffic.
			OnDroppedAhead: func(i types.Instance) {
				lagDump.Do(func() {
					dumpFlight(tracer, opts.TraceDir, "lag", fmt.Sprintf("lag: dropped frame ahead of window at instance %v", i))
				})
			},
		})
		if newErr != nil {
			return proto.HandlerFunc(func(types.ProcID, proto.Message) {})
		}
		progress()
		if st := edge.rep.Boot; st.HadSnapshot || st.Replayed > 0 || st.Boundary > 0 {
			stdlog.Printf("booted from %s: snapshot (%d, %v), replayed %d entries, boundary %v, applied %d",
				opts.DataDir, st.SnapIndex, st.SnapInstance, st.Replayed, st.Boundary, edge.rep.Applier.Applied())
		} else if opts.DataDir != "" {
			stdlog.Printf("fresh data dir %s: starting clean", opts.DataDir)
		}
		return edge.rep.Handler
	})
	if newErr != nil {
		return nil, newErr
	}
	tel.setStatus(func() map[string]any {
		doc := edge.status()
		httpapi.PoolStatus(doc, edge.pool)
		return doc
	})
	tel.tracer.Store(tracer)
	return edge, nil
}

// status is the host part of the one document served by both /statusz
// (the telemetry listener) and the HTTP edge's /v1/status, each of which
// adds the pool_* fields (httpapi.PoolStatus): operators see consensus
// position, snapshot boundary AND admission pressure in one place.
// pending_commands and in_flight_instances both zero on every replica is
// a quiescent cluster: nothing submitted is unordered, no instance open.
func (e *kvEdge) status() map[string]any {
	doc := probeStatus(e.node.Post, func() map[string]any {
		rep := e.rep
		st := map[string]any{
			"mode":                "kv",
			"applied_entries":     rep.Applier.Applied(),
			"applied_instances":   rep.Engine.Applied(),
			"pending_commands":    rep.Engine.Pending(),
			"in_flight_instances": rep.Engine.InFlight(),
			"retired_instances":   rep.Engine.Retired(),
			"batch":               rep.Engine.BatchSize(),
			"pipeline":            rep.Engine.Pipeline(),
			"keys":                rep.Store.Len(),
			"sessions":            rep.Store.Sessions(),
			"snapshots_taken":     rep.Applier.Snapshots(),
		}
		if snap, ok := rep.Applier.Latest(); ok {
			st["snapshot_boundary"] = snap.Instance
			st["snapshot_index"] = snap.Index
			st["snapshot_digest"] = fmt.Sprintf("%x", snap.Digest[:8])
		}
		return st
	})
	// Link state is netx's (each link's own mutex), never the node
	// loop's, so it is reported even when the loop probe degrades.
	if e.links != nil {
		states := make(map[types.ProcID]string)
		queued := make(map[types.ProcID]int)
		for p, st := range e.links.Links() {
			states[p], queued[p] = st.State, st.QueueBytes
		}
		doc["links"] = states
		doc["link_queue_bytes"] = queued
	}
	if b := e.boot.Load(); b != nil {
		doc["boot_wait_ms"] = float64(b.waited.Microseconds()) / 1e3
		doc["boot_ended_by"] = b.endedBy
	}
	return doc
}

// bootWait is how long a replica waited at boot, what ended the wait —
// "quorum" (links to need peers connected) or "start-in" (the ceiling
// passed first) — and the peers whose links were not up when it ended.
type bootWait struct {
	waited  time.Duration
	endedBy string
	down    []types.ProcID
}

// awaitLinks waits until need peer links of tr have connected or ceiling
// passes, whichever comes first.
func awaitLinks(tr *netx.Transport, need int, ceiling time.Duration) *bootWait {
	start := time.Now()
	timer := time.NewTimer(ceiling)
	defer timer.Stop()
	b := &bootWait{endedBy: "quorum"}
	select {
	case <-tr.Linked(need):
	case <-timer.C:
		b.endedBy = "start-in"
	}
	b.waited = time.Since(start)
	for p, st := range tr.Links() {
		if st.State != netx.LinkUp {
			b.down = append(b.down, p)
		}
	}
	slices.Sort(b.down)
	return b
}

// dumpFlight writes the tracer's flight recorder into dir (merge the
// per-replica dumps with minsync-trace); a no-op with tracing off.
func dumpFlight(tracer *xtrace.Tracer, dir, prefix, reason string) {
	if tracer == nil {
		return
	}
	paths, err := xtrace.WriteDumps(dir, prefix, []*xtrace.Dump{tracer.Dump(reason)})
	if err != nil {
		stdlog.Printf("flight recorder: %v", err)
		return
	}
	stdlog.Printf("flight recorder: %s, dumped %v", reason, paths)
}

// runKVServe runs the replica: consensus with the peers,
// the HTTP edge answering gets/puts through the admission pool.
func runKVServe(node *rt.Node, tr *netx.Transport, tel *telemetry, self types.ProcID, opts kvOptions) {
	// Durable storage: open (or create) the data directory before the
	// stack is assembled, so the applier's write-ahead discipline covers
	// the very first committed entry.
	var durable *dstore.File
	if opts.DataDir != "" {
		f, err := dstore.OpenFile(opts.DataDir)
		if err != nil {
			stdlog.Fatal(err)
		}
		durable = f
		defer durable.Close()
	}
	edge, err := startKV(node, tr, tel, self, durable, opts)
	if err != nil {
		stdlog.Fatal(err)
	}

	// The HTTP edge binds before the boot wait and serves after it: a held
	// port fails the boot at once, and no peer's outgoing connection can
	// take the port while the replica waits.
	var (
		api *httpapi.Server
		hln net.Listener
	)
	if opts.HTTPAddr != "" {
		api, err = httpapi.New(httpapi.Config{
			Pool:           edge.pool,
			Propose:        edge.propose,
			Read:           edge.read,
			Status:         edge.status,
			DefaultTimeout: min(10*time.Second, opts.Wait),
			MaxTimeout:     opts.Wait,
			ObserveLatency: tel.observeLatency,
			Tracer:         edge.tracer,
		})
		if err != nil {
			stdlog.Fatal(err)
		}
		hln, err = net.Listen("tcp", opts.HTTPAddr)
		if err != nil {
			stdlog.Fatal(err)
		}
		defer hln.Close()
	}

	// The pipeline and the edge open once the replica reaches n−t
	// processes, itself included — the most any step of the protocol waits
	// for — or at the -start-in ceiling if fewer listen. A peer that
	// listens later catches up as a restarted one does, by transfer.
	params := node.Params()
	boot := awaitLinks(tr, params.N-params.T-1, opts.StartIn)
	edge.boot.Store(boot)
	stdlog.Printf("process %v: opening on %s after %v (-start-in %v), links down: %v",
		self, boot.endedBy, boot.waited.Round(time.Microsecond), opts.StartIn, boot.down)
	node.Post(func() {
		if err := edge.rep.Engine.Start(); err != nil {
			stdlog.Printf("start: %v", err)
		}
	})
	if hln != nil {
		go (&http.Server{Handler: api}).Serve(hln)
		stdlog.Printf("HTTP API on http://%s (/v1/tx, /v1/kv/{key}, /v1/status)", hln.Addr())
	}

	stdlog.Printf("process %v: consensus on %s (batch %d, pipeline %d, snapshots every %d, compact %v, pool %d)",
		self, tr.Addr(), opts.Batch, opts.Pipeline, opts.SnapEvery, opts.Compact, edge.pool.Capacity())

	if opts.Target > 0 {
		select {
		case <-edge.done:
			node.Post(func() {
				rep := edge.rep
				d := rep.Applier.StateDigest()
				fmt.Printf("process %v applied %d commands, state digest %x (keys %d, sessions %d, dups %d, retired %d instances)\n",
					self, rep.Applier.Applied(), d[:12], rep.Store.Len(), rep.Store.Sessions(), rep.Store.Duplicates(), rep.Engine.Retired())
			})
		case <-time.After(opts.Wait):
			stall := fmt.Sprintf("applied only %d/%d within %v", edge.applied.Load(), opts.Target, opts.Wait)
			stdlog.Print(stall)
			// Stall signal: the cluster never reached its target. Dump the
			// flight recorder so the operator can see exactly which stage
			// every in-flight command is stuck in.
			dumpFlight(edge.tracer, opts.TraceDir, "stall", "stall: "+stall)
			os.Exit(1)
		}
		// Linger so lagging peers can still finish their own runs.
		time.Sleep(2 * time.Second)
		return
	}
	select {} // serve until killed
}
