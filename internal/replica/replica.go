// Package replica is the single construction site of one correct replica
// of the replicated KV service: kv.Store → sm.Applier → log.Engine →
// sm.Boot → sm.Transfer. The graph is parameterized only by the proto.Env
// it runs on and the store.Persister it writes to, so the simulator
// (harness.World, store.Memory) and the live node (rt.Node, store.File)
// run the very same assembly, and a first boot and a reboot are one call.
//
// New never starts the engine: the host installs Replica.Handler as it
// is — the engine applies the first-message rule itself, so no host wraps
// it in a proto.Node — and calls Engine.Start on its own event loop. The
// engine has no stop rule of its own either: a host that runs to a goal
// calls Engine.Close from its commit hook (runner.RunKV on workload
// coverage, minsync-node at -kv-target).
package replica

import (
	"fmt"
	"reflect"

	"repro/internal/kv"
	"repro/internal/log"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/sm"
	"repro/internal/store"
	"repro/internal/types"
	"repro/internal/xtrace"
)

// DefaultCompactKeep is the number of applied instances retained below a
// snapshot boundary when compacting: the echo-service margin for mildly
// lagging peers, sized to the default pipeline depth so an overlapping
// in-flight batch still finds its commands in the content-dedup window.
const DefaultCompactKeep types.Instance = 4

// Config assembles a Replica.
type Config struct {
	// Env is the process environment (required).
	Env proto.Env
	// Persist is the durable store; a nil interface, or a nil pointer
	// inside one (normalised here so no caller needs the typed-nil guard),
	// means volatile. With a persister the applier write-ahead logs every
	// entry and New boots from the medium (a no-op when it is fresh).
	Persist store.Persister
	// Log carries the engine knobs (Engine, BatchSize, Pipeline,
	// MaxLead): there is one engine, so simulator and node differ in
	// nothing else here. Env, OnCommit, OnApply, OnDroppedAhead, Tracer,
	// Metrics, Dedup and Engine.RBMetrics are set by New.
	Log log.Config
	// SnapshotEvery is the applier's snapshot cadence in entries (0 =
	// off); the applier also re-stamps the snapshot after four times as
	// many applied instances without one (sm.Config.SnapshotEvery).
	SnapshotEvery int
	// Compact retires pre-snapshot engine state after each snapshot,
	// keeping CompactKeep applied instances below the boundary
	// (0 = DefaultCompactKeep). Without snapshots it never fires.
	Compact     bool
	CompactKeep types.Instance
	// Transfer wraps the engine in the peer-to-peer snapshot transfer
	// layer (a replica without snapshots can fetch but serves nothing).
	// TransferRetry and TransferProbe override sm.TransferConfig's
	// RetryEvery/StallProbe cadences (0 = the sm defaults).
	Transfer      bool
	TransferRetry types.Duration
	TransferProbe types.Duration
	// Obs, if non-nil, registers the kv/sm/log/dedup/RB/transfer bundles under
	// Labels (`proc="2"`; "" on a live node); nil keeps them private.
	// Registration is idempotent: a rebooted incarnation with the same
	// pair keeps the same cells, so its counts, accessors included, run on
	// from the dead incarnation's.
	Obs    *obs.Registry
	Labels string
	// Tracer, if non-nil, records causal command spans in every layer.
	Tracer *xtrace.Tracer
	// OnCommit fires for every committed entry after the applier consumed
	// it; OnSnapshot after each snapshot (and its compaction); OnResponse
	// with the machine's answer to every applied entry; OnInstall after
	// each peer snapshot install; OnDroppedAhead for every message the
	// engine's MaxLead guard drops, after the transfer layer saw it. None
	// fires during New: the host drives the engine only afterwards.
	OnCommit       func(e log.Entry)
	OnSnapshot     func(s sm.Snapshot)
	OnResponse     func(e log.Entry, resp types.Value)
	OnInstall      func(s sm.Snapshot)
	OnDroppedAhead func(i types.Instance)
}

// Replica is one assembled replica. Like the layers it holds it is
// single-threaded: touch it only from the hosting runtime's event loop.
type Replica struct {
	Store    *kv.Store
	Applier  *sm.Applier
	Engine   *log.Engine
	Transfer *sm.Transfer // nil unless Config.Transfer
	// Boot is what New recovered from Config.Persist (zero when volatile
	// or the medium was fresh).
	Boot sm.BootStats
	// Handler is the message path to install in the runtime: the
	// transfer layer when present, the engine otherwise.
	Handler proto.Handler
}

// New assembles a replica; the engine is constructed and, with a
// persister, resumed at the durable boundary, but not started.
func New(cfg Config) (*Replica, error) {
	if cfg.CompactKeep <= 0 {
		cfg.CompactKeep = DefaultCompactKeep
	}
	// A nil pointer inside the interface would pass every nil check
	// downstream and then panic on the first commit.
	if v := reflect.ValueOf(cfg.Persist); v.Kind() == reflect.Pointer && v.IsNil() {
		cfg.Persist = nil
	}

	r := &Replica{Store: kv.NewStore()}
	r.Store.SetMetrics(obs.NewKVMetrics(cfg.Obs, cfg.Labels))
	var err error
	r.Applier, err = sm.New(sm.Config{
		Machine:       r.Store,
		SnapshotEvery: cfg.SnapshotEvery,
		Persist:       cfg.Persist,
		Metrics:       obs.NewSMMetrics(cfg.Obs, cfg.Labels),
		Tracer:        cfg.Tracer,
		OnResponse:    cfg.OnResponse,
		// Every snapshot captures the engine's retained suffix too, so
		// this replica can serve complete transfer payloads (snapshot +
		// content-dedup window) to lagging or restarted peers. Late-bound:
		// the engine is built from the applier's hooks, and is the only
		// caller of the OnApply that takes snapshots.
		RetainedEntries: func() []log.Entry { return r.Engine.Entries() },
		// Compaction runs inside the hook because the applier copies the
		// retained suffix right after it returns: the copy must be the
		// post-compaction dedup window every replica carries forward.
		OnSnapshot: func(s sm.Snapshot) {
			if cfg.Compact {
				r.Engine.Compact(s.Instance - cfg.CompactKeep)
			}
			if cfg.OnSnapshot != nil {
				cfg.OnSnapshot(s)
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}

	lc := cfg.Log
	lc.Env = cfg.Env
	lc.Tracer = cfg.Tracer
	lc.Metrics = obs.NewLogMetrics(cfg.Obs, cfg.Labels)
	lc.Dedup = obs.NewDedupMetrics(cfg.Obs, cfg.Labels)
	lc.Engine.RBMetrics = obs.NewRBMetrics(cfg.Obs, cfg.Labels)
	lc.OnCommit = r.Applier.OnCommit
	if cfg.OnCommit != nil {
		lc.OnCommit = func(e log.Entry) {
			r.Applier.OnCommit(e)
			cfg.OnCommit(e)
		}
	}
	lc.OnApply = r.Applier.OnApply
	if cfg.Transfer || cfg.OnDroppedAhead != nil {
		// Late-bound like RetainedEntries: the transfer layer wraps the
		// engine, so it exists only after it.
		lc.OnDroppedAhead = func(i types.Instance) {
			if r.Transfer != nil {
				r.Transfer.OnDroppedAhead(i)
			}
			if cfg.OnDroppedAhead != nil {
				cfg.OnDroppedAhead(i)
			}
		}
	}
	if r.Engine, err = log.New(lc); err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	r.Handler = r.Engine

	if cfg.Persist != nil {
		// Install the stamped snapshot, replay the WAL suffix into the
		// machine and resume the ordering layer at the durable boundary —
		// before Engine.Start, without asking a peer for anything.
		if r.Boot, err = sm.Boot(cfg.Persist, r.Applier, r.Engine); err != nil {
			return nil, fmt.Errorf("replica: boot: %w", err)
		}
	}
	if cfg.Transfer {
		r.Transfer, err = sm.NewTransfer(sm.TransferConfig{
			Env:        cfg.Env,
			Applier:    r.Applier,
			Log:        r.Engine,
			Next:       r.Engine,
			RetryEvery: cfg.TransferRetry,
			StallProbe: cfg.TransferProbe,
			OnInstall:  cfg.OnInstall,
			Metrics:    obs.NewTransferMetrics(cfg.Obs, cfg.Labels),
		})
		if err != nil {
			return nil, fmt.Errorf("replica: %w", err)
		}
		r.Handler = r.Transfer
	}
	return r, nil
}
