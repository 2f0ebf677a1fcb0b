package minsync

import (
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/kv"
	"repro/internal/network"
	"repro/internal/runner"
	"repro/internal/types"
)

// KVOp enumerates the replicated key-value store's operations.
type KVOp = kv.Op

// KV operations.
const (
	KVGet = kv.OpGet
	KVPut = kv.OpPut
	KVDel = kv.OpDel
)

// KVCommand is one client request of the replicated KV service. Client 0
// is sessionless; any other client gets exactly-once semantics keyed by
// (Client, Seq).
type KVCommand = kv.Command

// KVResponse is the machine's answer to one command.
type KVResponse = kv.Response

// KVConfig configures one simulated replicated-KV execution: the full
// service stack — replicated log, state-machine applier, key-value store
// with client sessions — on the discrete-event simulator.
type KVConfig struct {
	// N, T are the paper's resilience parameters (t < n/3).
	N, T int
	// Commands is the client workload in submission order. Duplicates
	// (client retries) are allowed — the session layer keeps applies
	// exactly-once.
	Commands []KVCommand
	// SubmitEvery staggers the workload: command k is submitted at time
	// k·SubmitEvery (0 = everything at time 0).
	SubmitEvery time.Duration
	// BatchSize caps commands per proposed batch (default 16).
	BatchSize int
	// Pipeline is the window of consensus instances in flight and the
	// lane count of the batch rule (see LogConfig.Pipeline; default 4).
	Pipeline int
	// SnapshotEvery is the snapshot cadence in applied entries
	// (0 = snapshots off).
	SnapshotEvery int
	// Compact retires pre-snapshot per-instance state after each snapshot
	// (requires SnapshotEvery > 0). CompactKeep retains a margin of
	// applied instances below the boundary (default 4).
	Compact     bool
	CompactKeep int
	// Transfer enables peer snapshot state transfer: a replica that falls
	// more than MaxLead instances behind fetches a t+1-corroborated peer
	// snapshot and resumes from its boundary (requires SnapshotEvery > 0).
	// With Transfer on, engines stop on a raw entry-count target (Target,
	// default len(Commands)) instead of distinct-command coverage.
	Transfer bool
	// MaxLead overrides the log engine's replay horizon (0 = default 256).
	MaxLead int
	// Target, when > 0, stops engines after this many committed entries
	// (only meaningful with Transfer; 0 = len(Commands)).
	Target int
	// Byzantine maps faulty processes to behaviors.
	Byzantine map[ProcID]Fault
	// Synchrony is the network timing model (zero value = FullSynchrony
	// of 5ms).
	Synchrony Synchrony
	// MinDelay/MaxDelay bound the random delays of asynchronous channels
	// (defaults 1ms / 20ms).
	MinDelay, MaxDelay time.Duration
	// Seed drives all randomness.
	Seed int64
	// TimeUnit scales the EA round timers of every instance (default 10ms).
	TimeUnit time.Duration
	// K is the §5.4 tuning parameter.
	K int
	// MaxRounds caps each instance's round loop.
	MaxRounds Round
	// Deadline bounds virtual time (0 = run to completion).
	Deadline time.Duration
}

// KVResult reports one replicated-KV execution.
type KVResult struct {
	// AllCommitted reports whether every correct process committed every
	// DISTINCT workload command (client retries collapse onto one);
	// Consistent is the total-order safety property on the logs.
	AllCommitted bool
	Consistent   bool
	// StatesAgree reports byte-identical machine state across correct
	// replicas (same applied count ⇒ same digest) and byte-identical
	// snapshots at common snapshot indexes.
	StatesAgree bool
	// StateDigest is the hex SHA-256 of the reference replica's final
	// machine state.
	StateDigest string
	// MinCommitted is the smallest distinct-command coverage among
	// correct processes.
	MinCommitted int
	// Keys and Sessions describe the reference replica's final store.
	Keys, Sessions int
	// Applies, Duplicates, Stales are the reference store's session
	// counters: commands applied, retries answered from cache, regressed
	// sequence numbers rejected.
	Applies, Duplicates, Stales uint64
	// Snapshots is the reference replica's snapshot count; Transfers the
	// number of peer snapshots installed across replicas (0 unless
	// KVConfig.Transfer).
	Snapshots, Transfers int
	// RetiredInstances / LiveInstances show compaction at the reference
	// replica: consensus instances released vs still held.
	RetiredInstances, LiveInstances int
	// Messages is the total point-to-point message count; Latency the
	// virtual running time.
	Messages uint64
	Latency  time.Duration
	// Get reads a key from the reference replica's final state.
	Get func(key string) (string, bool)
}

// SimulateKV runs one replicated-KV execution on the discrete-event
// simulator: the service-layer counterpart of SimulateLog.
func SimulateKV(cfg KVConfig) (*KVResult, error) {
	p := types.Params{N: cfg.N, T: cfg.T, M: 1}
	if cfg.Synchrony.topology == nil {
		cfg.Synchrony = FullSynchrony(5 * time.Millisecond)
	}
	if cfg.TimeUnit <= 0 {
		cfg.TimeUnit = 10 * time.Millisecond
	}
	if cfg.MinDelay <= 0 {
		cfg.MinDelay = time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 20 * time.Millisecond
	}
	if len(cfg.Commands) == 0 {
		return nil, fmt.Errorf("minsync: no commands")
	}
	lc := logEngineConfig(LogConfig{
		BatchSize: cfg.BatchSize, Pipeline: cfg.Pipeline,
		TimeUnit: cfg.TimeUnit, K: cfg.K, MaxRounds: cfg.MaxRounds,
	})
	byz, err := byzantine(cfg.Byzantine, lc.Engine, cfg.Seed)
	if err != nil {
		return nil, err
	}
	spec := runner.KVSpec{
		Params:        p,
		Topology:      cfg.Synchrony.topology(cfg.N),
		Policy:        network.UniformDelay{Min: cfg.MinDelay, Max: cfg.MaxDelay},
		Seed:          cfg.Seed,
		Commands:      cfg.Commands,
		SubmitEvery:   cfg.SubmitEvery,
		Byzantine:     byz,
		Log:           lc,
		SnapshotEvery: cfg.SnapshotEvery,
		Compact:       cfg.Compact,
		CompactKeep:   types.Instance(cfg.CompactKeep),
		Transfer:      cfg.Transfer,
		Deadline:      types.Time(cfg.Deadline),
	}
	spec.Log.MaxLead = types.Instance(cfg.MaxLead)
	if cfg.Transfer {
		spec.Target = cfg.Target
		if spec.Target <= 0 {
			spec.Target = len(cfg.Commands)
		}
	}
	res, err := runner.RunKV(spec)
	if err != nil {
		return nil, fmt.Errorf("minsync: %w", err)
	}
	for _, id := range res.Correct {
		if err := res.ApplierErrs[id]; err != nil {
			return nil, fmt.Errorf("minsync: replica %v stopped applying: %w", id, err)
		}
	}
	out := &KVResult{
		AllCommitted: res.CoveredAll(),
		Consistent:   res.Consistent(),
		StatesAgree:  res.StatesAgree(),
		MinCommitted: res.MinCovered(),
		Messages:     res.Messages,
		Latency:      time.Duration(res.End),
	}
	if len(res.Correct) > 0 {
		ref := res.Correct[0]
		store := res.Stores[ref]
		d := res.StateDigests[ref]
		out.StateDigest = hex.EncodeToString(d[:])
		out.Keys = store.Len()
		out.Sessions = store.Sessions()
		out.Applies = store.Applies()
		out.Duplicates = store.Duplicates()
		out.Stales = store.Stales()
		out.Snapshots = res.Appliers[ref].Snapshots()
		if eng := res.Engines[ref]; eng != nil {
			out.RetiredInstances = eng.Retired()
			out.LiveInstances = eng.Instances()
		}
		out.Get = store.Get
	}
	for _, id := range res.Correct {
		out.Transfers += res.Transfers[id]
	}
	return out, nil
}
