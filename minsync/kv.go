package minsync

import (
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/log"
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

// KVConfig configures one simulated replicated-KV execution: a stream of
// client commands totally ordered by a pipeline of consensus instances
// (each one full execution of the paper's algorithm in its §7 ⊥-validity
// variant), applied by a state-machine applier to a key-value store with
// client sessions — the replica minsync-node runs, on the
// discrete-event simulator.
//
// The client model is the classic BFT one: every command is submitted to
// every correct replica (clients broadcast requests), and the engines
// deduplicate on commit, so overlapping batches are safe.
type KVConfig struct {
	// N, T are the paper's resilience parameters (t < n/3). The m-valued
	// feasibility bound does not apply: log instances run the ⊥-default
	// validity variant.
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
	// Pipeline is the window of consensus instances that may be in flight
	// (default 4); an instance inside it starts only when there is a
	// command to order or a peer opened it. It is also the number of
	// content-hashed lanes the pending commands are striped over, one
	// lane per in-flight instance, so all replicas must agree on it.
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
	// A replica that installs one counts every command the snapshot's
	// sessions already reflect as committed, so engines stop on
	// distinct-command coverage with or without it.
	Transfer bool
	// MaxLead overrides the log engine's replay horizon (0 = default 256).
	MaxLead int
	// Byzantine maps faulty processes to behaviors. The stock single-shot
	// attackers direct their protocol traffic at instance 0; FaultSilent
	// affects every instance.
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
	// MaxRounds caps each instance's round loop (0 = 10× the α·n bound).
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
// simulator: the multi-decision counterpart of Simulate.
func SimulateKV(cfg KVConfig) (*KVResult, error) {
	if len(cfg.Commands) == 0 {
		return nil, fmt.Errorf("minsync: no commands")
	}
	topo, policy, unit := timing(cfg.N, cfg.Synchrony, cfg.MinDelay, cfg.MaxDelay, cfg.TimeUnit)
	ecfg := core.Config{TimeUnit: unit, K: cfg.K, MaxRounds: cfg.MaxRounds}
	byz, err := byzantine(cfg.Byzantine, ecfg, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res, err := runner.RunKV(runner.KVSpec{
		Params:      types.Params{N: cfg.N, T: cfg.T, M: 1},
		Topology:    topo,
		Policy:      policy,
		Seed:        cfg.Seed,
		Commands:    cfg.Commands,
		SubmitEvery: cfg.SubmitEvery,
		Byzantine:   byz,
		Log: log.Config{
			Engine:    ecfg,
			BatchSize: cfg.BatchSize,
			Pipeline:  cfg.Pipeline,
			MaxLead:   types.Instance(cfg.MaxLead),
		},
		SnapshotEvery: cfg.SnapshotEvery,
		Compact:       cfg.Compact,
		CompactKeep:   types.Instance(cfg.CompactKeep),
		Transfer:      cfg.Transfer,
		Deadline:      types.Time(cfg.Deadline),
	})
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
