package scenario

import (
	"sort"
	"time"

	"repro/internal/network"
	"repro/internal/types"
)

// registry holds the curated named scenarios. Keep entries small enough
// that the whole matrix runs in seconds: CI sweeps it across seeds.
var registry = []Spec{
	// --- Single-shot consensus, full synchrony: the fault gauntlet ------
	{
		Name: "baseline-sync", Desc: "n=4 full synchrony, no faults",
		N: 4, T: 1, M: 2,
		Net: Net{Kind: NetFull}, Work: Work{Kind: WorkConsensus},
		ExpectTermination: true,
	},
	{
		Name: "sync-silent", Desc: "n=4 full synchrony, one crash-from-start",
		N: 4, T: 1, M: 2,
		Faults: []Fault{{Kind: FaultSilent}},
		Net:    Net{Kind: NetFull}, Work: Work{Kind: WorkConsensus},
		ExpectTermination: true,
	},
	{
		Name: "sync-relay-only", Desc: "n=4 full synchrony, one RB-relay-only mute",
		N: 4, T: 1, M: 2,
		Faults: []Fault{{Kind: FaultRelayOnly}},
		Net:    Net{Kind: NetFull}, Work: Work{Kind: WorkConsensus},
		ExpectTermination: true,
	},
	{
		Name: "sync-crash-mid", Desc: "n=4 full synchrony, omission failure at 40ms",
		N: 4, T: 1, M: 2,
		Faults: []Fault{{Kind: FaultCrashAt, After: 40 * time.Millisecond}},
		Net:    Net{Kind: NetFull}, Work: Work{Kind: WorkConsensus},
		ExpectTermination: true,
	},
	{
		Name: "sync-equivocate", Desc: "n=4 full synchrony, per-receiver equivocation",
		N: 4, T: 1, M: 2,
		Faults: []Fault{{Kind: FaultEquivocate}},
		Net:    Net{Kind: NetFull}, Work: Work{Kind: WorkConsensus},
		ExpectTermination: true,
	},
	{
		Name: "sync-mute-coordinator", Desc: "n=4 full synchrony, coordinator withholds EA_COORD",
		N: 4, T: 1, M: 2,
		Faults: []Fault{{Kind: FaultMuteCoordinator}},
		Net:    Net{Kind: NetFull}, Work: Work{Kind: WorkConsensus},
		ExpectTermination: true,
	},
	{
		Name: "sync-poison-coordinator", Desc: "n=4 full synchrony, unproposed value championed",
		N: 4, T: 1, M: 2,
		Faults: []Fault{{Kind: FaultPoison}},
		Net:    Net{Kind: NetFull}, Work: Work{Kind: WorkConsensus},
		ExpectTermination: true,
	},
	{
		Name: "sync-random-byz", Desc: "n=4 full synchrony, seeded random drops and flips",
		N: 4, T: 1, M: 2,
		Faults: []Fault{{Kind: FaultRandom}},
		Net:    Net{Kind: NetFull}, Work: Work{Kind: WorkConsensus},
		ExpectTermination: true,
	},
	{
		Name: "sync-spam", Desc: "n=4 full synchrony, protocol-message flood",
		N: 4, T: 1, M: 2,
		Faults: []Fault{{Kind: FaultSpam}},
		Net:    Net{Kind: NetFull}, Work: Work{Kind: WorkConsensus},
		ExpectTermination: true,
	},
	{
		Name: "sync-fake-decide", Desc: "n=4 full synchrony, forged DECIDE broadcast",
		N: 4, T: 1, M: 2,
		Faults: []Fault{{Kind: FaultFakeDecide}},
		Net:    Net{Kind: NetFull}, Work: Work{Kind: WorkConsensus},
		ExpectTermination: true,
	},
	{
		Name: "n7-double-fault", Desc: "n=7 t=2, silent + equivocator together",
		N: 7, T: 2, M: 2,
		Faults: []Fault{{Kind: FaultSilent}, {Kind: FaultEquivocate}},
		Net:    Net{Kind: NetFull}, Work: Work{Kind: WorkConsensus},
		ExpectTermination: true,
	},
	{
		Name: "n7-spam-poison", Desc: "n=7 t=2, spammer + poison coordinator",
		N: 7, T: 2, M: 2,
		Faults: []Fault{{Kind: FaultSpam}, {Kind: FaultPoison}},
		Net:    Net{Kind: NetFull}, Work: Work{Kind: WorkConsensus},
		ExpectTermination: true,
	},

	// --- Degraded synchrony: eventual, minimal bisource, splitter -------
	{
		Name: "eventual-silent", Desc: "n=4 ◇synchrony (GST 150ms), one silent",
		N: 4, T: 1, M: 2,
		Faults: []Fault{{Kind: FaultSilent}},
		Net:    Net{Kind: NetEventual}, Work: Work{Kind: WorkConsensus},
		ExpectTermination: true,
	},
	{
		Name: "bisource-minimal", Desc: "n=4, single planted ◇⟨t+1⟩bisource, rest async, one silent",
		N: 4, T: 1, M: 2,
		Faults: []Fault{{Kind: FaultSilent}},
		Net:    Net{Kind: NetBisource}, Work: Work{Kind: WorkConsensus},
		ExpectTermination: true,
	},
	{
		Name: "bisource-equivocate", Desc: "n=4 minimal bisource, equivocator",
		N: 4, T: 1, M: 2,
		Faults: []Fault{{Kind: FaultEquivocate}},
		Net:    Net{Kind: NetBisource}, Work: Work{Kind: WorkConsensus},
		ExpectTermination: true,
	},
	{
		Name: "bisource-splitter", Desc: "n=4 minimal bisource vs the ConsensusSplitter schedule",
		N: 4, T: 1, M: 2,
		Faults: []Fault{{Kind: FaultSilent}},
		Net: Net{
			Kind: NetBisource, Splitter: true,
			Bisource: bisrc(2, []types.ProcID{1}, []types.ProcID{3}),
		},
		Work:              Work{Kind: WorkConsensus},
		ExpectTermination: true,
		MaxRounds:         200,
	},
	{
		Name: "async-safety", Desc: "n=4 no synchrony at all: safety must hold, liveness is off the table",
		N: 4, T: 1, M: 2,
		Faults: []Fault{{Kind: FaultEquivocate}},
		Net:    Net{Kind: NetAsync}, Work: Work{Kind: WorkConsensus},
	},

	// --- Partitions that heal and hostile delay distributions -----------
	{
		Name: "partition-heal", Desc: "n=4 ◇synchrony, {1,2}|{3,4} partition healing at GST",
		N: 4, T: 1, M: 2,
		Net:               Net{Kind: NetEventual, GST: 120 * time.Millisecond, PartitionCut: 2},
		Work:              Work{Kind: WorkConsensus},
		ExpectTermination: true,
	},
	{
		Name: "bisource-partition-heal", Desc: "n=7 t=2 minimal bisource, 3|4 partition healing before GST",
		N: 7, T: 2, M: 2,
		Faults: []Fault{{Kind: FaultSilent}},
		Net: Net{
			Kind: NetBisource, GST: 200 * time.Millisecond,
			PartitionCut: 3, HealAt: 150 * time.Millisecond,
		},
		Work:              Work{Kind: WorkConsensus},
		ExpectTermination: true,
	},
	{
		Name: "jitter-classes", Desc: "n=4 ◇synchrony with per-link fast/mid/slow delay classes",
		N: 4, T: 1, M: 2,
		Faults:            []Fault{{Kind: FaultSilent}},
		Net:               Net{Kind: NetEventual, GST: 100 * time.Millisecond, Jitter: JitterClasses},
		Work:              Work{Kind: WorkConsensus},
		ExpectTermination: true,
	},
	{
		Name: "reorder-storm", Desc: "n=4 ◇synchrony, bursty delays + spam: aggressive reordering",
		N: 4, T: 1, M: 2,
		Faults:            []Fault{{Kind: FaultSpam}},
		Net:               Net{Kind: NetEventual, Jitter: JitterBursty},
		Work:              Work{Kind: WorkConsensus},
		ExpectTermination: true,
	},

	// --- §7 ⊥-validity variant ------------------------------------------
	{
		Name: "botmode-poison", Desc: "n=4 ⊥-variant, poison coordinator",
		N: 4, T: 1, M: 2,
		Faults:            []Fault{{Kind: FaultPoison}},
		Net:               Net{Kind: NetFull},
		Work:              Work{Kind: WorkConsensus, BotMode: true},
		ExpectTermination: true,
	},
	{
		Name: "botmode-many-values", Desc: "n=4 ⊥-variant with m=4 values (infeasible without ⊥)",
		N: 4, T: 1, M: 4,
		Net:               Net{Kind: NetFull},
		Work:              Work{Kind: WorkConsensus, BotMode: true, Values: []types.Value{"a", "b", "c", "d"}},
		ExpectTermination: true,
	},

	// --- Replicated-log workloads ---------------------------------------
	{
		Name: "log-baseline", Desc: "n=4 full synchrony, 24 commands, batch 8 × pipeline 2",
		N: 4, T: 1, M: 1,
		Net:               Net{Kind: NetFull},
		Work:              Work{Kind: WorkLog, Commands: 24},
		ExpectTermination: true,
	},
	{
		Name: "log-silent-replica", Desc: "n=4 log with one silent replica",
		N: 4, T: 1, M: 1,
		Faults:            []Fault{{Kind: FaultSilent}},
		Net:               Net{Kind: NetFull},
		Work:              Work{Kind: WorkLog, Commands: 24},
		ExpectTermination: true,
	},
	{
		Name: "log-deep-pipeline", Desc: "n=4 log, batch 4 × pipeline 8, staggered submissions",
		N: 4, T: 1, M: 1,
		Net: Net{Kind: NetFull},
		Work: Work{
			Kind: WorkLog, Commands: 32, BatchSize: 4, Pipeline: 8,
			SubmitEvery: time.Millisecond,
		},
		ExpectTermination: true,
	},
	{
		Name: "log-partition-heal", Desc: "n=4 log across a healing partition",
		N: 4, T: 1, M: 1,
		Net:               Net{Kind: NetEventual, GST: 100 * time.Millisecond, PartitionCut: 2},
		Work:              Work{Kind: WorkLog, Commands: 16},
		ExpectTermination: true,
	},
	{
		Name: "log-jitter-classes", Desc: "n=4 log under per-link delay classes with a silent replica",
		N: 4, T: 1, M: 1,
		Faults:            []Fault{{Kind: FaultSilent}},
		Net:               Net{Kind: NetEventual, GST: 80 * time.Millisecond, Jitter: JitterClasses},
		Work:              Work{Kind: WorkLog, Commands: 16},
		ExpectTermination: true,
	},

	// --- Relay-hostile log workloads (rb.Relay) --------------------------
	// The same total-order properties as the log-* family under the
	// schedules and the adversary that stress the coalescing relay —
	// pinning that vector framing, echo-by-hash and the pull path
	// reproduce byte-identical commits there. (Every log/KV scenario runs
	// the relay; these are the ones aimed at it.)
	{
		Name: "rb-coalesce-async", Desc: "n=4 log, fully asynchronous (safety only)",
		N: 4, T: 1, M: 1,
		Net:  Net{Kind: NetAsync},
		Work: Work{Kind: WorkLog, Commands: 16},
	},
	{
		Name: "rb-coalesce-bisource", Desc: "n=4 log, minimal bisource, one silent replica",
		N: 4, T: 1, M: 1,
		Faults:            []Fault{{Kind: FaultSilent}},
		Net:               Net{Kind: NetBisource},
		Work:              Work{Kind: WorkLog, Commands: 16},
		ExpectTermination: true,
	},
	{
		Name: "rb-coalesce-hashspam", Desc: "n=4 log vs forged-vector hash equivocation",
		N: 4, T: 1, M: 1,
		Faults:            []Fault{{Kind: FaultHashEquivocate}},
		Net:               Net{Kind: NetFull},
		Work:              Work{Kind: WorkLog, Commands: 24},
		ExpectTermination: true,
	},

	// --- Replicated KV service (log → applier → store) ------------------
	{
		Name: "kv-mixed", Desc: "n=4 KV service, mixed read/write, snapshots + compaction",
		N: 4, T: 1, M: 1,
		Net: Net{Kind: NetFull},
		Work: Work{
			Kind: WorkKV, Commands: 36,
			SnapshotEvery: 8, Compact: true, CompactKeep: 2,
		},
		ExpectTermination: true,
	},
	{
		Name: "kv-hot-key", Desc: "n=4 KV with 70% hot-key skew and a silent replica, ◇synchrony",
		N: 4, T: 1, M: 1,
		Faults: []Fault{{Kind: FaultSilent}},
		Net:    Net{Kind: NetEventual, GST: 100 * time.Millisecond},
		Work: Work{
			Kind: WorkKV, Commands: 32, HotKey: true, Keys: 6,
			SnapshotEvery: 10, Compact: true, CompactKeep: 2,
		},
		ExpectTermination: true,
	},
	{
		Name: "kv-sessions", Desc: "n=4 session-heavy KV: client retries + out-of-order seqs under aggressive compaction",
		N: 4, T: 1, M: 1,
		Net: Net{Kind: NetFull},
		Work: Work{
			Kind: WorkKV, Commands: 40, Clients: 4, BatchSize: 4,
			Retries: 5, OutOfOrder: true,
			SnapshotEvery: 6, Compact: true, CompactKeep: 1,
			SubmitEvery: 500 * time.Microsecond,
		},
		ExpectTermination: true,
	},
	{
		Name: "kv-snapshot-recover", Desc: "n=4 KV, one replica crash-recovers from its stamped snapshot + WAL suffix mid-run",
		N: 4, T: 1, M: 1,
		Net: Net{Kind: NetFull},
		Work: Work{
			Kind: WorkKV, Commands: 48, BatchSize: 4,
			SnapshotEvery: 6, Compact: true, CompactKeep: 2,
			SubmitEvery: time.Millisecond,
			Durable:     true, CrashRestartAt: 300 * time.Millisecond, RestartDelay: 4 * time.Millisecond,
		},
		ExpectTermination: true,
	},
	{
		Name: "kv-partition-heal", Desc: "n=4 KV service across a healing partition, equivocator, compaction on",
		N: 4, T: 1, M: 1,
		Faults: []Fault{{Kind: FaultEquivocate}},
		Net:    Net{Kind: NetEventual, GST: 100 * time.Millisecond, PartitionCut: 2},
		Work: Work{
			Kind: WorkKV, Commands: 24,
			SnapshotEvery: 8, Compact: true, CompactKeep: 2,
		},
		ExpectTermination: true,
	},
	{
		Name: "kv-long-compaction", Desc: "n=4 long KV run: bounded retained state is the property under test",
		N: 4, T: 1, M: 1,
		Net: Net{Kind: NetFull},
		Work: Work{
			Kind: WorkKV, Commands: 120, BatchSize: 4, Pipeline: 2,
			SnapshotEvery: 8, Compact: true, CompactKeep: 2,
		},
		ExpectTermination: true,
	},

	// --- Demand-driven starts: idle, then a burst ------------------------
	// One command every 500 ms, each a burst of its own (the workload
	// vocabulary has one uniform SubmitEvery). For its 64 frames — 640 ms,
	// through the first two commands — the Byzantine process names an
	// instance every 10 ms and the join rule makes the correct replicas
	// propose in each; every later command then finds a cluster silent for
	// longer than any timer and must open exactly the instance it needs.
	// TestKVIdleBurst counts the instances and checks the silences.
	{
		Name: "kv-idle-burst", Desc: "n=4 KV: lone commands 500 ms apart into an idle cluster while a hash-equivocator names 64 instances",
		N: 4, T: 1, M: 1,
		Faults: []Fault{{Kind: FaultHashEquivocate, After: 72 * time.Millisecond}},
		Net:    Net{Kind: NetFull, Delta: 2 * time.Millisecond},
		Work: Work{
			Kind: WorkKV, Commands: 6, Pipeline: 4,
			SubmitEvery: 500 * time.Millisecond,
		},
		ExpectTermination: true,
	},

	// --- Snapshot state transfer between replicas ------------------------
	// A severing partition (PartitionDrop) loses the victim's traffic for
	// good — modeling a crashed/disconnected replica — while the majority
	// keeps ordering, snapshotting and compacting. By heal time, replay is
	// impossible by construction: the victim's MaxLead horizon dropped the
	// live stream and the peers retired the instances it would need. Only
	// a peer snapshot install (sm.Transfer) can reconverge it; the
	// KV-Transfer property pins exactly that.
	{
		Name: "kv-lag-transfer", Desc: "n=4 KV: replica severed past the replay horizon rejoins via snapshot transfer",
		N: 4, T: 1, M: 1,
		Net: Net{
			Kind:         NetFull,
			PartitionCut: 1, PartitionDrop: true, HealAt: 250 * time.Millisecond,
		},
		Work: Work{
			Kind: WorkKV, Commands: 96, BatchSize: 2, Pipeline: 2,
			SubmitEvery:   2 * time.Millisecond,
			SnapshotEvery: 1, Compact: true, CompactKeep: 1,
			Transfer: true, MaxLead: 4,
		},
		ExpectTermination: true,
	},
	// The chunk-loss variant fattens the machine state (ValueBytes) until
	// the transfer payload spans several chunks, then destroys every
	// second chunk frame mid-download (ChunkDropEvery). The laggard must
	// notice the holes and re-request exactly the missing ranges;
	// KV-ChunkLoss proves frames really were lost, KV-Transfer that the
	// sync still converged.
	{
		Name: "transfer-chunk-loss", Desc: "n=4 KV: multi-chunk snapshot sync completes despite every 2nd chunk frame lost",
		N: 4, T: 1, M: 1,
		Net: Net{
			Kind:         NetFull,
			PartitionCut: 1, PartitionDrop: true, HealAt: 250 * time.Millisecond,
			ChunkDropEvery: 2, ChunkDropUntil: 450 * time.Millisecond,
		},
		Work: Work{
			Kind: WorkKV, Commands: 96, BatchSize: 2, Pipeline: 2,
			Keys: 10, ValueBytes: 96 << 10,
			SubmitEvery:   2 * time.Millisecond,
			SnapshotEvery: 4, Compact: true, CompactKeep: 1,
			Transfer: true, MaxLead: 4,
		},
		ExpectTermination: true,
	},
	{
		Name: "kv-lag-transfer-n7", Desc: "n=7 t=2 KV lag transfer: installs need t+1=3 corroborating peers",
		N: 7, T: 2, M: 1,
		Net: Net{
			Kind:         NetFull,
			PartitionCut: 1, PartitionDrop: true, HealAt: 250 * time.Millisecond,
		},
		Work: Work{
			Kind: WorkKV, Commands: 72, BatchSize: 3, Pipeline: 2,
			SubmitEvery:   2 * time.Millisecond,
			SnapshotEvery: 1, Compact: true, CompactKeep: 1,
			Transfer: true, MaxLead: 4,
		},
		ExpectTermination: true,
	},

	// --- Durable storage: crash-restart from the replica's own disk ------
	// A full power cycle mid-stream (harness.World.Kill): volatile state,
	// timers and dedup bookkeeping die with the incarnation, and the
	// reboot reads ONLY the replica's durable store (sm.Boot). The 4ms
	// blackout is shorter than one consensus decision at the 10ms
	// TimeUnit, so an instance decided while the replica was dark still
	// reaches it afterwards: t+1 of its peers' DECIDEs arrive after the
	// reboot, it forwards its own, and that makes 2t+1. The transfer
	// layer is armed precisely to prove it stays idle; an instant where
	// more DECIDEs fell into the blackout needs a peer snapshot instead,
	// and TestCrashInstantSweep's table names those instants (none is
	// the 150 ms used here). KV-Durable pins "applied ⊇ fsync'd" on top.
	{
		Name: "kv-crash-restart", Desc: "n=4 durable KV: replica power-cycled mid-stream reboots from disk, zero peer transfers",
		N: 4, T: 1, M: 1,
		Net: Net{Kind: NetFull, Delta: 2 * time.Millisecond},
		Work: Work{
			Kind: WorkKV, Commands: 80,
			SubmitEvery:   time.Millisecond,
			SnapshotEvery: 8, Compact: true, CompactKeep: 2,
			Durable: true, CrashRestartAt: 150 * time.Millisecond, RestartDelay: 4 * time.Millisecond,
			Transfer: true,
		},
		ExpectTermination: true,
	},
	{
		Name: "kv-crash-restart-n7", Desc: "n=7 t=2 durable KV crash-restart beside a silent replica",
		N: 7, T: 2, M: 1,
		Faults: []Fault{{Kind: FaultSilent}},
		Net:    Net{Kind: NetFull, Delta: 2 * time.Millisecond},
		Work: Work{
			Kind: WorkKV, Commands: 70,
			SubmitEvery:   time.Millisecond,
			SnapshotEvery: 8, Compact: true, CompactKeep: 2,
			Durable: true, CrashRestartAt: 150 * time.Millisecond, RestartDelay: 4 * time.Millisecond,
			Transfer: true,
		},
		ExpectTermination: true,
	},
}

// bisrc is a registry-literal helper for explicit bisource placement
// (GST/Delta stay zero and inherit the Net defaults).
func bisrc(p types.ProcID, in, out []types.ProcID) network.BisourceSpec {
	return network.BisourceSpec{P: p, In: in, Out: out}
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for _, s := range registry {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}

// All returns the registered scenarios in registry (curation) order.
func All() []Spec {
	out := make([]Spec, len(registry))
	copy(out, registry)
	return out
}

// Get returns the named scenario.
func Get(name string) (Spec, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
