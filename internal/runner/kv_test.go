package runner

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/harness"
	"repro/internal/kv"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/types"
)

// kvWorkload builds n session-carrying commands spread over `clients`
// clients and `keys` keys, with a deterministic op mix.
func kvWorkload(n, clients, keys int) []kv.Command {
	cmds := make([]kv.Command, 0, n)
	seqs := make(map[uint64]uint64, clients)
	for i := 0; i < n; i++ {
		client := uint64(i%clients + 1)
		seqs[client]++
		c := kv.Command{Client: client, Seq: seqs[client], Key: fmt.Sprintf("key-%02d", (i*7)%keys)}
		switch i % 5 {
		case 3:
			c.Op = kv.OpGet
		case 4:
			c.Op = kv.OpDel
		default:
			c.Op = kv.OpPut
			c.Val = fmt.Sprintf("val-%04d", i)
		}
		cmds = append(cmds, c)
	}
	return cmds
}

func kvSpec(n, ncmds int, seed int64) KVSpec {
	spec := KVSpec{
		Params:   types.Params{N: n, T: (n - 1) / 3},
		Topology: network.FullySynchronous(n, types.Duration(2*time.Millisecond)),
		Seed:     seed,
		Commands: kvWorkload(ncmds, 3, 8),
		Deadline: types.Time(10 * time.Minute),
	}
	spec.Log.Engine.TimeUnit = types.Duration(10 * time.Millisecond)
	spec.Log.BatchSize = 8
	spec.Log.Pipeline = 2
	return spec
}

func TestKVStateAgreesAcrossReplicas(t *testing.T) {
	spec := kvSpec(4, 40, 1)
	spec.SnapshotEvery = 10
	res, err := RunKV(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCommitted(40) {
		t.Fatalf("only %d commands committed everywhere", res.MinCommitted())
	}
	if !res.Consistent() {
		t.Fatal("logs inconsistent")
	}
	if !res.StatesAgree() {
		t.Fatal("state digests disagree")
	}
	if d := res.ReferenceDivergence(); d != "" {
		t.Fatal(d)
	}
	ref := res.StateDigests[res.Correct[0]]
	for _, id := range res.Correct[1:] {
		if res.StateDigests[id] != ref {
			t.Fatalf("replica %v state digest differs", id)
		}
	}
	for _, id := range res.Correct {
		if len(res.SnapshotLog[id]) == 0 {
			t.Fatalf("replica %v took no snapshots", id)
		}
	}
	if !res.SnapshotsAgree() {
		t.Fatal("snapshot digests disagree at common indexes")
	}
}

// TestKVCompactionBoundsState: with compaction on, a long run retires
// instance engines, dedup sub-maps and entry prefixes; retained state
// stays bounded instead of growing with the log.
func TestKVCompactionBoundsState(t *testing.T) {
	spec := kvSpec(4, 120, 3)
	spec.Log.BatchSize = 4 // more instances
	spec.SnapshotEvery = 8
	spec.Compact = true
	spec.CompactKeep = 2
	res, err := RunKV(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCommitted(120) || !res.Consistent() || !res.StatesAgree() {
		t.Fatalf("run degraded: committed=%d consistent=%v states=%v",
			res.MinCommitted(), res.Consistent(), res.StatesAgree())
	}
	for _, id := range res.Correct {
		eng := res.Engines[id]
		if eng.Retired() == 0 {
			t.Fatalf("replica %v retired no instances", id)
		}
		if eng.Floor() == 0 {
			t.Fatalf("replica %v never advanced its floor", id)
		}
		// Live per-instance state must be a small margin, not the whole
		// run: floor trails the applied point by at most keep + snapshot
		// window, and everything below it is gone.
		live := eng.Instances()
		total := int(eng.Applied())
		if live >= total {
			t.Fatalf("replica %v holds %d live instances of %d applied (nothing retired?)", id, live, total)
		}
		if eng.EntriesBase() == 0 {
			t.Fatalf("replica %v trimmed no entries", id)
		}
	}
}

// TestKVClientRetriesStayExactlyOnce: the workload carries retries — a
// byte-identical duplicate and a re-encoded duplicate of the same
// (client, seq) — under compaction aggressive enough that the log's
// content dedup can forget the originals. The session layer must keep
// the state machine exactly-once everywhere.
func TestKVClientRetriesStayExactlyOnce(t *testing.T) {
	base := kvWorkload(60, 3, 8)
	cmds := make([]kv.Command, 0, len(base)+20)
	for i, c := range base {
		cmds = append(cmds, c)
		if i%6 == 2 {
			cmds = append(cmds, c) // byte-identical retry
		}
		if i%6 == 5 && c.Op == kv.OpPut {
			retry := c
			retry.Val = c.Val + "-retry" // re-encoded retry, same (client, seq)
			cmds = append(cmds, retry)
		}
	}
	// Content dedup absorbs a byte-identical retry before the session
	// layer sees it, and a re-encoded mid-workload retry usually lands as
	// stale (its client has moved on). A re-encoded retry of each client's
	// FINAL command is the guaranteed cache hit: nothing later advances
	// the watermark, so whichever copy applies second is a duplicate.
	last := make(map[uint64]kv.Command)
	for _, c := range base {
		last[c.Client] = c
	}
	for client := uint64(1); client <= 3; client++ {
		retry := last[client]
		retry.Val += "#tail-retry"
		cmds = append(cmds, retry)
	}
	spec := kvSpec(4, 1, 5)
	spec.Commands = cmds
	spec.Log.BatchSize = 4
	spec.SnapshotEvery = 6
	spec.Compact = true
	spec.CompactKeep = 2
	spec.SubmitEvery = types.Duration(500 * time.Microsecond)
	res, err := RunKV(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent() || !res.StatesAgree() {
		t.Fatal("retries broke consistency")
	}
	if d := res.ReferenceDivergence(); d != "" {
		t.Fatal(d)
	}
	ref := res.Correct[0]
	store := res.Stores[ref]
	if store.Duplicates() == 0 {
		t.Fatal("no duplicate suppression observed — the retry workload did not exercise sessions")
	}
	// Sequential oracle over the committed log gives the authoritative
	// apply/dup counts; every replica's live store must match it exactly.
	oracle := kv.NewStore()
	for _, e := range res.Logs[ref] {
		oracle.Apply(e.Cmd)
	}
	for _, id := range res.Correct {
		s := res.Stores[id]
		if s.Applies() != oracle.Applies() || s.Duplicates() != oracle.Duplicates() || s.Stales() != oracle.Stales() {
			t.Fatalf("replica %v counters (%d,%d,%d) != oracle (%d,%d,%d)",
				id, s.Applies(), s.Duplicates(), s.Stales(),
				oracle.Applies(), oracle.Duplicates(), oracle.Stales())
		}
	}
}

// TestKVRecoverMidRun: a replica loses power mid-run with compaction on
// and NO transfer layer to fall back on, and recovers from its own store
// alone — stamped snapshot plus write-ahead suffix — while the others
// never notice.
func TestKVRecoverMidRun(t *testing.T) {
	spec := kvSpec(4, 80, 7)
	spec.SnapshotEvery = 8
	spec.Compact = true
	spec.SubmitEvery = types.Duration(time.Millisecond)
	spec.Durable = true
	spec.CrashRestart = map[types.ProcID]types.Time{2: types.Time(150 * time.Millisecond)}
	spec.RestartDelay = types.Duration(4 * time.Millisecond)
	res, err := RunKV(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.BootErrs[2]; err != nil {
		t.Fatalf("recover failed: %v", err)
	}
	if st := res.Boots[2]; !st.HadSnapshot || st.Boundary == 0 {
		t.Fatalf("recovery did not run from a snapshot: %+v", st)
	}
	if len(res.ApplierErrs) != 0 {
		t.Fatalf("poisoned appliers: %v", res.ApplierErrs)
	}
	if !res.CoveredAll() || !res.Consistent() || !res.StatesAgree() {
		t.Fatalf("post-recovery run degraded: covered=%v consistent=%v states=%v",
			res.Covered, res.Consistent(), res.StatesAgree())
	}
}

func TestKVSilentReplica(t *testing.T) {
	spec := kvSpec(4, 40, 11)
	spec.SnapshotEvery = 10
	spec.Compact = true
	spec.Byzantine = map[types.ProcID]harness.Behavior{4: adversary.Silent()}
	res, err := RunKV(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCommitted(40) || !res.Consistent() || !res.StatesAgree() {
		t.Fatalf("faulty run degraded: committed=%d consistent=%v states=%v",
			res.MinCommitted(), res.Consistent(), res.StatesAgree())
	}
}

// TestKVDeterministicReplay: same spec, same seed ⇒ identical state
// digests and snapshot logs.
func TestKVDeterministicReplay(t *testing.T) {
	run := func() *KVResult {
		spec := kvSpec(4, 40, 13)
		spec.SnapshotEvery = 10
		spec.Compact = true
		res, err := RunKV(spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for _, id := range a.Correct {
		if a.StateDigests[id] != b.StateDigests[id] {
			t.Fatalf("replica %v digests differ across identical runs", id)
		}
		if len(a.SnapshotLog[id]) != len(b.SnapshotLog[id]) {
			t.Fatalf("replica %v snapshot counts differ", id)
		}
	}
}

func TestKVSpecValidation(t *testing.T) {
	spec := kvSpec(4, 10, 1)
	spec.Compact = true // without SnapshotEvery
	if _, err := RunKV(spec); err == nil {
		t.Fatal("Compact without SnapshotEvery accepted")
	}
	spec = kvSpec(4, 10, 1)
	spec.Commands = nil
	if _, err := RunKV(spec); err == nil {
		t.Fatal("empty workload accepted")
	}
}

// TestKVLagTransfer: a replica severed by a dropping partition until the
// cluster has compacted past its replay horizon must reconverge through
// peer snapshot transfer — byte-identical state at an identical applied
// count, with the transfer counters proving the path taken.
func TestKVLagTransfer(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		spec := kvSpec(4, 60, seed)
		spec.Commands = kvWorkload(60, 3, 8)
		spec.SubmitEvery = types.Duration(2 * time.Millisecond)
		spec.SnapshotEvery = 1
		spec.Compact = true
		spec.CompactKeep = 1
		spec.Transfer = true
		spec.Target = 60
		spec.Log.BatchSize = 2
		spec.Log.MaxLead = 4
		spec.Adv = &adversary.DroppingPartition{
			Side:   map[types.ProcID]int{1: 1},
			HealAt: types.Time(250 * time.Millisecond),
		}
		res, err := RunKV(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Transfers[1] == 0 {
			t.Fatalf("seed %d: severed replica installed no snapshot", seed)
		}
		served := 0
		for _, id := range res.Correct {
			served += res.TransferServed[id]
		}
		if served == 0 {
			t.Fatalf("seed %d: no peer served a snapshot", seed)
		}
		if res.Engines[1].DroppedAhead() == 0 {
			t.Fatalf("seed %d: the severed replica never crossed the replay horizon", seed)
		}
		if !res.Consistent() {
			t.Fatalf("seed %d: logs inconsistent", seed)
		}
		if d := res.ReferenceDivergence(); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
		ref := res.Correct[1] // full-history replica
		for _, id := range res.Correct {
			if got, want := res.Appliers[id].Applied(), res.Appliers[ref].Applied(); got != want {
				t.Fatalf("seed %d: replica %v applied %d entries, want %d", seed, id, got, want)
			}
			if res.StateDigests[id] != res.StateDigests[ref] {
				t.Fatalf("seed %d: replica %v state digest diverged", seed, id)
			}
		}
	}
}

// TestKVDurablePassive: attaching durable stores (without crashing
// anything) is passive — the run is byte-identical to a non-durable one —
// while the stores end the run holding a consistent prefix of the
// committed log (DurablePrefix).
func TestKVDurablePassive(t *testing.T) {
	base := func() KVSpec {
		spec := kvSpec(4, 40, 9)
		spec.SubmitEvery = types.Duration(time.Millisecond)
		spec.SnapshotEvery = 10
		spec.Compact = true
		return spec
	}
	plain, err := RunKV(base())
	if err != nil {
		t.Fatal(err)
	}
	spec := base()
	spec.Durable = true
	res, err := RunKV(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range res.Correct {
		if res.StateDigests[id] != plain.StateDigests[id] {
			t.Fatalf("replica %v state diverged under persistence", id)
		}
		if len(res.Logs[id]) != len(plain.Logs[id]) {
			t.Fatalf("replica %v log length diverged under persistence", id)
		}
	}
	if d := res.DurablePrefix(); d != "" {
		t.Fatal(d)
	}
	for _, id := range res.Correct {
		rec, err := res.Durables[id].Recover()
		if err != nil {
			t.Fatal(err)
		}
		if rec.SnapPayload == nil {
			t.Fatalf("replica %v stamped no snapshot", id)
		}
		if rec.Boundary == 0 {
			t.Fatalf("replica %v marked no applied boundary", id)
		}
	}
}

// TestKVCrashRestart: a replica is power-cut mid-stream (volatile state
// gone: engine, applier, dedup dispatcher, timers) and rebooted shortly
// after from its durable store alone. It must resume at its fsync'd
// boundary (applied ⊇ fsync'd), catch the instances decided after its
// reboot through its peers' DECIDEs, and reconverge to the
// cluster state with ZERO peer snapshot installs — the transfer layer is
// armed precisely to prove it stays idle.
func TestKVCrashRestart(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		spec := kvSpec(4, 80, seed)
		spec.SubmitEvery = types.Duration(time.Millisecond)
		spec.SnapshotEvery = 8
		spec.Durable = true
		spec.Transfer = true
		// 150 ms is mid-stream: about six of the run's fourteen instances
		// are applied and a snapshot is stamped, so the store has both to
		// give back.
		spec.CrashRestart = map[types.ProcID]types.Time{2: types.Time(150 * time.Millisecond)}
		spec.RestartDelay = types.Duration(4 * time.Millisecond)
		spec.Obs = obs.NewRegistry()
		res, err := RunKV(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.BootErrs[2]; err != nil {
			t.Fatalf("seed %d: reboot failed: %v", seed, err)
		}
		// The rebooted incarnation re-acquires the replica's telemetry
		// cells: the counter covers the commits of BOTH incarnations, not
		// just the ones before the power cut.
		committed := spec.Obs.Counter(obs.WithLabels("minsync_log_committed_total", procLabel(2))).Value()
		if int(committed) != len(res.Logs[2]) {
			t.Fatalf("seed %d: minsync_log_committed_total froze at %d of %d commits across the restart", seed, committed, len(res.Logs[2]))
		}
		st, ok := res.Boots[2]
		if !ok {
			t.Fatalf("seed %d: replica 2 never rebooted", seed)
		}
		if st.Boundary == 0 || !st.HadSnapshot {
			t.Fatalf("seed %d: reboot recovered %+v — crash landed before the store held a boundary and a snapshot", seed, st)
		}
		if !res.CoveredAll() {
			t.Fatalf("seed %d: coverage incomplete after restart: %v of %d", seed, res.Covered, res.Distinct)
		}
		if !res.Consistent() {
			t.Fatalf("seed %d: logs inconsistent", seed)
		}
		if !res.StatesAgree() {
			t.Fatalf("seed %d: state digests disagree after restart", seed)
		}
		if d := res.DurablePrefix(); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
		if d := res.ReferenceDivergence(); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
		// The whole point: the rebooted replica reconverged from disk and
		// live traffic, not from a peer snapshot.
		if res.Transfers[2] != 0 {
			t.Fatalf("seed %d: rebooted replica installed %d peer snapshots", seed, res.Transfers[2])
		}
		for _, id := range res.Correct {
			if res.TransferServed[id] != 0 {
				t.Fatalf("seed %d: replica %v served a snapshot to the rebooted one", seed, id)
			}
		}
	}
}

// TestKVCrashRestartValidation: the reboot reads the durable store, so
// scheduling one without Durable must be rejected.
func TestKVCrashRestartValidation(t *testing.T) {
	spec := kvSpec(4, 10, 1)
	spec.CrashRestart = map[types.ProcID]types.Time{2: types.Time(10 * time.Millisecond)}
	if _, err := RunKV(spec); err == nil {
		t.Fatal("CrashRestart without Durable accepted")
	}
	spec = kvSpec(4, 10, 1)
	spec.Durable = true
	spec.SnapshotEvery = 10
	spec.Byzantine = map[types.ProcID]harness.Behavior{4: adversary.Silent()}
	spec.CrashRestart = map[types.ProcID]types.Time{4: types.Time(10 * time.Millisecond)}
	if _, err := RunKV(spec); err == nil {
		t.Fatal("CrashRestart of a Byzantine process accepted")
	}
}

// TestKVTransferRequiresSnapshots: serving peers need snapshots to serve.
func TestKVTransferRequiresSnapshots(t *testing.T) {
	spec := kvSpec(4, 8, 1)
	spec.Transfer = true
	if _, err := RunKV(spec); err == nil {
		t.Fatal("Transfer without SnapshotEvery accepted")
	}
}

// TestKVObserved: attaching a telemetry registry is passive — the run
// produces identical state and logs — while populating per-replica
// metric series and the shared commit-latency histogram.
func TestKVObserved(t *testing.T) {
	base := func() KVSpec {
		spec := kvSpec(4, 30, 7)
		spec.SubmitEvery = types.Duration(time.Millisecond)
		spec.SnapshotEvery = 8
		spec.Compact = true
		return spec
	}
	plain, err := RunKV(base())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	spec := base()
	spec.Obs = reg
	res, err := RunKV(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CoveredAll() {
		t.Fatalf("coverage incomplete: %v", res.Covered)
	}
	// Passive: byte-identical outcome with and without the registry.
	for _, id := range res.Correct {
		if res.StateDigests[id] != plain.StateDigests[id] {
			t.Fatalf("replica %v state diverged under observation", id)
		}
		if len(res.Logs[id]) != len(plain.Logs[id]) {
			t.Fatalf("replica %v log length diverged under observation", id)
		}
	}
	// Latency: every correct replica observes each distinct command once.
	want := uint64(res.Distinct * len(res.Correct))
	if got := res.CommitLatency.Count(); got != want {
		t.Fatalf("latency observations = %d, want %d", got, want)
	}
	if res.CommitLatency.Quantile(0.5) <= 0 {
		t.Fatal("p50 commit latency is zero")
	}
	// Series: each layer's bundle registered and counted per replica.
	counters := reg.Snapshot().Counters
	for _, id := range res.Correct {
		label := fmt.Sprintf("proc=%q", fmt.Sprint(id))
		for _, base := range []string{
			"minsync_log_committed_total",
			"minsync_sm_applies_total",
			"minsync_kv_applies_total",
			"minsync_rb_delivers_total",
		} {
			name := base + "{" + label + "}"
			if counters[name] == 0 {
				t.Errorf("series %s missing or zero", name)
			}
		}
	}
}

// TestKVPipelineOrdersDistinctBatches pins what lane-striped canonical
// batches buy: 256 commands queued at t=0 with batch 16 are 16 batches,
// and a pipeline of P=4 orders them in about 16 instances. Were every
// in-flight instance to carry the same head-of-queue batch again, P−1 of
// every P instances would commit nothing: ≈ 64 instances, ≈ 48 of them
// no-ops. The 2·P of slack covers the tail, where the lanes run shallow
// and spill into each other.
func TestKVPipelineOrdersDistinctBatches(t *testing.T) {
	const cmds, batch, pipeline = 256, 16, 4
	spec := kvSpec(4, cmds, 11)
	spec.Commands = kvWorkload(cmds, 16, 64)
	spec.Log.BatchSize = batch
	spec.Log.Pipeline = pipeline
	res, err := RunKV(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCommitted(cmds) || !res.Consistent() || !res.StatesAgree() {
		t.Fatalf("run degraded: committed=%d consistent=%v states=%v",
			res.MinCommitted(), res.Consistent(), res.StatesAgree())
	}
	for _, id := range res.Correct {
		eng := res.Engines[id]
		if got, limit := int(eng.Applied()), cmds/batch+2*pipeline; got > limit {
			t.Errorf("replica %v applied %d instances for %d batches, want ≤ %d", id, got, cmds/batch, limit)
		}
		if got := eng.NoOps(); got > 2*pipeline {
			t.Errorf("replica %v applied %d instances that committed nothing, want ≤ %d", id, got, 2*pipeline)
		}
	}
}
