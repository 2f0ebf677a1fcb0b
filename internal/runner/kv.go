package runner

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/harness"
	"repro/internal/kv"
	"repro/internal/log"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/replica"
	"repro/internal/sm"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/xtrace"
)

// KVSpec describes one replicated-KV execution on the simulator: every
// correct process runs the full service stack — log.Engine ordering
// commands, sm.Applier consuming them, kv.Store holding state — and the
// same client workload is submitted to all of them (clients broadcast
// requests, the classic BFT model).
//
// The workload may contain duplicate submissions: client retries are the
// point of the session layer, and the whole stack must stay exactly-once
// under them.
type KVSpec struct {
	// Params are the (n, t, m) resilience parameters (m is ignored: log
	// instances run the ⊥-validity variant).
	Params types.Params
	// Topology is the synchrony matrix (nil = fully asynchronous).
	Topology *network.Topology
	// Policy draws async-channel delays (nil = uniform 1–20 ms).
	Policy network.DelayPolicy
	// Adv optionally adversarially overrides async delays.
	Adv network.Adversary
	// FIFO enforces per-channel ordering.
	FIFO bool
	// Seed drives all randomness.
	Seed int64
	// Record keeps the trace log.
	Record bool
	// Commands is the client workload in submission order. Duplicates
	// (retries) are allowed; the reserved key prefixes of the kv codec
	// keep them well-formed.
	Commands []kv.Command
	// SubmitEvery staggers the workload: command k is submitted at time
	// k·SubmitEvery (0 = everything at time 0).
	SubmitEvery types.Duration
	// Byzantine maps faulty processes to behaviors.
	Byzantine map[types.ProcID]harness.Behavior
	// Log carries the engine knobs (Engine, BatchSize, Pipeline, MaxLead).
	// Env, OnCommit and OnApply are set by the runner, which closes each
	// engine once it has committed every distinct workload command.
	Log log.Config
	// SnapshotEvery is the applier's snapshot cadence in entries
	// (0 = snapshots off).
	SnapshotEvery int
	// Compact retires pre-snapshot state after each snapshot. Requires
	// SnapshotEvery > 0.
	Compact bool
	// CompactKeep retains this many applied instances below the snapshot
	// boundary (echo service margin for mildly lagging peers; default
	// replica.DefaultCompactKeep).
	CompactKeep types.Instance
	// Durable attaches a per-replica durable store (store.Memory) to
	// every correct replica: committed entries are write-ahead logged,
	// applied boundaries marked, and snapshots stamped (sm.Config.Persist)
	// before application proceeds, so a simulated crash-restart can
	// rebuild the replica from its own "disk" (sm.Boot). Off by default.
	Durable bool
	// CrashRestart schedules simulated power failures: at each mapped
	// virtual time the process is powered off (harness.World.Kill — its
	// handler drops, outbound sends are fenced, pending timer callbacks
	// are voided) and RestartDelay later rebuilt as a FRESH incarnation
	// that boots from its durable store (replica.New over the same
	// store.Memory), not from a peer snapshot transfer. Requires Durable.
	// The crash loses ALL volatile state: machine, engine (its
	// first-message table included), transfer layer, timers. The rebooted incarnation
	// re-submits the whole workload (commit dedup drops what already
	// landed) because the crashed incarnation's pending commands died
	// with it.
	CrashRestart map[types.ProcID]types.Time
	// RestartDelay is the downtime between power-off and reboot
	// (default 25ms of virtual time).
	RestartDelay types.Duration
	// Transfer enables peer-to-peer snapshot state transfer (sm.Transfer)
	// on every correct replica: a replica that falls more than MaxLead
	// instances behind fetches a corroborated peer snapshot and resumes
	// from its boundary instead of stalling forever. Requires
	// SnapshotEvery > 0 (there must be snapshots to serve). Off by
	// default.
	Transfer bool
	// Obs, if non-nil, exports every correct replica's telemetry:
	// log/sm/kv/transfer/RB/dedup bundles labeled proc="<id>" plus one
	// shared commit-latency histogram (submission → first local commit).
	// The bundles exist either way — nil counts them into a registry of
	// the run's own — so the layers' accessors read the same counts, one
	// per process across crash-restarts, observed or not. Passive: an
	// observed run is trace-identical to an unobserved one.
	Obs *obs.Registry
	// Trace, if non-nil, attaches causal command tracing: one
	// xtrace.Tracer with a bounded flight recorder per correct replica,
	// plus the shared stage-latency histogram bundle.
	// Spans cover submit → batch → consensus → apply, with RB phase
	// transitions. Passive like Obs — a traced run is schedule-identical
	// to an untraced one (the scenario determinism test pins this).
	Trace *TraceSpec
	// Deadline bounds virtual time (0 = run to drain).
	Deadline types.Time
	// MaxEvents bounds the number of simulation events (0 = unlimited).
	MaxEvents uint64
}

// TraceSpec switches causal tracing on (see KVSpec.Trace). It has no
// fields: each replica's flight recorder holds recorderCap spans.
type TraceSpec struct{}

// recorderCap bounds each replica's flight-recorder ring, in spans.
const recorderCap = 4096

// KVResult is the outcome of one replicated-KV execution.
type KVResult struct {
	// Logs holds every correct process's committed command log.
	Logs map[types.ProcID][]log.Entry
	// Correct lists the correct processes, ascending.
	Correct []types.ProcID
	Totals
	// CommitLatency is the shared commit-latency histogram, registered in
	// KVSpec.Obs (or the run's own registry without one). Never nil.
	CommitLatency *obs.Histogram
	// Engines gives access to per-process log engines (introspection).
	Engines map[types.ProcID]*log.Engine
	// Tracers holds each correct replica's causal tracer; Stages the
	// shared stage-latency bundle. Both nil unless KVSpec.Trace.
	Tracers map[types.ProcID]*xtrace.Tracer
	Stages  *obs.StageMetrics
	// Stores holds every correct process's live state machine.
	Stores map[types.ProcID]*kv.Store
	// Appliers holds the sm layer of every correct process.
	Appliers map[types.ProcID]*sm.Applier
	// StateDigests is the SHA-256 of each correct process's final machine
	// state — byte-identical state ⇒ identical digests.
	StateDigests map[types.ProcID][32]byte
	// SnapshotLog records every snapshot each correct process took, in
	// order (Index/Instance/Digest; Data omitted).
	SnapshotLog map[types.ProcID][]sm.Snapshot
	// ApplierErrs records the correct processes whose applier ended the
	// run poisoned (sm.Applier.Err: a failed install, boot or persist
	// write) — replicas that stopped applying.
	ApplierErrs map[types.ProcID]error
	// Transfers maps each correct process to the sm.Transfer layer's
	// install count (snapshots adopted from peers); TransferServed counts
	// snapshots it served to peers. Both empty unless KVSpec.Transfer.
	Transfers      map[types.ProcID]int
	TransferServed map[types.ProcID]int
	// Covered maps each correct process to the number of DISTINCT
	// workload commands it committed (duplicates and forged commands
	// excluded); Distinct is the workload's distinct-command count.
	Covered  map[types.ProcID]int
	Distinct int
	// Durables maps each correct replica to its durable store (only with
	// KVSpec.Durable); it survives simulated crashes, so post-run checks
	// can re-Recover it (DurablePrefix).
	Durables map[types.ProcID]*store.Memory
	// Boots records what each crash-restarted replica recovered at reboot
	// time (keys of KVSpec.CrashRestart); BootErrs records reboots that
	// failed — the replica stays powered off for the rest of the run.
	Boots    map[types.ProcID]sm.BootStats
	BootErrs map[types.ProcID]error
}

// newTracer builds replica id's causal tracer on the virtual clock and
// records it in the result (nil when tracing is off). The first one also
// registers the stage-latency bundle all of them share.
func (r *KVResult) newTracer(spec *TraceSpec, reg *obs.Registry, id types.ProcID, env proto.Env) *xtrace.Tracer {
	if spec == nil {
		return nil
	}
	if r.Tracers == nil {
		r.Tracers = make(map[types.ProcID]*xtrace.Tracer)
		r.Stages = obs.NewStageMetrics(reg, "")
	}
	r.Tracers[id] = xtrace.New(xtrace.Config{
		Proc:     id,
		Now:      env.Now,
		Recorder: xtrace.NewRecorder(recorderCap),
		Stages:   r.Stages,
	})
	return r.Tracers[id]
}

// TraceDumps captures every correct replica's flight recorder, in
// replica order, labeled with the given run name. Nil without tracing.
func (r *KVResult) TraceDumps(label string) []*xtrace.Dump {
	if r.Tracers == nil {
		return nil
	}
	var dumps []*xtrace.Dump
	for _, id := range r.Correct {
		if t := r.Tracers[id]; t != nil {
			dumps = append(dumps, t.Dump(label))
		}
	}
	return dumps
}

// Consistent reports whether all correct logs agree wherever they
// overlap (the total-order safety property: no two processes commit
// different commands at the same index). Alignment is by Entry.Index,
// not slice position: a replica that joined through snapshot state
// transfer commits only a suffix of the log locally, and positional
// comparison would misread that shift as divergence.
func (r *KVResult) Consistent() bool {
	for i, a := range r.Correct {
		for _, b := range r.Correct[i+1:] {
			la, lb := r.Logs[a], r.Logs[b]
			if len(la) == 0 || len(lb) == 0 {
				continue
			}
			// Each log is index-contiguous; shift to the common range.
			lo := la[0].Index
			if lb[0].Index > lo {
				lo = lb[0].Index
			}
			hi := la[len(la)-1].Index
			if top := lb[len(lb)-1].Index; top < hi {
				hi = top
			}
			for k := lo; k <= hi; k++ {
				ea, eb := la[k-la[0].Index], lb[k-lb[0].Index]
				if ea.Cmd != eb.Cmd || ea.Instance != eb.Instance {
					return false
				}
			}
		}
	}
	return len(r.Correct) > 0
}

// engineErr surfaces the first correct replica whose engine poisoned
// itself during the run.
func (r *KVResult) engineErr() error {
	for _, id := range r.Correct {
		if eng := r.Engines[id]; eng != nil && eng.Err() != nil {
			return fmt.Errorf("runner: log engine %v: %w", id, eng.Err())
		}
	}
	return nil
}

// MinCovered returns the smallest distinct-command coverage among
// correct processes.
func (r *KVResult) MinCovered() int {
	min := -1
	for _, id := range r.Correct {
		if n := r.Covered[id]; min < 0 || n < min {
			min = n
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// CoveredAll reports whether every correct process committed every
// distinct workload command (the KV termination property — robust to
// post-compaction duplicate commits, unlike raw entry counts).
func (r *KVResult) CoveredAll() bool {
	return len(r.Correct) > 0 && r.MinCovered() >= r.Distinct
}

// StatesAgree reports whether every pair of correct processes with the
// same applied count has the same state digest, and that processes at
// different applied counts at least took byte-identical snapshots at
// common snapshot indexes (SnapshotsAgree).
func (r *KVResult) StatesAgree() bool {
	byApplied := make(map[int][32]byte)
	for _, id := range r.Correct {
		a := r.Appliers[id]
		if a == nil {
			return false
		}
		d := r.StateDigests[id]
		if prev, ok := byApplied[a.Applied()]; ok && prev != d {
			return false
		}
		byApplied[a.Applied()] = d
	}
	return len(r.Correct) > 0 && r.SnapshotsAgree()
}

// SnapshotsAgree reports whether every snapshot index reached by two or
// more correct processes produced byte-identical snapshots (equal
// digests) everywhere.
func (r *KVResult) SnapshotsAgree() bool {
	byIndex := make(map[int][32]byte)
	for _, id := range r.Correct {
		for _, s := range r.SnapshotLog[id] {
			if prev, ok := byIndex[s.Index]; ok && prev != s.Digest {
				return false
			}
			byIndex[s.Index] = s.Digest
		}
	}
	return true
}

// ReferenceDivergence replays the reference process's committed log
// through a fresh single-node store and compares digests with the live
// replicated state: any difference means the applier path diverged from
// the sequential semantics. Returns "" when they match. The reference is
// the first correct process with a FULL history (first entry at index
// 0): a replica that joined via snapshot transfer holds only a suffix
// locally and cannot be replayed from scratch — if no full-history
// replica exists the check is vacuous.
func (r *KVResult) ReferenceDivergence() string {
	if len(r.Correct) == 0 {
		return "no correct processes"
	}
	ref := types.NoProc
	for _, id := range r.Correct {
		if lg := r.Logs[id]; len(lg) > 0 && lg[0].Index == 0 {
			ref = id
			break
		}
	}
	if ref == types.NoProc {
		return "" // every correct replica transferred in; nothing to replay
	}
	oracle := kv.NewStore()
	for _, e := range r.Logs[ref] {
		oracle.Apply(e.Cmd)
	}
	app := r.Appliers[ref]
	if app == nil {
		return "no applier at reference process"
	}
	want := sm.Digest(oracle)
	if got := r.StateDigests[ref]; got != want {
		return fmt.Sprintf("replica %v state %x diverges from sequential replay %x", ref, got[:8], want[:8])
	}
	return ""
}

// DurablePrefix checks the persistence invariant after a durable run:
// "applied ⊇ fsync'd" — a replica's disk never claims more than its
// machine (and the cluster) actually did. Concretely, for every durable
// store re-Recovered after the run: the durable applied boundary does
// not exceed the replica's applied instance frontier, the stamped
// snapshot decodes (digest round-trip) and sits at or below the
// replica's applied entry count, and every WAL entry byte-matches the
// entry the cluster committed at that index. Returns "" when the
// invariant holds; vacuous without KVSpec.Durable.
func (r *KVResult) DurablePrefix() string {
	if len(r.Durables) == 0 {
		return ""
	}
	// Reference: the union of every correct replica's committed log.
	// Overlaps agree by total order (StatesAgree checks that separately),
	// so the union is THE committed sequence.
	ref := make(map[int]log.Entry)
	for _, id := range r.Correct {
		for _, e := range r.Logs[id] {
			ref[e.Index] = e
		}
	}
	for _, id := range r.Correct {
		p := r.Durables[id]
		if p == nil {
			continue
		}
		rec, err := p.Recover()
		if err != nil {
			return fmt.Sprintf("replica %v: recover: %v", id, err)
		}
		if eng := r.Engines[id]; eng != nil && rec.Boundary > eng.Applied() {
			return fmt.Sprintf("replica %v: durable boundary %v exceeds applied frontier %v",
				id, rec.Boundary, eng.Applied())
		}
		if rec.SnapPayload != nil {
			s, _, derr := sm.DecodeTransfer(rec.SnapPayload)
			if derr != nil {
				return fmt.Sprintf("replica %v: stamped snapshot: %v", id, derr)
			}
			if a := r.Appliers[id]; a != nil && s.Index > a.Applied() {
				return fmt.Sprintf("replica %v: stamped snapshot index %d exceeds applied count %d",
					id, s.Index, a.Applied())
			}
		}
		for _, e := range rec.Entries {
			want, ok := ref[e.Index]
			if !ok {
				return fmt.Sprintf("replica %v: durable entry %d absent from every committed log", id, e.Index)
			}
			if want.Instance != e.Instance || want.Cmd != e.Cmd {
				return fmt.Sprintf("replica %v: durable entry %d diverges from the committed log", id, e.Index)
			}
		}
	}
	return ""
}

// RunKV executes the spec.
func RunKV(spec KVSpec) (*KVResult, error) {
	w, res, trs, err := buildKV(spec)
	if err != nil {
		return nil, err
	}
	res.run(w, spec.Deadline, spec.MaxEvents)
	if err := res.engineErr(); err != nil {
		return nil, err
	}
	for _, id := range res.Correct {
		if app := res.Appliers[id]; app != nil {
			res.StateDigests[id] = app.StateDigest()
			if err := app.Err(); err != nil {
				res.ApplierErrs[id] = err
			}
		}
		if tr := trs[id]; tr != nil {
			res.Transfers[id] = tr.Installs()
			res.TransferServed[id] = tr.Served()
		}
	}
	return res, nil
}

// armSubmits submits command k of cmds at k·every, by one timer per
// distinct instant that submits its commands in workload order — as one
// timer per command would, since simultaneous timers fire as armed.
func armSubmits(setTimer func(types.Duration, func()) func(), cmds []types.Value, every types.Duration, submit func(types.Value) error) {
	for lo := 0; lo < len(cmds); {
		at := types.Duration(lo) * every
		hi := lo + 1
		for hi < len(cmds) && types.Duration(hi)*every == at {
			hi++
		}
		group := cmds[lo:hi]
		setTimer(at, func() {
			for _, c := range group {
				_ = submit(c)
			}
		})
		lo = hi
	}
}

// buildKV constructs the world of a KV run, every correct replica placed
// and its timers armed, without running it; trs maps each replica to its
// transfer layer (nil without KVSpec.Transfer).
func buildKV(spec KVSpec) (w *harness.World, res *KVResult, trs map[types.ProcID]*sm.Transfer, err error) {
	if len(spec.Commands) == 0 {
		return nil, nil, nil, fmt.Errorf("runner: empty KV workload")
	}
	if spec.Compact && spec.SnapshotEvery <= 0 {
		return nil, nil, nil, fmt.Errorf("runner: Compact requires SnapshotEvery > 0")
	}
	if spec.Transfer && spec.SnapshotEvery <= 0 {
		return nil, nil, nil, fmt.Errorf("runner: Transfer requires SnapshotEvery > 0 (peers serve snapshots)")
	}
	if len(spec.CrashRestart) > 0 && !spec.Durable {
		return nil, nil, nil, fmt.Errorf("runner: CrashRestart requires Durable (the reboot reads the store)")
	}
	if spec.RestartDelay <= 0 {
		spec.RestartDelay = 25 * time.Millisecond
	}
	// distinct numbers the distinct commands; slot[k] is command k's
	// number, submitAt[d] the first submit time of number d.
	encoded := make([]types.Value, len(spec.Commands))
	distinct := make(map[types.Value]int, len(spec.Commands))
	slot := make([]int, len(spec.Commands))
	var submitAt []types.Time
	for k, c := range spec.Commands {
		encoded[k] = c.Encode()
		d, dup := distinct[encoded[k]]
		if !dup {
			d = len(submitAt)
			distinct[encoded[k]] = d
			submitAt = append(submitAt, types.Time(types.Duration(k)*spec.SubmitEvery))
		}
		slot[k] = d
	}

	reg := spec.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	res = &KVResult{
		Logs:           make(map[types.ProcID][]log.Entry),
		Engines:        make(map[types.ProcID]*log.Engine),
		CommitLatency:  obs.NewCommitLatency(reg),
		Stores:         make(map[types.ProcID]*kv.Store),
		Appliers:       make(map[types.ProcID]*sm.Applier),
		StateDigests:   make(map[types.ProcID][32]byte),
		SnapshotLog:    make(map[types.ProcID][]sm.Snapshot),
		ApplierErrs:    make(map[types.ProcID]error),
		Transfers:      make(map[types.ProcID]int),
		TransferServed: make(map[types.ProcID]int),
		Covered:        make(map[types.ProcID]int),
		Distinct:       len(submitAt),
		Durables:       make(map[types.ProcID]*store.Memory),
		Boots:          make(map[types.ProcID]sm.BootStats),
		BootErrs:       make(map[types.ProcID]error),
	}
	trs = make(map[types.ProcID]*sm.Transfer)
	// Per-replica distinct-coverage sets live OUTSIDE the incarnation
	// closures: a crash-restarted replica keeps counting from where its
	// dead incarnation left off (coverage is a property of the process,
	// not of one boot). The same holds for its telemetry cells in reg —
	// and so for every layer count its accessors read — and for its
	// flight recorder, which replica.New and the tracer map re-acquire.
	seenBy := make(map[types.ProcID][]bool)
	// boot places one incarnation of correct replica id: the first and
	// every crash-restarted one through the same replica.New call, which
	// restores whatever the durable store holds before the engine starts.
	boot := func(w *harness.World, id types.ProcID) error {
		_, reboot := res.Engines[id]
		var rep *replica.Replica
		var newErr error
		err := w.SetBehavior(id, func(env proto.Env) proto.Handler {
			tracer := res.Tracers[id]
			if tracer == nil {
				tracer = res.newTracer(spec.Trace, reg, id, env)
			}
			seen := seenBy[id]
			if seen == nil {
				seen = make([]bool, len(submitAt))
				seenBy[id] = seen
			}
			// cover credits distinct workload command d. The stop rule:
			// close once every distinct workload command is covered — a
			// deterministic function of the applied prefix, so instance
			// starts stay symmetric. Raw entry counts would not do: a
			// client's byte-identical retry commits once, and after
			// compaction a forgotten duplicate may commit twice.
			cover := func(d int) {
				seen[d] = true
				res.Covered[id]++
				if res.Covered[id] >= len(submitAt) {
					rep.Engine.Close()
				}
			}
			rep, newErr = replica.New(replica.Config{
				Env:           env,
				Persist:       res.Durables[id],
				Log:           spec.Log,
				SnapshotEvery: spec.SnapshotEvery,
				Compact:       spec.Compact,
				CompactKeep:   spec.CompactKeep,
				Transfer:      spec.Transfer,
				Obs:           reg,
				Labels:        procLabel(id),
				Tracer:        tracer,
				OnSnapshot: func(s sm.Snapshot) {
					res.SnapshotLog[id] = append(res.SnapshotLog[id],
						sm.Snapshot{Index: s.Index, Instance: s.Instance, Digest: s.Digest})
					if tr := env.Trace(); tr != nil {
						tr.Emit(trace.Event{
							At: env.Now(), Kind: trace.KindKVSnapshot, Proc: id,
							Aux: fmt.Sprintf("idx=%d inst=%v digest=%x", s.Index, s.Instance, s.Digest[:8]),
						})
					}
				},
				OnCommit: func(e log.Entry) {
					res.Logs[id] = append(res.Logs[id], e)
					// Duplicate re-commits (possible after compaction forgets
					// the content dedup) and forged commands from Byzantine
					// batches cover nothing.
					d, workload := distinct[e.Cmd]
					if !workload || seen[d] {
						return
					}
					res.CommitLatency.Observe(int64(env.Now() - submitAt[d]))
					cover(d)
				},
				// A peer snapshot skips the commits below its boundary: the
				// recorded log restarts at the engine's retained suffix (the
				// suffix form Consistent and ReferenceDivergence expect),
				// and every workload command the installed sessions already
				// reflect is covered.
				OnInstall: func(sm.Snapshot) {
					res.Logs[id] = slices.Clone(rep.Engine.Entries())
					for k, c := range spec.Commands {
						if d := slot[k]; !seen[d] && c.Client != 0 && rep.Store.SessionSeq(c.Client) >= c.Seq {
							cover(d)
						}
					}
				},
			})
			if newErr != nil {
				return silent
			}
			eng, app := rep.Engine, rep.Applier
			if reboot {
				res.Boots[id] = rep.Boot
				env.Trace().Emit(trace.Event{
					At: env.Now(), Kind: trace.KindKVRecover, Proc: id,
					Aux: fmt.Sprintf("boot replayed-to=%d boundary=%v", app.Applied(), rep.Boot.Boundary),
				})
			}
			res.Engines[id], res.Stores[id], res.Appliers[id], trs[id] = eng, rep.Store, app, rep.Transfer
			// Submit the workload — on a reboot, re-submit it in full
			// relative to the restart instant: the crashed incarnation's
			// submit timers died with it, commit dedup drops what already
			// landed, and anything that was pending gets a second chance.
			armSubmits(env.SetTimer, encoded, spec.SubmitEvery, eng.Submit)
			// A Start failure is the engine's sticky Err, surfaced after
			// the run.
			env.SetTimer(0, func() { _ = eng.Start() })
			if !reboot {
				// The engine applies the first-message rule itself and
				// counts into replica.New's bundle for (reg, proc label):
				// these very cells, which every incarnation re-acquires.
				res.firstMessage(reg, id)
			}
			return rep.Handler
		})
		if err == nil {
			err = newErr
		}
		return err
	}
	w, correct, err := newWorld(harness.Config{
		Params:   spec.Params,
		Topology: spec.Topology,
		Policy:   spec.Policy,
		Adv:      spec.Adv,
		FIFO:     spec.FIFO,
		Seed:     spec.Seed,
		Record:   spec.Record,
		BotOK:    true,
	}, &res.Totals, spec.Byzantine, func(w *harness.World, id types.ProcID) error {
		if spec.Durable {
			res.Durables[id] = store.NewMemory()
		}
		return boot(w, id)
	})
	if err != nil {
		return nil, nil, nil, err
	}
	res.Correct = correct
	// Crash-restart choreography: power the process off at its mapped
	// time, reboot it from its durable store RestartDelay later. The
	// timers are scheduled directly on the scheduler (NOT through the
	// victim's env — the kill would fence its own restart), in sorted
	// process order so the event sequence is seed-deterministic. A reboot
	// that fails leaves the replica powered off for the rest of the run.
	for _, id := range slices.Sorted(maps.Keys(spec.CrashRestart)) {
		if res.Durables[id] == nil {
			return nil, nil, nil, fmt.Errorf("runner: CrashRestart process %v is not a correct replica", id)
		}
		at := types.Duration(spec.CrashRestart[id])
		w.Sched.After(at, func() { w.Kill(id) })
		w.Sched.After(at+spec.RestartDelay, func() {
			if err := boot(w, id); err != nil {
				res.BootErrs[id] = err
			}
		})
	}

	return w, res, trs, nil
}
