package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/kv"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/timeliness"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/xtrace"
)

// Outcome reports one scenario execution.
type Outcome struct {
	// Name and Seed identify the run.
	Name string
	Seed int64
	// Workload is the workload family ("consensus" / "kv").
	Workload string
	// Pass reports whether every checked property held (including the
	// liveness expectation, when the spec promises one).
	Pass bool
	// Report is the full property report.
	Report *check.Report
	// Digest is a SHA-256 over the complete trace and the final
	// decisions/logs: identical seeds must reproduce identical digests.
	Digest string
	// Decided counts decided processes (consensus) or the smallest
	// distinct-command coverage among correct replicas (kv).
	Decided int
	// Messages and Events count network traffic and simulation events.
	Messages uint64
	Events   uint64
	// End is the virtual time when the run stopped.
	End time.Duration
	// Stalled counts correct processes that hit the MaxRounds cap.
	Stalled int
	// BisourceSeen reports whether the timeliness analyzer re-discovered
	// the promised bisource from the trace alone (informational: false
	// when nothing was promised or observations were too sparse).
	BisourceSeen bool
	// Trace holds each correct replica's flight-recorder dump (populated
	// only by RunTraced; kv workloads). Informational: never part of the
	// digest.
	Trace []*xtrace.Dump

	// What the experiment tables need beyond the above (consensus
	// workloads only; like Trace outside both Digest and String): the
	// largest decision round and latest decision instant among correct
	// processes (0 if none decided), the value every correct process
	// decided (empty unless all decided and agree), and the count of
	// RB-broadcast and RB-delivery events.
	DecideRound types.Round
	DecideTime  time.Duration
	Decision    types.Value
	RBStreams   int
}

// String renders one machine-readable table row (tab-separated):
// name, seed, workload, pass, violations, decided, msgs, events, vtime,
// digest.
func (o *Outcome) String() string {
	status := "PASS"
	if !o.Pass {
		status = "FAIL"
	}
	return fmt.Sprintf("%s\t%d\t%s\t%s\t%d\t%d\t%d\t%d\t%v\t%s",
		o.Name, o.Seed, o.Workload, status, len(o.Report.Violations),
		o.Decided, o.Messages, o.Events, o.End, o.Digest)
}

// TableHeader is the column header matching Outcome.String.
const TableHeader = "scenario\tseed\tworkload\tstatus\tviolations\tdecided\tmsgs\tevents\tvtime\tdigest"

// Prepared is a validated scenario with the seed-independent world
// ingredients materialized once: the channel topology (read-only during
// runs, so concurrent seeds share one matrix) and the KV workload. The
// matrix runner prepares each spec once and reuses it across every seed —
// the mutable world (scheduler, nodes, engines) is rebuilt per seed, which
// is what seed-determinism requires.
type Prepared struct {
	Spec   Spec
	topo   *network.Topology
	kvCmds []kv.Command
	// tweak, when set, adjusts the materialised consensus runner.Spec
	// just before it runs: the experiments' handle for the few engine
	// and adversary knobs the declarative vocabulary deliberately has no
	// field for (see cell.tweak).
	tweak func(*runner.Spec)
}

// Prepare validates the spec and materializes its immutable parts.
func Prepare(s Spec) (*Prepared, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p := &Prepared{Spec: s, topo: s.Topology()}
	if s.Work.Kind == WorkKV {
		p.kvCmds = kvCommands(s.Work)
	}
	return p, nil
}

// Run executes the prepared scenario under the given seed.
func (p *Prepared) Run(seed int64) (*Outcome, error) {
	return p.RunObserved(seed, nil)
}

// RunObserved executes the prepared scenario under the given seed with a
// telemetry registry attached to every correct process (runner Obs
// wiring; nil = unobserved). Observation is passive: the Outcome — digest
// included — is byte-identical to an unobserved run's, which
// TestObservedDigestsUnchanged pins across the golden matrix.
func (p *Prepared) RunObserved(seed int64, reg *obs.Registry) (*Outcome, error) {
	return p.run(seed, reg, nil)
}

// RunTraced is RunObserved with causal tracing (internal/xtrace)
// attached to every correct replica of a kv workload; the
// per-replica flight-recorder dumps land in Outcome.Trace. Tracing is
// passive like observation: the Outcome — digest included — stays
// byte-identical (TestTracedDigestsUnchanged pins this). Consensus
// workloads have no client commands and run untraced.
func (p *Prepared) RunTraced(seed int64, reg *obs.Registry) (*Outcome, error) {
	return p.run(seed, reg, &runner.TraceSpec{})
}

func (p *Prepared) run(seed int64, reg *obs.Registry, tr *runner.TraceSpec) (*Outcome, error) {
	if p.Spec.Work.Kind == WorkKV {
		return runKV(p, seed, reg, tr)
	}
	return runConsensus(p, seed, reg)
}

// Run executes the scenario under the given seed. The same (spec, seed)
// pair always produces an identical Outcome, digest included.
func Run(s Spec, seed int64) (*Outcome, error) {
	p, err := Prepare(s)
	if err != nil {
		return nil, err
	}
	return p.Run(seed)
}

// kvCommands builds the WorkKV client workload (defaults applied): a
// deterministic mix of puts, gets and deletes over `Clients` sessions and
// `Keys` keys, optionally skewed to a hot key, with retry duplicates and
// regressed-sequence injections when the spec asks for them. Pure data —
// the same Work always yields the same commands.
func kvCommands(w Work) []kv.Command {
	n := w.Commands
	if n <= 0 {
		n = 24
	}
	clients := w.Clients
	if clients <= 0 {
		clients = 3
	}
	keys := w.Keys
	if keys <= 0 {
		keys = 8
	}
	seqs := make(map[uint64]uint64, clients)
	firstPut := make(map[uint64]kv.Command, clients)
	lastCmd := make(map[uint64]kv.Command, clients)
	out := make([]kv.Command, 0, n+n/2)
	for i := 0; i < n; i++ {
		client := uint64(i%clients + 1)
		seqs[client]++
		key := (i * 7) % keys
		if w.HotKey && i%10 < 7 {
			key = 0
		}
		c := kv.Command{Client: client, Seq: seqs[client], Key: fmt.Sprintf("key-%02d", key)}
		switch i % 5 {
		case 3:
			c.Op = kv.OpGet
		case 4:
			c.Op = kv.OpDel
		default:
			c.Op = kv.OpPut
			c.Val = padValue(fmt.Sprintf("val-%04d", i), w.ValueBytes)
		}
		out = append(out, c)
		lastCmd[client] = c
		if c.Op == kv.OpPut {
			if _, ok := firstPut[client]; !ok {
				firstPut[client] = c
			}
		}
		if w.Retries > 0 && i%w.Retries == w.Retries-1 {
			// A byte-identical retry, and for puts also a re-encoded retry
			// (same client/seq, different payload) — the second kind always
			// commits as a distinct log entry, so it provably exercises the
			// session table even when the log's content dedup absorbs the
			// first kind.
			out = append(out, c)
			if c.Op == kv.OpPut {
				r := c
				r.Val += "-retry"
				out = append(out, r)
			}
		}
	}
	if w.Retries > 0 {
		// A re-encoded retry of each client's FINAL command: nothing later
		// from that client advances the watermark, so whichever copy
		// applies second is answered from the session's response cache —
		// the guaranteed cache-hit duplicate (mid-workload retries usually
		// land as stale instead, because the client has moved on).
		for client := 1; client <= clients; client++ {
			if last, ok := lastCmd[uint64(client)]; ok {
				last.Val += "#tail-retry"
				out = append(out, last)
			}
		}
	}
	if w.OutOfOrder {
		// One regressed-sequence command per client, distinct bytes from
		// the original so it commits and must be rejected as stale.
		for client := 1; client <= clients; client++ {
			id := uint64(client)
			if first, ok := firstPut[id]; ok && seqs[id] > first.Seq {
				late := first
				late.Val = "out-of-order-write"
				out = append(out, late)
			}
		}
	}
	return out
}

// padValue grows v to size bytes with a deterministic incompressible-ish
// filler (Work.ValueBytes): the unique prefix keeps every workload value
// distinct, so the distinct-coverage stop rule is unaffected.
func padValue(v string, size int) string {
	if size <= len(v) {
		return v
	}
	pad := make([]byte, size-len(v))
	for i := range pad {
		pad[i] = byte('a' + (i+len(v))%26)
	}
	return v + string(pad)
}

// Behavior materializes the fault preset. vals is the value pool empty
// Value/Alt fields default from (vals[0], then vals[1] if there is one);
// the per-fault seed keeps FaultRandom deterministic yet distinct across
// processes.
func (f Fault) Behavior(ecfg core.Config, vals []types.Value, seed int64) (harness.Behavior, error) {
	v := f.Value
	if v == "" {
		v = vals[0]
	}
	alt := f.Alt
	if alt == "" {
		if len(vals) > 1 {
			alt = vals[1]
		} else {
			alt = v
		}
	}
	after := f.After
	if after <= 0 {
		after = 40 * time.Millisecond
	}
	switch f.Kind {
	case FaultSilent:
		return adversary.Silent(), nil
	case FaultRelayOnly:
		return adversary.RBRelayOnly(), nil
	case FaultCrashAt:
		return adversary.CrashAt(ecfg, v, after), nil
	case FaultEquivocate:
		return adversary.Equivocator(ecfg, [2]types.Value{v, alt}), nil
	case FaultMuteCoordinator:
		return adversary.MuteCoordinator(ecfg, v), nil
	case FaultPoison:
		if f.Alt == "" {
			alt = "poison!"
		}
		return adversary.PoisonCoordinator(ecfg, v, alt), nil
	case FaultRandom:
		return adversary.RandomlyByzantine(ecfg, v, []types.Value{v, alt}, seed, 0.2, 0.3), nil
	case FaultSpam:
		if f.Value == "" {
			v = "spam!"
		}
		return adversary.SpamStreams(v, 64), nil
	case FaultFakeDecide:
		if f.Value == "" {
			v = "forged!"
		}
		return adversary.FakeDecide(v), nil
	case FaultHashEquivocate:
		if f.Value == "" {
			v = "hash-equivocation-payload-long-enough-to-force-hashing"
		}
		return adversary.HashEquivocation(v, after/8+time.Millisecond, 64), nil
	default:
		return nil, fmt.Errorf("scenario: unknown fault kind %v", f.Kind)
	}
}

// byzantine materializes the fault assignment.
func (s Spec) byzantine(ecfg core.Config, seed int64) (map[types.ProcID]harness.Behavior, error) {
	vals := s.values()
	ids := s.ByzProcs()
	out := make(map[types.ProcID]harness.Behavior, len(ids))
	for i, f := range s.Faults {
		id := ids[i]
		b, err := f.Behavior(ecfg, vals, seed+int64(id))
		if err != nil {
			return nil, fmt.Errorf("scenario %s: process %v: %w", s.Name, id, err)
		}
		out[id] = b
	}
	return out, nil
}

// defaultDeadline bounds a run that sets no Deadline. Passing cells drain
// long before it; a world that never drains (a stall probe re-arming
// beside engines that never close) ends here and fails its termination
// check instead of spinning.
const defaultDeadline = 60 * time.Second

// deadline resolves the virtual-time budget.
func (s Spec) deadline() types.Time {
	if s.Deadline > 0 {
		return types.Time(s.Deadline)
	}
	if s.Net.Kind == NetAsync {
		return types.Time(3 * time.Second)
	}
	if s.Net.Splitter {
		// The ConsensusSplitter holds messages for minutes of virtual
		// time, so its runs legitimately take that long.
		return types.Time(24 * time.Hour)
	}
	return types.Time(defaultDeadline)
}

func runConsensus(p *Prepared, seed int64, reg *obs.Registry) (*Outcome, error) {
	s := p.Spec
	ecfg := s.engineConfig()
	byz, err := s.byzantine(ecfg, seed)
	if err != nil {
		return nil, err
	}
	vals := s.values()
	props := make(map[types.ProcID]types.Value)
	correct := s.CorrectProcs()
	for i, id := range correct {
		props[id] = vals[i%len(vals)]
	}
	spec := runner.Spec{
		Params:    s.Params(),
		Topology:  p.topo,
		Policy:    s.policy(seed),
		Adv:       s.adversaryFor(seed),
		FIFO:      s.Net.FIFO,
		Seed:      seed,
		Record:    true,
		Proposals: props,
		Byzantine: byz,
		Engine:    ecfg,
		Deadline:  s.deadline(),
		Obs:       reg,
	}
	if p.tweak != nil {
		p.tweak(&spec)
	}
	res, err := runner.Run(spec)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	report := check.All(res.Log, check.Ground{
		Correct:           res.Correct,
		Proposals:         props,
		BotMode:           s.Work.BotMode,
		ExpectTermination: s.ExpectTermination,
	})
	o := &Outcome{
		Name:     s.Name,
		Seed:     seed,
		Workload: s.Work.Kind.String(),
		Report:   report,
		Decided:  len(res.Decisions),
		Messages: res.Messages,
		Events:   res.Events,
		End:      time.Duration(res.End),
		Stalled:  len(res.Stalled),

		DecideRound: res.MaxDecideRound(),
		DecideTime:  time.Duration(res.MaxDecideTime()),
		RBStreams:   rbStreams(res.Log),
	}
	o.Decision, _ = res.CommonDecision()
	h := sha256.New()
	digestTrace(h, res.Log)
	for _, id := range res.Correct {
		if v, ok := res.Decisions[id]; ok {
			fmt.Fprintf(h, "decide %v %q %v\n", id, v, res.DecideRound[id])
		}
	}
	o.Digest = hex.EncodeToString(h.Sum(nil))
	o.BisourceSeen = s.bisourceSeen(res.Log)
	o.Pass = report.OK()
	return o, nil
}

// traceLabel stamps flight-recorder dumps with their matrix cell.
func traceLabel(name string, seed int64) string {
	return fmt.Sprintf("%s/seed=%d", name, seed)
}

// KVSpec materializes the runner spec of a prepared KV scenario at one
// seed, unobserved and untraced (shared by runKV and the KV tests here
// and in internal/runner, so tests always exercise the exact
// configuration the engine runs).
func (p *Prepared) KVSpec(seed int64) (runner.KVSpec, error) {
	s := p.Spec
	w := s.Work
	if w.BatchSize <= 0 {
		w.BatchSize = 8
	}
	if w.Pipeline <= 0 {
		w.Pipeline = 2
	}
	ecfg := s.engineConfig()
	byz, err := s.byzantine(ecfg, seed)
	if err != nil {
		return runner.KVSpec{}, err
	}
	spec := runner.KVSpec{
		Params:        s.Params(),
		Topology:      p.topo,
		Policy:        s.policy(seed),
		Adv:           s.adversaryFor(seed),
		FIFO:          s.Net.FIFO,
		Seed:          seed,
		Record:        true,
		Commands:      p.kvCmds,
		SubmitEvery:   w.SubmitEvery,
		Byzantine:     byz,
		SnapshotEvery: w.SnapshotEvery,
		Compact:       w.Compact,
		CompactKeep:   types.Instance(w.CompactKeep),
		Transfer:      w.Transfer,
		Deadline:      s.deadline(),
	}
	spec.Log.Engine = ecfg
	spec.Log.BatchSize = w.BatchSize
	spec.Log.Pipeline = w.Pipeline
	spec.Log.MaxLead = types.Instance(w.MaxLead)
	spec.Durable = w.Durable
	if w.CrashRestartAt > 0 {
		// The lowest-ID correct replica takes the power cycle (with
		// faults on the top IDs that is always process 1).
		spec.CrashRestart = map[types.ProcID]types.Time{
			s.CorrectProcs()[0]: types.Time(w.CrashRestartAt),
		}
		spec.RestartDelay = types.Duration(w.RestartDelay)
	}
	return spec, nil
}

func runKV(p *Prepared, seed int64, reg *obs.Registry, tr *runner.TraceSpec) (*Outcome, error) {
	s := p.Spec
	w := s.Work
	spec, err := p.KVSpec(seed)
	if err != nil {
		return nil, err
	}
	spec.Obs = reg
	spec.Trace = tr
	res, err := runner.RunKV(spec)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}

	// KV runs are verified end-to-end on the service state, not just the
	// log order: identical live state, identical snapshots at common
	// indexes, agreement with a sequential replay oracle, and — when the
	// workload carries retries — proof that the session layer actually
	// suppressed them.
	report := &check.Report{}
	report.Observe("log-consistency")
	if !res.Consistent() {
		report.Violatef("LOG-Consistency: correct logs are not pairwise prefix-consistent")
	}
	report.Observe("kv-state-agreement")
	if !res.StatesAgree() {
		report.Violatef("KV-StateAgreement: correct replicas hold different state digests")
	}
	report.Observe("kv-snapshot-agreement")
	if !res.SnapshotsAgree() {
		report.Violatef("KV-SnapshotAgreement: snapshot digests differ at a common index")
	}
	report.Observe("kv-reference-replay")
	if d := res.ReferenceDivergence(); d != "" {
		report.Violatef("KV-ReferenceReplay: %s", d)
	}
	// Suppression and compaction are PROGRESS properties (they need the
	// run to get somewhere), so like log-termination they are only
	// checked when the schedule actually promises termination — a
	// deadline-truncated async run that never applied a retry pair is
	// not a violation.
	if (w.Retries > 0 || w.OutOfOrder) && s.ExpectTermination {
		report.Observe("kv-session-suppression")
		if ref := res.Correct; len(ref) > 0 {
			store := res.Stores[ref[0]]
			if store.Duplicates()+store.Stales() == 0 {
				report.Violatef("KV-SessionSuppression: retry workload triggered no duplicate/stale suppression")
			}
		}
	}
	report.Observe("kv-recovery")
	for _, id := range res.Correct {
		if err := res.ApplierErrs[id]; err != nil {
			report.Violatef("KV-Recovery: replica %v stopped applying: %v", id, err)
		}
	}
	if w.Compact && s.ExpectTermination {
		report.Observe("kv-compaction")
		bounded := false
		for _, id := range res.Correct {
			if res.Engines[id].Retired() > 0 {
				bounded = true
			}
		}
		if !bounded {
			report.Violatef("KV-Compaction: no replica retired any instance state")
		}
	}
	if w.Durable {
		report.Observe("kv-durable")
		if d := res.DurablePrefix(); d != "" {
			report.Violatef("KV-Durable: %s", d)
		}
	}
	if w.CrashRestartAt > 0 {
		// The crash-restart properties: the victim actually rebooted, its
		// boot recovered real state from its own durable store, and — with
		// the transfer layer armed precisely to prove this — reconvergence
		// used ZERO peer snapshot transfers: everything the replica missed
		// during the blackout reached it through its peers' DECIDEs.
		report.Observe("kv-crash-restart")
		victim := s.CorrectProcs()[0]
		for id, berr := range res.BootErrs {
			if berr != nil {
				report.Violatef("KV-CrashRestart: replica %v failed to reboot from disk: %v", id, berr)
			}
		}
		if st, ok := res.Boots[victim]; !ok {
			report.Violatef("KV-CrashRestart: replica %v never rebooted", victim)
		} else if st.Boundary <= 0 {
			report.Violatef("KV-CrashRestart: reboot recovered nothing from the durable store (boundary %v)", st.Boundary)
		}
		if w.Transfer && s.ExpectTermination {
			if n := res.Transfers[victim]; n != 0 {
				report.Violatef("KV-CrashRestart: rebooted replica installed %d peer snapshots — reconvergence was not disk-local", n)
			}
			for _, id := range res.Correct {
				if n := res.TransferServed[id]; n != 0 {
					report.Violatef("KV-CrashRestart: replica %v served %d snapshots — the reboot leaned on a peer", id, n)
				}
			}
		}
	}
	if s.Net.ChunkDropEvery > 0 && s.ExpectTermination {
		// The loss episode must have BITTEN: with zero dropped chunk
		// frames the run proved nothing about range re-request recovery
		// (the kv-transfer convergence check below is what proves the sync
		// still completed).
		report.Observe("kv-chunk-loss")
		if cl := chunkLossIn(spec.Adv); cl == nil {
			report.Violatef("KV-ChunkLoss: no ChunkLoss adversary materialized")
		} else if cl.Dropped == 0 {
			report.Violatef("KV-ChunkLoss: no chunk frame was ever dropped — the scenario exercised no loss recovery")
		}
	}
	if w.Transfer && s.ExpectTermination && w.CrashRestartAt <= 0 {
		// The transfer properties: some replica actually crossed the
		// replay horizon (DroppedAhead pressure — replay was impossible,
		// not merely slow), recovered through a peer snapshot install,
		// and every correct replica ended at the SAME applied entry count
		// with the SAME state digest. The last clause is strictly stronger
		// than KV-StateAgreement, which compares digests only at equal
		// counts and so passes vacuously for a replica stuck behind.
		// Skipped under CrashRestartAt, where the armed transfer layer
		// must stay idle (see kv-crash-restart above).
		report.Observe("kv-transfer")
		installs, pressure := 0, false
		for _, id := range res.Correct {
			installs += res.Transfers[id]
			if res.Engines[id].DroppedAhead() > 0 {
				pressure = true
			}
		}
		if installs == 0 {
			report.Violatef("KV-Transfer: no replica installed a peer snapshot")
		}
		if !pressure {
			report.Violatef("KV-Transfer: no replica ever crossed the replay horizon (MaxLead)")
		}
		ref := res.Correct[0]
		refDigest := res.StateDigests[ref]
		for _, id := range res.Correct[1:] {
			digest := res.StateDigests[id]
			if res.Appliers[id].Applied() != res.Appliers[ref].Applied() || digest != refDigest {
				report.Violatef("KV-Transfer: replica %v ended at %d entries (state %x), replica %v at %d (%x) — no convergence",
					id, res.Appliers[id].Applied(), digest[:8],
					ref, res.Appliers[ref].Applied(), refDigest[:8])
			}
		}
	}
	if s.ExpectTermination {
		report.Observe("kv-termination")
		// Coverage, not raw entry counts: under compaction a forgotten
		// duplicate can legitimately commit twice, so entry counts can
		// both overshoot and (by closing engines early) undershoot.
		if w.Transfer && w.CrashRestartAt <= 0 {
			// Termination here means the cluster committed every distinct
			// command somewhere; the kv-transfer check above pins the
			// laggard's state to the cluster's.
			maxCovered := 0
			for _, id := range res.Correct {
				if res.Covered[id] > maxCovered {
					maxCovered = res.Covered[id]
				}
			}
			if maxCovered < res.Distinct {
				report.Violatef("KV-Termination: only %d/%d distinct commands committed anywhere",
					maxCovered, res.Distinct)
			}
		} else if !res.CoveredAll() {
			report.Violatef("KV-Termination: only %d/%d distinct commands committed everywhere",
				res.MinCovered(), res.Distinct)
		}
	}

	o := &Outcome{
		Name:     s.Name,
		Seed:     seed,
		Workload: s.Work.Kind.String(),
		Report:   report,
		Decided:  res.MinCovered(),
		Messages: res.Messages,
		Events:   res.Events,
		End:      time.Duration(res.End),
	}
	h := sha256.New()
	digestTrace(h, res.Log)
	for _, id := range res.Correct {
		for _, e := range res.Logs[id] {
			fmt.Fprintf(h, "commit %v %d %v %q\n", id, e.Index, e.Instance, e.Cmd)
		}
		d := res.StateDigests[id]
		fmt.Fprintf(h, "state %v %x\n", id, d)
		for _, snap := range res.SnapshotLog[id] {
			fmt.Fprintf(h, "snapshot %v %d %v %x\n", id, snap.Index, snap.Instance, snap.Digest)
		}
	}
	o.Digest = hex.EncodeToString(h.Sum(nil))
	o.BisourceSeen = s.bisourceSeen(res.Log)
	o.Pass = report.OK()
	if tr != nil {
		o.Trace = res.TraceDumps(traceLabel(s.Name, seed))
	}
	return o, nil
}

// chunkLossIn digs the ChunkLoss adversary out of a run's (possibly
// chained) network adversary so the kv-chunk-loss check can read its
// drop counter after the run.
func chunkLossIn(adv network.Adversary) *adversary.ChunkLoss {
	switch a := adv.(type) {
	case *adversary.ChunkLoss:
		return a
	case adversary.Chain:
		for _, link := range a {
			if cl, ok := link.(*adversary.ChunkLoss); ok {
				return cl
			}
		}
	}
	return nil
}

// digestTrace feeds every trace event into the hash in emission order as
// a fixed binary tuple (little-endian fields, length-prefixed strings)
// rather than rendered text. The encoding is injective per event — every
// field is either fixed-width or length-prefixed, so distinct traces
// cannot collide by concatenation — and hashing it is several times
// cheaper than rendering: the digest pass was a measurable slice of every
// scenario run, paid once per matrix cell. Changing the encoding changed
// every golden digest once; bench/golden_digests.tsv and the golden_test
// rows were re-recorded together in the same change.
func digestTrace(w io.Writer, log *trace.Log) {
	var buf []byte
	le32 := func(v uint32) {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	le64 := func(v uint64) {
		le32(uint32(v))
		le32(uint32(v >> 32))
	}
	log.ForEach(func(e trace.Event) {
		buf = buf[:0]
		le64(uint64(e.At))
		buf = append(buf, byte(e.Kind))
		le32(uint32(int32(e.Proc)))
		le32(uint32(int32(e.Peer)))
		le64(uint64(e.Round))
		le32(uint32(len(e.Value)))
		buf = append(buf, e.Value...)
		if e.Opt.Valid {
			buf = append(buf, 1)
			le32(uint32(len(e.Opt.V)))
			buf = append(buf, e.Opt.V...)
		} else {
			buf = append(buf, 0)
		}
		le32(uint32(len(e.Aux)))
		buf = append(buf, e.Aux...)
		w.Write(buf)
	})
}

// bisourceSeen re-discovers the promised bisource from the trace with
// the timeliness analyzer (§4's extraction, reference [12]). The answer
// is informational: sparse observations on a quiet channel can miss a
// genuine bisource, but a reported sighting is a sound witness.
func (s Spec) bisourceSeen(log *trace.Log) bool {
	p, promised := s.PromisedBisource()
	if !promised || log.Len() == 0 {
		return false
	}
	n := s.netDefaults()
	a := timeliness.FromTrace(s.N, log)
	q := timeliness.Query{Tau: types.Time(n.GST), Delta: n.Delta, MinObservations: 2}
	return a.IsBisource(p, s.T+1, q)
}

// MatrixResult pairs one matrix cell with its outcome or error.
type MatrixResult struct {
	Spec    Spec
	Seed    int64
	Outcome *Outcome
	Err     error
	// Metrics is the cell's private telemetry registry, populated only by
	// RunMatrixObserved (nil from RunMatrix). Telemetry is passive, so the
	// outcome — digest included — is identical either way.
	Metrics *obs.Registry
}

// RunMatrix executes every (spec, seed) cell concurrently on up to
// workers goroutines (workers ≤ 0 = 4) and returns results in cell order
// (seed-major within each spec). Each spec is prepared once — validation,
// topology and workload materialization are shared by all of its seeds —
// while every cell still builds an independent mutable world, so cells
// share no mutable state.
func RunMatrix(specs []Spec, seeds []int64, workers int) []MatrixResult {
	return runMatrix(specs, seeds, workers, false, false)
}

// RunMatrixObserved is RunMatrix with a fresh telemetry registry attached
// to every cell, returned in MatrixResult.Metrics — the matrix-dump
// surface for `minsync-sim -metrics-dump`.
func RunMatrixObserved(specs []Spec, seeds []int64, workers int) []MatrixResult {
	return runMatrix(specs, seeds, workers, true, false)
}

// RunMatrixTraced is RunMatrixObserved with causal tracing attached to
// every cell (RunTraced semantics): each kv outcome carries its
// per-replica flight-recorder dumps in Outcome.Trace — the surface for
// `minsync-sim -trace-dump`, which writes the dumps of failing cells.
func RunMatrixTraced(specs []Spec, seeds []int64, workers int) []MatrixResult {
	return runMatrix(specs, seeds, workers, true, true)
}

func runMatrix(specs []Spec, seeds []int64, workers int, observe, traced bool) []MatrixResult {
	if workers <= 0 {
		workers = 4
	}
	cells := make([]MatrixResult, 0, len(specs)*len(seeds))
	prepared := make([]*Prepared, 0, len(specs))
	for _, sp := range specs {
		p, err := Prepare(sp)
		for _, seed := range seeds {
			cells = append(cells, MatrixResult{Spec: sp, Seed: seed, Err: err})
		}
		prepared = append(prepared, p)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range cells {
		if cells[i].Err != nil {
			continue // Prepare failed: every cell of the spec reports it
		}
		wg.Add(1)
		go func(c *MatrixResult, p *Prepared) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if observe {
				c.Metrics = obs.NewRegistry()
			}
			if traced {
				c.Outcome, c.Err = p.RunTraced(c.Seed, c.Metrics)
			} else {
				c.Outcome, c.Err = p.RunObserved(c.Seed, c.Metrics)
			}
		}(&cells[i], prepared[i/len(seeds)])
	}
	wg.Wait()
	return cells
}
