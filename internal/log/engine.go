package log

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/rb"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/xtrace"
)

// Entry is one committed command of the replicated log.
type Entry struct {
	// Index is the 0-based position in the committed command sequence.
	Index int
	// Instance is the consensus instance whose decided batch carried the
	// command.
	Instance types.Instance
	// Cmd is the command itself.
	Cmd types.Value
}

// Config assembles a log Engine.
type Config struct {
	// Env is the process environment (simulation or real-time). The
	// engine stamps each instance's traffic with its instance number via
	// a wrapping Env, so Env itself stays instance-agnostic.
	Env proto.Env
	// Engine carries the per-instance protocol knobs (K, TimeUnit,
	// Timeout, Mode, Relay, MaxRounds). Env, OnDecide and BotMode are
	// overridden per instance; BotMode is always on (see package doc).
	Engine core.Config
	// BatchSize caps the commands per proposed batch (default 16).
	BatchSize int
	// Pipeline is the window of instances that may be in flight, W
	// (default 4): this process never proposes at or past applied+W, and
	// an instance inside the window starts only on demand (see
	// Engine.demanded). W is also the number of lanes the pending set is
	// striped over (see canonicalBatch), which makes it a cluster-wide
	// parameter like n and t: replicas that disagree on it propose
	// different batches for the same instance and decide ⊥ until they
	// agree.
	Pipeline int
	// MaxLead bounds how far past the local apply point an inbound
	// message's instance may be before it is dropped (default 256). It
	// is a flow-control/memory guard against Byzantine peers naming
	// absurd instances. The tradeoff is liveness for a severely lagging
	// replica: a peer's lead is bounded relative to the PEER's apply
	// point, not ours, so if the rest of the cluster runs more than
	// MaxLead instances ahead of us (possible under long asynchrony,
	// since n−t quorums exclude us), their protocol messages for those
	// instances are dropped and never resent, and we cannot commit past
	// that point on our own. Catching such a replica up needs state
	// transfer: OnDroppedAhead surfaces the pressure, sm.Transfer fetches
	// a peer snapshot, and InstallSnapshot resumes consensus from its
	// boundary. Target-bounded runs without a transfer layer are
	// unaffected in practice when MaxLead exceeds the total instance
	// count.
	MaxLead types.Instance
	// OnDroppedAhead, if non-nil, fires for every message the MaxLead
	// guard drops, with the instance the message named. Persistent fire
	// at instances far past `applied` is the lag signal: the cluster has
	// outrun this replica and (after compaction retires the peers' echo
	// service) replay can no longer close the gap. The snapshot-transfer
	// layer (sm.Transfer) turns this pressure into a fetch trigger. The
	// hook must not call back into the engine.
	OnDroppedAhead func(i types.Instance)
	// Target stops the engine from starting new instances once this many
	// commands committed (0 = unlimited; use Close). All correct
	// processes must configure the same Target: the stop rule is a
	// deterministic function of the applied prefix, which keeps instance
	// starts symmetric.
	Target int
	// OnCommit, if non-nil, is called for every committed command, in
	// log order.
	OnCommit func(e Entry)
	// OnApply, if non-nil, is called after each instance is applied (all
	// its commits delivered), with the number of entries it contributed.
	// The state-machine layer (internal/sm) drives its snapshot cadence
	// from this hook; snapshots at instance boundaries are what make log
	// compaction exact.
	OnApply func(i types.Instance, newly int)
	// Metrics is the engine's tally (obs.NewLogMetrics), which its
	// accessors read; nil counts into private cells. Instruments are
	// passive atomic cells: increments never schedule events or alter
	// protocol behavior, so an observed run stays schedule-identical to an
	// unobserved one. A nil Engine.RBMetrics likewise gets private cells,
	// shared by the relay and every instance's rb layer.
	Metrics *obs.LogMetrics
	// Dedup counts the loose messages the first-message rule discarded
	// (see OnMessage); nil counts into private cells. Passive like
	// Metrics.
	Dedup *obs.DedupMetrics
	// Tracer, if non-nil, attaches causal command tracing
	// (internal/xtrace): span emission at submission, batch formation,
	// instance proposal, commit and decide, propagated into every
	// per-instance consensus engine (RB phase spans) and the coalescing
	// relay (flush spans). Passive like Metrics — a traced run stays
	// schedule-identical to an untraced one.
	Tracer *xtrace.Tracer

	Coalesce, CanonicalBatches bool // inert, read by nothing: benchmark/sim.go still assigns them; ROADMAP 13(c) deletes them
}

// Engine is one correct replica of the replicated log. It implements
// proto.Handler: a runtime feeds it every delivery as it arrives, and it
// applies the first-message rule and demultiplexes to per-instance
// consensus engines (see OnMessage).
//
// Like the core engine it is single-threaded by design: all calls
// (OnMessage, Start, Submit) must come from the hosting runtime's event
// loop or simulation callbacks.
type Engine struct {
	cfg Config

	insts   map[types.Instance]*instance
	decided map[types.Instance]types.Value // decided, not yet applied
	// recent caches insts for the instances messages named last, by
	// instance number modulo recentInstances: a relay vector hands over
	// its entries in runs that share an instance, cycling through the
	// few instances in flight, and each run finds its engine without a
	// map lookup. Whatever deletes from insts clears it.
	recent [recentInstances]recentInstance

	nextStart types.Instance // next instance this process will propose in
	applied   types.Instance // instances [0, applied) are applied
	// named is one past the highest instance an accepted message named:
	// the engine joins every instance below it (see demanded).
	named types.Instance

	// cmds holds every command the engine is tracking: pending, carried
	// by an own unapplied proposal, or committed inside the dedup window.
	// pending counts the pending ones; uncovered those with no own
	// proposal carrying them — the reason to open an instance.
	cmds      map[types.Value]cmdState
	pending   int
	uncovered int
	// lanes stripe the pending commands over Pipeline queues (see
	// canonicalBatch), allocated at the first Submit.
	lanes   []lane
	entries []Entry // retained suffix: entries [entriesBase, Committed())

	floor       types.Instance // instances < floor are compacted away
	entriesBase int            // entries below this index were trimmed

	running bool
	closed  bool
	resumed bool  // engine was realigned from durable state (Resume)
	err     error // first per-instance construction error, if any

	relay *rb.Relay // coalescing relay: fronts dispatch, backs every instance env
}

var _ proto.Handler = (*Engine)(nil)

// recentInstances is the size of the engine's recent-instance cache:
// above the pipeline depth and the instances a laggard still asks about.
const recentInstances = 16

// recentInstance is one slot of the recent-instance cache; nil inst is
// empty.
type recentInstance struct {
	id   types.Instance
	inst *instance
}

// cmdState is the engine's whole bookkeeping for one command: how many
// own proposals in unapplied instances carry it, and whether it is
// pending or committed inside the retained dedup window.
type cmdState struct {
	inFlight           int32
	pending, committed bool
}

// lane is one queue of pending commands, put in content order when it is
// read (readLane): sorted as of the last read, then what arrived since.
// Both may still hold commands no longer pending, or held twice.
type lane struct {
	sorted   []types.Value
	arrivals []types.Value
}

// instance pairs one consensus engine with its instance-scoped state.
type instance struct {
	eng      *core.Engine
	ownBatch []types.Value // commands this process proposed (until released)
	proposal types.Value   // the encoded batch it proposed ("" = none yet)
}

// New builds a log engine (idle until Start).
func New(cfg Config) (*Engine, error) {
	if cfg.Env == nil {
		return nil, fmt.Errorf("log: nil Env")
	}
	p := cfg.Env.Params()
	if err := p.Validate(true); err != nil {
		return nil, fmt.Errorf("log: %w", err)
	}
	if cfg.Engine.K < 0 || cfg.Engine.K > p.T {
		return nil, fmt.Errorf("log: k must be in [0, t], got %d", cfg.Engine.K)
	}
	if cfg.Engine.TimeUnit <= 0 && cfg.Engine.Timeout == nil {
		cfg.Engine.TimeUnit = 10 * time.Millisecond // default EA timer unit
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.Pipeline <= 0 {
		cfg.Pipeline = 4
	}
	if cfg.MaxLead <= 0 {
		cfg.MaxLead = 256
	}
	if cfg.MaxLead < types.Instance(cfg.Pipeline)+1 {
		cfg.MaxLead = types.Instance(cfg.Pipeline) + 1
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewLogMetrics(nil, "")
	}
	if cfg.Engine.RBMetrics == nil {
		cfg.Engine.RBMetrics = obs.NewRBMetrics(nil, "")
	}
	if cfg.Dedup == nil {
		cfg.Dedup = obs.NewDedupMetrics(nil, "")
	}
	l := &Engine{
		cfg:     cfg,
		insts:   make(map[types.Instance]*instance),
		decided: make(map[types.Instance]types.Value),
		cmds:    make(map[types.Value]cmdState),
	}
	l.relay = rb.NewRelay(rb.RelayConfig{
		Env:     cfg.Env,
		Sink:    l.dispatch,
		Metrics: cfg.Engine.RBMetrics,
		Tracer:  cfg.Tracer,
		// The relay allocates state (value cache, first-message table,
		// parking lot) only for traffic dispatch would accept, so
		// instances a Byzantine peer fabricates far ahead of the pipeline
		// cannot grow relay memory — they are dropped (and counted against
		// the lag signal) exactly like loose messages.
		Window: l.inWindow,
	})
	return l, nil
}

// Start opens the pipeline: the engine proposes in as many of the
// Pipeline instances from its apply point as there is demand for (see
// demanded) — none on an idle cluster. Submit may be called before or
// after Start; commands submitted before are carried by the initial
// batches.
func (l *Engine) Start() error {
	if l.running {
		return fmt.Errorf("log: Start called twice")
	}
	l.running = true
	l.fill()
	return l.err
}

// fill proposes in every instance the start rule allows right now. It
// runs wherever an input of the rule changes: Start, Submit, dispatch,
// after each apply and after InstallSnapshot.
func (l *Engine) fill() {
	for l.running && !l.closed && l.nextStart < l.applied+types.Instance(l.cfg.Pipeline) && l.demanded() {
		l.startNext()
	}
}

// demanded is the start rule inside the window: the engine proposes in
// instance nextStart only when there is something to decide:
//
//	(a) a pending command that none of this process's proposals in
//	    not-yet-applied instances carries, or
//	(b) a message naming an instance at or past nextStart — some process
//	    opened it, and it needs n−t proposers to terminate, so this one
//	    joins it and every instance before it.
//
// Coverage is released at apply, not at decide: a decided batch waiting
// for its predecessors still pins its commands in pending, and opening
// another instance for them would order them twice. With deep queues (a)
// always holds and the window stays full; an idle cluster satisfies
// neither and decides nothing.
func (l *Engine) demanded() bool {
	return l.uncovered > 0 || l.nextStart < l.named
}

// Submit enqueues a client command for ordering. Commands are identified
// by content: re-submitting a pending or committed command is a no-op
// (idempotent client retries). The reserved ⊥ value is rejected.
func (l *Engine) Submit(cmd types.Value) error {
	err := l.enqueue(cmd)
	l.fill()
	return err
}

// enqueue is Submit without the start rule: learn enqueues a whole batch
// before any instance may open for it.
func (l *Engine) enqueue(cmd types.Value) error {
	if cmd == types.BotValue {
		return fmt.Errorf("log: cannot submit the reserved ⊥ value")
	}
	st := l.cmds[cmd]
	if st.committed || st.pending {
		return nil
	}
	st.pending = true
	l.cmds[cmd] = st
	l.pending++
	if st.inFlight == 0 {
		l.uncovered++
	}
	if l.lanes == nil {
		l.lanes = make([]lane, l.cfg.Pipeline)
	}
	ln := &l.lanes[laneOf(cmd, l.cfg.Pipeline)]
	ln.arrivals = append(ln.arrivals, cmd)
	l.cfg.Tracer.OnSubmit(cmd)
	return nil
}

// Close stops the engine from starting new instances. In-flight instances
// keep running (they may still commit), and the engine keeps serving the
// reliable-broadcast layers of old instances for slower peers.
func (l *Engine) Close() { l.closed = true }

// OnMessage implements proto.Handler: demultiplex to the instance engine.
// A peer's forwarded client command (MsgKVRequest) is submitted before
// anything else looks at it. Forwards deliberately bypass the admission
// pool: the pool bounds CLIENT admissions on the serving replica, a
// forwarded command was already admitted somewhere, and dropping it here
// would break the client-broadcast model the forward recreates. Any peer
// may send one unasked, so it is trusted no further than Submit trusts
// its caller: content dedup makes a repeat free, and ⊥ is refused.
//
// A rule-bound message (proto.MsgKind.RuleBound) inside the window passes
// the first-message rule next, in the relay's table — the one its vector
// entries pass — so the engine's whole inbound traffic is deduplicated in
// one place, in state the window bounds and Compact retires. A repeat is
// dropped and counted (Config.Dedup); an identity no correct process sends
// is refused before it allocates. A message outside the window touches no
// table: dispatch's guards count it and fire the lag signal.
//
// The relay then fronts the dispatch of everything else — it consumes its
// carrier frames (unpacking each vector entry back into the loose message
// it replaces and feeding it to dispatch, where the MaxLead and floor
// guards apply per entry exactly as they would per loose message) and
// passively learns INIT values for the echo-by-hash cache.
func (l *Engine) OnMessage(from types.ProcID, m proto.Message) {
	if m.Kind == proto.MsgKVRequest {
		_ = l.Submit(m.Val) // a ⊥ command is the only error: skip it
		return
	}
	if m.Kind.RuleBound() && l.inWindow(m.Instance) {
		if first, dup := l.relay.Admit(from, m); !first {
			if dup {
				l.cfg.Dedup.DroppedDuplicates.Inc()
			}
			return
		}
	}
	if l.relay.Inbound(from, m) {
		return
	}
	l.dispatch(from, m)
}

// inWindow is the dispatch guards as a predicate: instance i is neither
// compacted nor MaxLead past the apply point.
func (l *Engine) inWindow(i types.Instance) bool {
	return i >= l.floor && i < l.applied+l.cfg.MaxLead
}

// dispatch routes one (possibly relay-unpacked) message by instance.
func (l *Engine) dispatch(from types.ProcID, m proto.Message) {
	i := m.Instance
	if i < 0 || i >= l.applied+l.cfg.MaxLead {
		l.cfg.Metrics.DroppedAhead.Inc()
		if l.cfg.OnDroppedAhead != nil && i > 0 {
			l.cfg.OnDroppedAhead(i)
		}
		return
	}
	if i < l.floor {
		// The instance was compacted: its state is gone and its outcome is
		// already reflected in the applied prefix (and any snapshot).
		l.cfg.Metrics.DroppedRetired.Inc()
		return
	}
	l.named = max(l.named, i+1)
	l.learn(from, m)
	l.fill()
	inst := l.getInstance(i)
	if inst == nil {
		return
	}
	inst.eng.OnMessage(from, m)
}

// learn makes a proposal double as a forward: the CB[0] INIT a process
// sends for its own batch carries the commands it holds, and a replica
// that has not heard of them yet (the originator's forward is still on a
// slower link) enqueues them before it decides whether to start — so it
// joins the instance with the same batch instead of an empty one, which
// would split the proposals and decide ⊥. The trust is that of a
// forwarded MsgKVRequest, which any peer may send unasked: the batch
// must decode and hold at most BatchSize commands, and only INITs for
// instances inside the window count, so a Byzantine peer plants at most
// one batch per open instance.
func (l *Engine) learn(from types.ProcID, m proto.Message) {
	if m.Kind != proto.MsgRBInit || m.Tag.Mod != proto.ModConsCB0 || from != m.Origin ||
		m.Instance < l.applied || m.Instance >= l.applied+types.Instance(l.cfg.Pipeline) {
		return
	}
	if inst := l.insts[m.Instance]; inst != nil && inst.proposal == m.Val {
		return // the batch this process proposed itself: nothing new in it
	}
	cmds, err := DecodeBatch(m.Val)
	if err != nil || len(cmds) > l.cfg.BatchSize {
		return
	}
	for _, c := range cmds {
		_ = l.enqueue(c) // a ⊥ command is the only error: skip it
	}
}

// getInstance lazily builds the consensus engine of instance i. Engines
// are created on first contact — our own proposal or a faster peer's
// message — and kept for the lifetime of the log so laggards can still
// obtain reliable-broadcast echoes of old instances.
func (l *Engine) getInstance(i types.Instance) *instance {
	slot := &l.recent[uint64(i)%recentInstances]
	if slot.inst != nil && slot.id == i {
		return slot.inst
	}
	if inst, ok := l.insts[i]; ok {
		*slot = recentInstance{id: i, inst: inst}
		return inst
	}
	// Gap backfill after a durable restart (Resume): a peer message for
	// an instance we already applied but hold no engine for means a
	// restarted replica is re-running instances it never finished.
	// Participating reactively is not enough — a consensus instance only
	// decides with n−t PROPOSING processes — so propose an empty batch
	// into it. Our own state is untouched (decisions below the applied
	// boundary are discarded in onInstanceDecided); the proposal exists
	// purely to give restarted peers their quorum. Gated on resumed:
	// outside durable restarts this path is unreachable (engines for
	// applied instances always exist until compacted, and compacted ones
	// are dropped before dispatch).
	backfill := l.resumed && i < l.applied
	ecfg := l.cfg.Engine
	// The relay sits between the instance envs and the real environment,
	// so every instance's ECHO/READY broadcasts land in the shared
	// coalescing buffer (that sharing IS the cross-instance batching).
	ecfg.Env = &instEnv{base: l.relay, id: i}
	ecfg.BotMode = true
	ecfg.Tracer = l.cfg.Tracer
	ecfg.TraceInstance = i
	ecfg.OnDecide = func(v types.Value) { l.onInstanceDecided(i, v) }
	eng, err := core.New(ecfg)
	if err != nil {
		if l.err == nil {
			l.err = fmt.Errorf("log: instance %v: %w", i, err)
		}
		return nil
	}
	inst := &instance{eng: eng}
	l.insts[i] = inst
	*slot = recentInstance{id: i, inst: inst}
	if backfill {
		inst.proposal = EncodeBatch(nil)
		if err := eng.Propose(inst.proposal); err != nil && l.err == nil {
			l.err = fmt.Errorf("log: backfill instance %v: %w", i, err)
		}
	}
	return inst
}

// startNext proposes in the next instance of the pipeline; fill decides
// when.
func (l *Engine) startNext() {
	i := l.nextStart
	l.nextStart++
	inst := l.getInstance(i)
	if inst == nil {
		return
	}
	batch := l.canonicalBatch(i)
	inst.ownBatch = batch
	inst.proposal = EncodeBatch(batch)
	for _, c := range batch {
		st := l.cmds[c]
		if st.inFlight++; st.inFlight == 1 && st.pending {
			l.uncovered--
		}
		l.cmds[c] = st
	}
	if tr := l.cfg.Tracer; tr != nil {
		tr.OnPropose(i)
		for _, c := range batch {
			tr.OnBatched(c, i)
		}
	}
	l.cfg.Metrics.Proposals.Inc()
	l.cfg.Metrics.ProposedCommands.Add(uint64(len(batch)))
	l.syncGauges()
	if err := inst.eng.Propose(inst.proposal); err != nil && l.err == nil {
		l.err = fmt.Errorf("log: instance %v: %w", i, err)
	}
}

// release ends the coverage inst's own batch gave its commands: those
// still pending count as uncovered again.
func (l *Engine) release(inst *instance) {
	for _, c := range inst.ownBatch {
		st := l.cmds[c]
		if st.inFlight--; st.inFlight <= 0 {
			st.inFlight = 0
			if st.pending {
				l.uncovered++
			}
		}
		l.setState(c, st)
	}
	inst.ownBatch = nil
}

// setState stores a command's state, forgetting a command the engine no
// longer tracks.
func (l *Engine) setState(c types.Value, st cmdState) {
	if st == (cmdState{}) {
		delete(l.cmds, c)
		return
	}
	l.cmds[c] = st
}

// syncGauges refreshes the live-level gauges.
func (l *Engine) syncGauges() {
	m := l.cfg.Metrics
	m.AppliedInstances.Set(int64(l.applied))
	m.PendingCommands.Set(int64(l.pending))
	m.PipelineDepth.Set(int64(l.nextStart - l.applied))
}

// canonicalBatch selects the up to BatchSize pending commands this
// process proposes in instance i. Every pending command belongs to lane
// laneOf(c) of Pipeline lanes; instance i's home lane is
// i mod Pipeline. The batch is the sorted head of the home lane, then —
// while it is short of BatchSize — it spills into the sorted heads of
// lanes home+1, home+2, … in turn.
//
// The batch is a pure function of (pending set, i, Pipeline). It never
// reads inFlight or anything else that records WHEN this process saw an
// instance decide: a partition by local decide timing puts replicas out
// of phase, and they then propose mismatched batches — ⊥ — forever.
// Replicas holding the same pending set propose the same encoding for
// every instance, whatever order the commands arrived in.
//
// With deep queues the Pipeline instances in flight have home lanes of
// their own and carry disjoint batches, so P instances order P batches.
// Spill is why a shallow queue costs nothing: with at most BatchSize
// commands pending every instance carries all of them, and a lone
// command commits in the next instance to decide, not only when its
// lane's turn comes round (a pure partition without spill costs a live
// cluster that wait). A lane whose instance decides ⊥ finds its commands
// still pending in instance i+Pipeline. A Byzantine client that crafts
// every command into one lane makes all instances carry that lane's head
// — one useful batch per Pipeline instances, the cost every workload
// paid before lanes — and no worse.
func (l *Engine) canonicalBatch(i types.Instance) []types.Value {
	if l.pending == 0 {
		return nil // and before the first Submit there are no lanes yet
	}
	p := l.cfg.Pipeline
	home := int(i % types.Instance(p))
	batch := make([]types.Value, 0, min(l.cfg.BatchSize, l.pending))
	for d := 0; d < p && len(batch) < l.cfg.BatchSize; d++ {
		batch = append(batch, l.readLane((home+d)%p, l.cfg.BatchSize-len(batch))...)
	}
	return batch
}

// readLane returns the sorted head of lane k's pending commands, up to
// need of them: arrivals since the last read are sorted and merged into
// the sorted rest in one pass that drops commands no longer pending and
// repeats (O(L + a log a)), and the head scan drops what it skips. The
// cost is paid per batch formed, not per Submit and per commit.
func (l *Engine) readLane(k, need int) []types.Value {
	ln := &l.lanes[k]
	if len(ln.arrivals) > 0 {
		slices.Sort(ln.arrivals)
		a, b := ln.sorted, ln.arrivals
		out := make([]types.Value, 0, len(a)+len(b))
		for len(a) > 0 || len(b) > 0 {
			var c types.Value
			if len(b) == 0 || (len(a) > 0 && a[0] <= b[0]) {
				c, a = a[0], a[1:]
			} else {
				c, b = b[0], b[1:]
			}
			if (len(out) > 0 && out[len(out)-1] == c) || !l.cmds[c].pending {
				continue
			}
			out = append(out, c)
		}
		clear(ln.arrivals)
		ln.sorted, ln.arrivals = out, ln.arrivals[:0]
	}
	s := ln.sorted
	r, w := 0, 0
	for ; r < len(s) && w < need; r++ {
		if l.cmds[s[r]].pending {
			s[w] = s[r]
			w++
		}
	}
	// Slide the head up against the unscanned rest, over what it skipped.
	copy(s[r-w:], s[:w])
	clear(s[:r-w])
	ln.sorted = s[r-w:]
	return ln.sorted[:w]
}

// laneOf maps a command to one of the lanes by content: FNV-64a, the
// hash xtrace derives command IDs from, folded so that a small modulus
// sees the well-mixed high half (the low bits of FNV-1a depend only on
// the low bits of each input byte). It is part of the batch rule every
// replica must share — never a seeded or per-process hash.
func laneOf(c types.Value, lanes int) int {
	h := uint64(xtrace.CommandID(c))
	return int((h ^ h>>32) % uint64(lanes))
}

// onInstanceDecided records instance i's decision and applies any newly
// contiguous prefix.
func (l *Engine) onInstanceDecided(i types.Instance, v types.Value) {
	l.cfg.Tracer.OnDecide(i)
	if i < l.applied {
		// A backfilled gap instance (see getInstance) re-decided below our
		// applied boundary: its outcome is already reflected in our state,
		// and buffering it would only leak. Unreachable outside durable
		// restarts.
		return
	}
	l.decided[i] = v
	l.tryApply()
}

// tryApply applies decided instances in instance order. Applying is where
// commands commit: every correct process applies the same decided batches
// in the same order and runs the same dedup, so the committed command
// sequences are identical (total order).
func (l *Engine) tryApply() {
	for {
		v, ok := l.decided[l.applied]
		if !ok {
			l.syncGauges()
			return
		}
		delete(l.decided, l.applied)
		i := l.applied
		l.applied++
		// An instance decided through its peers alone (before Start, or
		// closed) is not one to propose in any more.
		l.nextStart = max(l.nextStart, l.applied)
		newly := 0
		if v != types.BotValue {
			if cmds, err := DecodeBatch(v); err == nil {
				for _, c := range cmds {
					if !l.commit(c) {
						continue
					}
					e := Entry{Index: l.entriesBase + len(l.entries), Instance: i, Cmd: c}
					l.entries = append(l.entries, e)
					newly++
					l.cfg.Metrics.Committed.Inc()
					l.cfg.Tracer.OnCommitted(c, i)
					if l.cfg.OnCommit != nil {
						l.cfg.OnCommit(e)
					}
				}
			}
		}
		if newly == 0 {
			l.cfg.Metrics.NoOps.Inc()
		}
		if inst := l.insts[i]; inst != nil {
			// Coverage ends at apply, not at decide: what the decision
			// did not commit (⊥, or a peer's batch) is uncovered again
			// and re-opens an instance below.
			l.release(inst)
		}
		if l.cfg.OnApply != nil {
			// The hook may snapshot and call Compact re-entrantly; Compact
			// touches only state below the applied boundary, so the loop's
			// own bookkeeping (decided, applied) stays coherent.
			l.cfg.OnApply(i, newly)
		}
		if l.cfg.Target > 0 && l.Committed() >= l.cfg.Target {
			l.closed = true
		}
		l.fill()
	}
}

// Compact retires every instance below floor wholesale: the per-instance
// consensus engines (with all their RB/CB/AC/EA bookkeeping), the
// committed-entry prefix those instances produced, the commit-dedup
// entries of the trimmed commands, and the relay's state for them — its
// first-message table included. floor is clamped to the applied
// boundary: unapplied instances are never compacted.
//
// Dropping commit-dedup entries means a command committed before floor
// can commit AGAIN if a client (or Byzantine proposer) re-submits it:
// bounded memory moves the exactly-once obligation up to the state
// machine's session layer (internal/kv), which is the classic SMR
// arrangement. Total order is unaffected: compaction instants are a
// deterministic function of the applied prefix, so every correct replica
// trims identical state at identical prefix points.
//
// Safety of retiring instance engines mid-run: an engine is only retired
// after this replica applied its decision, by which point the replica has
// broadcast every contribution the instance will ever need from it (a
// decided core engine halts its round loop and has already sent its
// DECIDE). Laggards therefore still receive all previously sent traffic;
// what they lose is the retired replica's future echo service, which a
// snapshot-based state transfer — Recover on the sm layer — replaces.
//
// Returns the number of instance engines released.
func (l *Engine) Compact(floor types.Instance) int {
	if floor > l.applied {
		floor = l.applied
	}
	if floor <= l.floor {
		return 0
	}
	released := 0
	l.recent = [recentInstances]recentInstance{}
	for i := l.floor; i < floor; i++ {
		if _, ok := l.insts[i]; ok {
			delete(l.insts, i)
			released++
		}
	}
	trim := 0
	for trim < len(l.entries) && l.entries[trim].Instance < floor {
		c := l.entries[trim].Cmd
		st := l.cmds[c]
		st.committed = false
		l.setState(c, st)
		trim++
	}
	if trim > 0 {
		// Slide the suffix down in place and clear what it vacated, so the
		// trimmed commands become collectable while the backing array is
		// kept for the entries the next instances append.
		n := copy(l.entries, l.entries[trim:])
		clear(l.entries[n:])
		l.entries = l.entries[:n]
		l.entriesBase += trim
	}
	l.floor = floor
	l.cfg.Metrics.Compactions.Inc()
	l.cfg.Metrics.RetiredInstances.Add(uint64(released))
	l.relay.RetireInstancesBefore(floor)
	return released
}

// InstallSnapshot jumps the engine forward to a snapshot boundary
// obtained from a peer: instances [0, boundary) are declared applied
// without local decisions, index is the number of commands the
// snapshot's state already reflects, and retained is the entry suffix
// that traveled with the snapshot — the content-dedup window every
// replica carries forward from that boundary. The state machine itself
// must have been installed FIRST (sm.Applier.Install) — this method only
// realigns the ordering layer.
//
// It is Compact generalized past the apply point: every instance below
// boundary is retired wholesale — undecided local engines are Halted
// (their outcome is already inside the snapshot, and their timers must
// not keep firing), own in-flight batches are released back to pending
// accounting, buffered decisions below the boundary are discarded, the
// local entry log is replaced by the transferred suffix, and the relay
// (first-message table included) drops everything below the suffix.
//
// Seeding entries and content dedup from the transferred suffix is a
// CORRECTNESS requirement, not bookkeeping: commit/skip decisions are
// part of the replicated state. The peers still hold dedup entries for
// their retained window, so an in-flight instance re-deciding one of
// those commands is skipped by every peer — a receiver installed with an
// empty dedup would commit it, forking the entry streams (and, through
// the session layer's duplicate counters, the state digests). With the
// suffix seeded, the receiver's dedup window — and every future
// compaction instant, which trims it — is byte-for-byte the function of
// the committed prefix it is on every other correct replica.
//
// After the jump the pipeline restarts at the boundary: nextStart moves
// to max(nextStart, boundary) and fill proposes in what the start rule
// allows there — the instances peers already named — so the replica
// resumes proposing with the cluster. Buffered decisions at or past the boundary then
// apply normally via tryApply.
//
// Errors: boundary must exceed the current apply point (stale snapshots
// are the caller's problem to filter), index must not run behind the
// locally committed count (a snapshot claiming fewer commands than we
// already applied contradicts total order), and the retained suffix must
// be index-contiguous ending at index−1 with ascending instances below
// boundary — defense against forged payload structure.
func (l *Engine) InstallSnapshot(boundary types.Instance, index int, retained []Entry) error {
	if boundary <= l.applied {
		return fmt.Errorf("log: snapshot boundary %v not past applied %v", boundary, l.applied)
	}
	if index < l.Committed() {
		return fmt.Errorf("log: snapshot index %d behind committed %d", index, l.Committed())
	}
	if len(retained) > index {
		return fmt.Errorf("log: %d retained entries exceed snapshot index %d", len(retained), index)
	}
	base := index - len(retained)
	prevInst := types.Instance(-1)
	for k, e := range retained {
		if e.Index != base+k {
			return fmt.Errorf("log: retained entry %d has index %d, want %d", k, e.Index, base+k)
		}
		if e.Instance < prevInst || e.Instance >= boundary {
			return fmt.Errorf("log: retained entry %d instance %v out of order for boundary %v", k, e.Instance, boundary)
		}
		prevInst = e.Instance
	}
	// Instance-number order, not map order: Halt cancels timers in the
	// shared scheduler, and determinism requires an iteration order that
	// is a pure function of the engine state.
	l.recent = [recentInstances]recentInstance{}
	for i := l.floor; i < boundary; i++ {
		inst, ok := l.insts[i]
		if !ok {
			continue
		}
		l.release(inst)
		inst.eng.Halt()
		delete(l.insts, i)
		l.cfg.Metrics.RetiredInstances.Inc()
	}
	for i := range l.decided {
		if i < boundary {
			delete(l.decided, i)
		}
	}
	// Replace the local entry log (all of it predates the boundary — we
	// had applied less than the snapshot covers) with the transferred
	// suffix, and rebuild content dedup from it. Drop the whole pending
	// queue too, not just the retained window: pending commands
	// committed in the SKIPPED prefix are invisible here (their dedup was
	// compacted away everywhere), and re-proposing one would make it
	// commit a second time on every replica — a duplicate entry that
	// double-counts against entry-count stop rules. Nothing is lost: in
	// the client-broadcast model every command was submitted to all
	// replicas, so anything genuinely uncommitted is still pending at the
	// peers, which propose it. Only the own-proposal counts of instances
	// at or past the boundary survive.
	for c, st := range l.cmds {
		st.pending, st.committed = false, false
		l.setState(c, st)
	}
	l.seedCommitted(retained)
	l.entriesBase = base
	l.lanes = nil
	l.pending, l.uncovered = 0, 0
	l.applied = boundary
	// The dedup window's floor: the suffix's first instance, exactly
	// where every peer's compaction left ITS floor at this boundary — so
	// future compaction instants (and the dedup trims they perform) stay
	// identical across replicas.
	l.floor = boundary
	if len(l.entries) > 0 {
		l.floor = l.entries[0].Instance
	}
	l.cfg.Metrics.SnapshotInstalls.Inc()
	if l.cfg.Target > 0 && l.Committed() >= l.cfg.Target {
		// The snapshot alone satisfies the stop rule; don't reopen the
		// pipeline just to propose into instances nobody else will run.
		l.closed = true
	}
	l.relay.RetireInstancesBefore(l.floor)
	l.nextStart = max(l.nextStart, boundary)
	l.fill()
	l.tryApply()
	return nil
}

// Resume realigns a FRESH engine (pre-Start) with durable state
// recovered from a local store — the crash-restart counterpart of
// InstallSnapshot. boundary is the highest instance boundary the store
// marked applied, base the index of the first retained entry, and
// retained the entry suffix (snapshot dedup window plus WAL suffix, in
// index order). The state machine must have been restored FIRST
// (sm.Boot does both); this method only realigns the ordering layer:
// the pipeline will open at boundary, the committed-entry log and
// content dedup are seeded from retained, and the compaction floor is
// set exactly where every peer's floor sits at that boundary.
//
// Unlike InstallSnapshot, retained entries MAY carry instances at or
// past boundary: a crash can land between an entry's append and its
// boundary mark, leaving a partially persisted batch. Those entries
// stay committed (applied ⊇ fsync'd) and seed the dedup, so when the
// cluster re-decides their instance the already-held prefix is skipped
// and only the remainder commits — the entry streams stay identical to
// the peers'. Resume also arms gap backfill (see getInstance): peer
// traffic for instances below boundary that we hold no engine for gets
// an empty proposal, which is what lets a whole cluster restarted from
// drifted boundaries converge without a snapshot transfer.
func (l *Engine) Resume(boundary types.Instance, base int, retained []Entry) error {
	if l.running {
		return fmt.Errorf("log: Resume after Start")
	}
	if l.applied != 0 || l.Committed() != 0 || l.floor != 0 || l.resumed {
		return fmt.Errorf("log: Resume on a non-fresh engine")
	}
	if boundary < 0 || base < 0 {
		return fmt.Errorf("log: negative resume position (%v, %d)", boundary, base)
	}
	prevInst := types.Instance(-1)
	for k, e := range retained {
		if e.Index != base+k {
			return fmt.Errorf("log: resumed entry %d has index %d, want %d", k, e.Index, base+k)
		}
		if e.Instance < prevInst {
			return fmt.Errorf("log: resumed entry %d instance %v out of order", k, e.Instance)
		}
		prevInst = e.Instance
	}
	l.seedCommitted(retained)
	l.entriesBase = base
	l.applied = boundary
	l.nextStart = boundary
	l.floor = boundary
	if len(l.entries) > 0 && l.entries[0].Instance < l.floor {
		l.floor = l.entries[0].Instance
	}
	l.resumed = true
	if l.cfg.Target > 0 && l.Committed() >= l.cfg.Target {
		l.closed = true
	}
	l.relay.RetireInstancesBefore(l.floor)
	return nil
}

// seedCommitted makes retained the entry log and its commands the
// content-dedup window.
func (l *Engine) seedCommitted(retained []Entry) {
	l.entries = append([]Entry(nil), retained...)
	for _, e := range l.entries {
		st := l.cmds[e.Cmd]
		st.committed = true
		l.cmds[e.Cmd] = st
	}
}

// commit marks c committed unless the dedup window already holds it, and
// takes it off the pending commands; its lane drops it at the next read.
func (l *Engine) commit(c types.Value) bool {
	st := l.cmds[c]
	if st.committed {
		return false
	}
	st.committed = true
	if st.pending {
		st.pending = false
		l.pending--
		if st.inFlight == 0 {
			l.uncovered--
		}
	}
	l.cmds[c] = st
	return true
}

// Entries returns the retained committed-entry suffix (shared slice;
// callers must not mutate it, and Compact rewrites it in place, so a
// caller that keeps it across one copies it). Before any compaction this
// is the whole log; after, it starts at EntriesBase().
func (l *Engine) Entries() []Entry { return l.entries }

// EntriesBase returns the index of the first retained entry (entries
// below it were trimmed by Compact).
func (l *Engine) EntriesBase() int { return l.entriesBase }

// Committed returns the number of committed commands (including trimmed
// ones).
func (l *Engine) Committed() int { return l.entriesBase + len(l.entries) }

// Applied returns the number of applied instances (instances [0, Applied)
// are applied).
func (l *Engine) Applied() types.Instance { return l.applied }

// Pending returns the number of submitted, uncommitted commands.
func (l *Engine) Pending() int { return l.pending }

// InFlight returns the number of instances this process proposed in and
// has not applied yet.
func (l *Engine) InFlight() int { return int(l.nextStart - l.applied) }

// Quiescent reports that the engine has nothing to decide: no pending
// command, no own instance in flight, and no message named an instance
// at or past the apply point. An idle engine rests here, and a
// frozen apply position then means "nothing was asked", not "stalled".
func (l *Engine) Quiescent() bool {
	return l.pending == 0 && l.nextStart == l.applied && l.named <= l.applied
}

// BatchSize returns the effective batch cap (default applied).
func (l *Engine) BatchSize() int { return l.cfg.BatchSize }

// Pipeline returns the effective pipeline depth and lane count (default
// applied). It must agree across the cluster, which is why /statusz
// reports it.
func (l *Engine) Pipeline() int { return l.cfg.Pipeline }

// NoOps returns how many applied instances committed nothing new
// (⊥ decisions, undecodable batches, or fully duplicate batches).
func (l *Engine) NoOps() int { return int(l.cfg.Metrics.NoOps.Value()) }

// DroppedAhead returns how many messages the MaxLead guard dropped.
func (l *Engine) DroppedAhead() uint64 { return l.cfg.Metrics.DroppedAhead.Value() }

// DroppedRetired returns how many messages arrived for compacted
// instances.
func (l *Engine) DroppedRetired() uint64 { return l.cfg.Metrics.DroppedRetired.Value() }

// Floor returns the compaction floor: instances < Floor are retired.
func (l *Engine) Floor() types.Instance { return l.floor }

// Retired returns how many instance engines Compact and InstallSnapshot
// have released.
func (l *Engine) Retired() int { return int(l.cfg.Metrics.RetiredInstances.Value()) }

// Installs returns how many peer snapshots InstallSnapshot has applied.
func (l *Engine) Installs() int { return int(l.cfg.Metrics.SnapshotInstalls.Value()) }

// Closed reports whether the engine stopped starting new instances.
func (l *Engine) Closed() bool { return l.closed }

// Err returns the first internal construction error, if any.
func (l *Engine) Err() error { return l.err }

// Instance exposes the consensus engine of instance i (introspection;
// nil if never touched).
func (l *Engine) Instance(i types.Instance) *core.Engine {
	if inst, ok := l.insts[i]; ok {
		return inst.eng
	}
	return nil
}

// Instances returns the number of instantiated consensus engines.
func (l *Engine) Instances() int { return len(l.insts) }

// Relay exposes the coalescing relay for introspection (never nil).
func (l *Engine) Relay() *rb.Relay { return l.relay }

// instEnv wraps the process environment for one instance: outgoing
// messages are stamped with the instance number; everything else
// delegates. This is how the instance-agnostic protocol stack
// (rb/cb/ac/ea/core) runs unchanged inside a multi-instance log.
type instEnv struct {
	base proto.Env
	id   types.Instance
}

var _ proto.Env = (*instEnv)(nil)

func (e *instEnv) ID() types.ProcID     { return e.base.ID() }
func (e *instEnv) Params() types.Params { return e.base.Params() }
func (e *instEnv) Now() types.Time      { return e.base.Now() }

func (e *instEnv) Send(to types.ProcID, m proto.Message) {
	m.Instance = e.id
	e.base.Send(to, m)
}

func (e *instEnv) Broadcast(m proto.Message) {
	m.Instance = e.id
	e.base.Broadcast(m)
}

func (e *instEnv) SetTimer(d types.Duration, fn func()) (cancel func()) {
	return e.base.SetTimer(d, fn)
}

func (e *instEnv) Trace() trace.Sink { return e.base.Trace() }
