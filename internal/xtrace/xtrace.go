// Package xtrace is the causal command-tracing layer: every client
// command gets a deterministic trace ID at admission and emits typed
// spans as it crosses layers — txpool admission, log submission, batch
// formation, consensus, state-machine apply, client response — plus
// protocol-level spans for instance proposal, RB phase transitions and
// coalesced relay flushes.
//
// Design constraints, in order:
//
//   - Passivity. A Tracer never touches the process environment: no
//     timers, no messages, no emissions into the digest-hashed
//     trace.Log. Attaching one must leave every golden scenario digest
//     byte-identical (proven by TestTracedDigestsUnchanged in
//     internal/scenario).
//   - Nil is free. Every method is safe on a nil *Tracer and costs one
//     branch, so hot paths guard with a single `if t != nil` at most.
//   - Bounded. In-flight per-command and per-instance state lives in
//     maps capped at maxInflight; the span sink is a fixed-size ring
//     (Recorder). A tracer can run forever without growing.
//
// Trace IDs are content-derived (FNV-64a over the encoded command
// bytes), so the same command traced independently on every replica
// yields the same ID — cmd/minsync-trace joins per-replica dumps on it
// without any wire-level propagation. See docs/tracing.md.
package xtrace

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/types"
)

// Stage names the layer transition a Span measures. The five canonical
// command stages (admit_wait, batch_wait, consensus, apply, respond)
// partition a command's life and feed obs.StageMetrics; the remaining
// stages are protocol-level annotations (per consensus instance, not
// per command).
type Stage string

// Command-life stages (feed stage-latency histograms).
const (
	// StageAdmitWait: client edge admission → accepted by log.Submit.
	// Live mode only; simulated workloads submit directly.
	StageAdmitWait Stage = obs.StageAdmitWait
	// StageBatchWait: accepted by Submit → first included in a
	// proposed batch.
	StageBatchWait Stage = obs.StageBatchWait
	// StageConsensus: batched (or, for commands first seen in another
	// proposer's batch, submitted) → committed in the total order.
	StageConsensus Stage = obs.StageConsensus
	// StageApply: committed → applied by the state machine.
	StageApply Stage = obs.StageApply
	// StageRespond: response resolved at the client edge → response
	// written to the client. Live mode only.
	StageRespond Stage = obs.StageRespond
)

// Protocol-level stages (per consensus instance).
const (
	// StagePropose: this replica proposed a batch for the instance.
	StagePropose Stage = "propose"
	// StageDecide: instance proposal → instance decided locally.
	StageDecide Stage = "decide"
	// StageRBEcho / StageRBReady / StageRBDeliver: reliable-broadcast
	// phase transitions (first ECHO sent, first READY sent, delivery).
	StageRBEcho    Stage = "rb_echo"
	StageRBReady   Stage = "rb_ready"
	StageRBDeliver Stage = "rb_deliver"
	// StageRBRelay: a coalesced rb.Relay vector-frame flush.
	StageRBRelay Stage = "rb_relay"
)

// TraceID identifies one causal chain across layers and replicas.
type TraceID uint64

// CommandID derives the trace ID for a command from its encoded bytes
// (FNV-64a). Content-derived IDs are what make cross-replica joining
// work without a wire change: every replica computes the same ID for
// the same command.
func CommandID(cmd types.Value) TraceID {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(cmd); i++ {
		h ^= uint64(cmd[i])
		h *= prime
	}
	return TraceID(h)
}

// InstanceID derives the trace ID for protocol-level spans of one
// consensus instance. The tag constant keeps instance chains disjoint
// from command chains.
func InstanceID(i types.Instance) TraceID {
	const tag = 0x9e3779b97f4a7c15
	return TraceID(uint64(i)*2654435761 ^ tag)
}

// Span is one typed, causally-linked interval. Start and End are
// tracer-clock timestamps (virtual nanoseconds in simulation, wall
// nanoseconds since process start live); instantaneous protocol events
// have Start == End. Instance is -1 when not applicable.
type Span struct {
	Trace  TraceID        `json:"trace"`
	ID     uint64         `json:"id"`
	Parent uint64         `json:"parent,omitempty"`
	Stage  Stage          `json:"stage"`
	Proc   types.ProcID   `json:"proc"`
	Peer   types.ProcID   `json:"peer,omitempty"`
	Inst   types.Instance `json:"inst"`
	Start  types.Time     `json:"start"`
	End    types.Time     `json:"end"`
	Note   string         `json:"note,omitempty"`
}

// NoInstance marks a Span that is not tied to a consensus instance.
const NoInstance types.Instance = -1

// Config assembles a Tracer.
type Config struct {
	// Proc stamps every span with the owning replica.
	Proc types.ProcID
	// Now is the tracer clock. Simulated runs pass env.Now (virtual
	// time, deterministic); live nodes pass wall time since start.
	Now func() types.Time
	// Recorder receives every span. Nil drops spans but keeps stage
	// histograms flowing.
	Recorder *Recorder
	// Stages receives the five canonical stage latencies
	// (obs.NewStageMetrics); nil counts into private cells.
	Stages *obs.StageMetrics
}

// maxInflight bounds a tracer's per-command and per-instance state maps.
// Beyond it new chains are dropped — the bound is what lets a tracer
// survive a submit storm or a Byzantine flood. A Tracer copies it into
// max, which the package's tests lower.
const maxInflight = 4096

// cmdState is the bounded in-flight bookkeeping for one command on one
// replica. Timestamps are -1 until the corresponding edge fires.
type cmdState struct {
	admitAt  types.Time
	pendAt   types.Time
	batchAt  types.Time
	commitAt types.Time
	lastSpan uint64
}

type instState struct {
	proposeAt types.Time
	spanID    uint64
}

// Tracer emits causally-linked spans for one replica. All methods are
// safe on a nil receiver (one branch, no other cost) and safe for
// concurrent use — live nodes call in from the event loop and from
// HTTP edge goroutines.
type Tracer struct {
	mu       sync.Mutex
	proc     types.ProcID
	now      func() types.Time
	rec      *Recorder
	stages   *obs.StageMetrics
	max      int
	nextSpan uint64
	dropped  uint64
	cmds     map[TraceID]*cmdState
	insts    map[types.Instance]*instState
}

// New builds a Tracer. A nil Now clock yields constant-zero timestamps
// (spans still chain causally).
func New(cfg Config) *Tracer {
	if cfg.Now == nil {
		cfg.Now = func() types.Time { return 0 }
	}
	if cfg.Stages == nil {
		cfg.Stages = obs.NewStageMetrics(nil, "")
	}
	return &Tracer{
		proc:   cfg.Proc,
		now:    cfg.Now,
		rec:    cfg.Recorder,
		stages: cfg.Stages,
		max:    maxInflight,
		cmds:   make(map[TraceID]*cmdState),
		insts:  make(map[types.Instance]*instState),
	}
}

// Proc returns the replica this tracer stamps (0 for nil).
func (t *Tracer) Proc() types.ProcID {
	if t == nil {
		return 0
	}
	return t.proc
}

// Clock reads the tracer clock (0 for nil). Client edges use it to
// timestamp the respond stage without holding tracer state.
func (t *Tracer) Clock() types.Time {
	if t == nil {
		return 0
	}
	return t.now()
}

// Recorder returns the tracer's flight recorder (nil for a nil tracer or
// one without a recorder).
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// Dropped returns how many chains were shed at the maxInflight bound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// emitLocked appends one span and returns its ID. Caller holds t.mu.
func (t *Tracer) emitLocked(id TraceID, parent uint64, stage Stage, inst types.Instance, peer types.ProcID, start, end types.Time) uint64 {
	t.nextSpan++
	t.rec.Emit(Span{
		Trace: id, ID: t.nextSpan, Parent: parent, Stage: stage,
		Proc: t.proc, Peer: peer, Inst: inst, Start: start, End: end,
	})
	return t.nextSpan
}

// cmd fetches or creates the in-flight state for a trace ID, nil when
// the maxInflight bound sheds it. Caller holds t.mu.
func (t *Tracer) cmd(id TraceID) *cmdState {
	if s, ok := t.cmds[id]; ok {
		return s
	}
	if len(t.cmds) >= t.max {
		t.dropped++
		return nil
	}
	s := &cmdState{admitAt: -1, pendAt: -1, batchAt: -1, commitAt: -1}
	t.cmds[id] = s
	return s
}

// OnAdmit marks client-edge admission (txpool) of a command. Starts the
// admit_wait stage.
func (t *Tracer) OnAdmit(cmd types.Value) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.cmd(CommandID(cmd)); s != nil && s.admitAt < 0 {
		s.admitAt = t.now()
	}
}

// OnSubmit marks acceptance by the log engine. Closes admit_wait (when
// an admission was seen) and starts batch_wait.
func (t *Tracer) OnSubmit(cmd types.Value) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := CommandID(cmd)
	s := t.cmd(id)
	if s == nil || s.pendAt >= 0 {
		return
	}
	now := t.now()
	s.pendAt = now
	if s.admitAt >= 0 {
		s.lastSpan = t.emitLocked(id, s.lastSpan, StageAdmitWait, NoInstance, 0, s.admitAt, now)
		t.stages.AdmitWait.Observe(int64(now - s.admitAt))
	}
}

// OnBatched marks the first inclusion of a command in a proposed batch
// (later re-proposals of the same command are ignored). Closes
// batch_wait and starts consensus.
func (t *Tracer) OnBatched(cmd types.Value, inst types.Instance) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := CommandID(cmd)
	s := t.cmd(id)
	if s == nil || s.batchAt >= 0 {
		return
	}
	now := t.now()
	s.batchAt = now
	if s.pendAt >= 0 {
		s.lastSpan = t.emitLocked(id, s.lastSpan, StageBatchWait, inst, 0, s.pendAt, now)
		t.stages.BatchWait.Observe(int64(now - s.pendAt))
	}
}

// OnCommitted marks a command's commit into the total order. Closes the
// consensus stage; for commands this replica never batched (they rode
// another proposer's batch) the stage opens at submission instead.
func (t *Tracer) OnCommitted(cmd types.Value, inst types.Instance) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := CommandID(cmd)
	s := t.cmd(id)
	if s == nil || s.commitAt >= 0 {
		return
	}
	now := t.now()
	s.commitAt = now
	start := s.batchAt
	if start < 0 {
		start = s.pendAt
	}
	if start >= 0 {
		s.lastSpan = t.emitLocked(id, s.lastSpan, StageConsensus, inst, 0, start, now)
		t.stages.Consensus.Observe(int64(now - start))
	}
}

// OnApplied marks state-machine application and retires the command's
// in-flight state (the respond stage, live mode only, needs none of it —
// see Respond).
func (t *Tracer) OnApplied(cmd types.Value, inst types.Instance) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := CommandID(cmd)
	s, ok := t.cmds[id]
	if !ok {
		return
	}
	delete(t.cmds, id)
	if s.commitAt >= 0 {
		now := t.now()
		t.emitLocked(id, s.lastSpan, StageApply, inst, 0, s.commitAt, now)
		t.stages.Apply.Observe(int64(now - s.commitAt))
	}
}

// Respond marks the client response leaving the edge. resolvedAt is the
// edge's Clock() reading when the response arrived; the span closes at
// now. It also retires the command's in-flight state: OnApplied has
// already done so for an applied command, but a command answered without
// an apply on this replica (a retry served from the session cache, a
// failed proposal) would otherwise hold its slot under maxInflight
// forever.
func (t *Tracer) Respond(cmd types.Value, resolvedAt types.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := CommandID(cmd)
	delete(t.cmds, id)
	now := t.now()
	t.emitLocked(id, 0, StageRespond, NoInstance, 0, resolvedAt, now)
	t.stages.Respond.Observe(int64(now - resolvedAt))
}

// OnPropose marks this replica proposing a batch for an instance.
func (t *Tracer) OnPropose(inst types.Instance) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.insts[inst]; ok {
		return
	}
	if len(t.insts) >= t.max {
		t.dropped++
		return
	}
	now := t.now()
	id := t.emitLocked(InstanceID(inst), 0, StagePropose, inst, 0, now, now)
	t.insts[inst] = &instState{proposeAt: now, spanID: id}
}

// OnDecide marks an instance deciding locally and retires its state.
func (t *Tracer) OnDecide(inst types.Instance) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	start, parent := now, uint64(0)
	if s, ok := t.insts[inst]; ok {
		start, parent = s.proposeAt, s.spanID
		delete(t.insts, inst)
	}
	t.emitLocked(InstanceID(inst), parent, StageDecide, inst, 0, start, now)
}

// RBEvent records an instantaneous reliable-broadcast phase transition
// (rb_echo / rb_ready / rb_deliver / rb_relay) for an instance. origin
// is the RB-instance originator (0 for relay flushes).
func (t *Tracer) RBEvent(stage Stage, inst types.Instance, origin types.ProcID) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	parent := uint64(0)
	if s, ok := t.insts[inst]; ok {
		parent = s.spanID
	}
	t.emitLocked(InstanceID(inst), parent, stage, inst, origin, now, now)
}
