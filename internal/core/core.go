// Package core implements the paper's primary contribution: the m-valued
// Byzantine consensus algorithm of §6 (Figure 4) for the system model
// BZ_AS[t<n/3, ◇⟨t+1⟩bisource], built from the reliable-broadcast (rb),
// cooperative-broadcast (cb), adopt-commit (ac) and eventual-agreement
// (ea) abstractions:
//
//	line 1   est ← CB[0].CB_broadcast(v)             — validity anchor
//	loop     r ← r+1
//	line 4     v ← EA.EA_propose(r, est)             — liveness (◇⟨t+1⟩bisource)
//	line 5     if v ∈ CB[0].cb_valid { est ← v }     — validity filter
//	line 6     ⟨tag, est⟩ ← AC[r].AC_propose(est)    — safety
//	line 7     if tag = commit { broadcast DECIDE(est) }
//	decision   on DECIDE(v) from t+1 distinct processes: broadcast DECIDE(v) once
//	           on DECIDE(v) from 2t+1 distinct processes: decide v
//
// Consensus properties: CONS-Termination, CONS-Validity (a decided value
// was proposed by a correct process — or is ⊥ in the §7 BotMode variant)
// and CONS-Agreement.
//
// # Deviations from Figure 4
//
// DECIDE is one plain message, not a reliable broadcast. Line 7
// RB-broadcasts it and decides on t+1 deliveries; here a DECIDE is
// amplified the way Bracha amplifies READY, which gives the same
// guarantee in one message delay instead of three. Safety: a correct
// process sends DECIDE(v) only after committing v or receiving DECIDE(v)
// from t+1 processes, one of them correct — so every correct DECIDE
// traces back to a correct commit of v, AC makes every correct commit the
// same value, and no correct process sends two DECIDEs or one for another
// value. t Byzantine senders never reach t+1 alone. Termination: a
// decider received 2t+1 DECIDEs, at least t+1 of them from correct
// processes; every correct process receives those, forwards its own, and
// then receives n−t ≥ 2t+1.
//
// A committer enters the next round lazily. A process that commits in
// round r starts round r+1 only once it receives an EA or AC message
// naming a round ≥ r+1 (at once if it already has one). A correct process
// that did not commit in round r always starts r+1 and RB-broadcasts its
// EA value, which wakes every committer; if every correct process
// committed, their n−t ≥ 2t+1 DECIDEs decide everyone. Fault-free, this
// skips a whole round-(r+1) CB wave that nothing would use.
//
// A deciding process halts its round loop but keeps serving the reliable
// broadcast and the open abstractions of earlier rounds, so slower correct
// processes are never starved. An engine stalled or halted before it
// decided still counts DECIDEs, so it still forwards its own at t+1.
package core

import (
	"fmt"

	"repro/internal/ac"
	"repro/internal/cb"
	"repro/internal/combin"
	"repro/internal/ea"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/rb"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/xtrace"
)

// Config assembles an Engine.
type Config struct {
	// Env is the process environment.
	Env proto.Env
	// K is the §5.4 tuning parameter: the EA F-sets have size n−t+K and
	// the synchrony assumption strengthens to ◇⟨t+1+K⟩bisource. 0 is the
	// basic algorithm.
	K int
	// TimeUnit scales the EA round timers (timeout(r) = r·TimeUnit).
	TimeUnit types.Duration
	// Mode selects the EA fast-path semantics (default FastPathContinue).
	Mode ea.FastPathMode
	// Relay selects the EA relay rule (default RelayAnyF; RelayQuorum is
	// the ⟨n−t⟩bisource baseline for experiment E10).
	Relay ea.RelayRule
	// BotMode enables the §7 ⊥-default validity variant: the feasibility
	// bound on m is lifted and ⊥ may be decided on split proposals.
	BotMode bool
	// MaxRounds stops the round loop (Engine.Stalled reports it) as a
	// safety cap for adversarial no-liveness experiments. 0 = 10·α·n
	// (an order of magnitude past the paper's worst-case bound).
	MaxRounds types.Round
	// OnDecide, if non-nil, is called exactly once upon decision.
	OnDecide func(v types.Value)
	// RBMetrics is the tally of the engine's reliable-broadcast layer
	// (obs.NewRBMetrics; nil counts into cells nobody reads). The
	// replicated log copies its core.Config
	// into every instance, so one bundle aggregates RB volume across all
	// instances of a replica. Passive; never alters the protocol.
	RBMetrics *obs.RBMetrics
	// Tracer, if non-nil, attaches causal tracing (internal/xtrace) to
	// the engine's reliable-broadcast layer. Passive.
	Tracer *xtrace.Tracer
}

// Engine is one correct consensus process. It implements proto.Handler; a
// runtime feeds it deduplicated messages and it drives the full stack.
type Engine struct {
	cfg  Config
	plan *combin.RoundPlan

	rbl *rb.Layer
	cb0 *cb.Instance
	eao *ea.Object
	acs map[types.Round]*ac.Instance

	proposed bool
	est      types.Value
	round    types.Round

	// named is the highest round an EA or AC message named; parked marks
	// a committer waiting for a message naming round > round (lazy entry).
	named  types.Round
	parked bool

	sentDecide    bool
	commitRound   types.Round // round of this process's own commit (0 if none)
	decideSupport map[types.Value]types.ProcSet
	decided       bool
	decision      types.Value
	decidedRound  types.Round
	stalled       bool
}

var _ proto.Handler = (*Engine)(nil)

// New builds a consensus engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Env == nil {
		return nil, fmt.Errorf("core: nil Env")
	}
	p := cfg.Env.Params()
	if err := p.Validate(cfg.BotMode); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.K < 0 || cfg.K > p.T {
		return nil, fmt.Errorf("core: k must be in [0, t], got %d", cfg.K)
	}
	plan, err := combin.NewRoundPlan(p.N, p.Quorum()+cfg.K)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.MaxRounds <= 0 {
		wc := plan.WorstCaseRounds()
		if wc > 1<<20 {
			wc = 1 << 20
		}
		cfg.MaxRounds = types.Round(10 * wc)
	}
	e := &Engine{
		cfg:           cfg,
		plan:          plan,
		acs:           make(map[types.Round]*ac.Instance),
		decideSupport: make(map[types.Value]types.ProcSet),
	}
	e.rbl = rb.New(cfg.Env, e.onRBDeliver)
	e.rbl.SetMetrics(cfg.RBMetrics)
	e.rbl.SetTracer(cfg.Tracer)
	e.cb0 = cb.New(cb.Config{
		Env:       cfg.Env,
		Tag:       proto.Tag{Mod: proto.ModConsCB0},
		BotMode:   cfg.BotMode,
		Broadcast: func(v types.Value) { e.rbl.Broadcast(proto.Tag{Mod: proto.ModConsCB0}, v) },
		OnReturn:  e.onCB0Return,
	})
	e.eao, err = ea.New(ea.Config{
		Env:  cfg.Env,
		Plan: plan,
		BroadcastCB: func(r types.Round, v types.Value) {
			e.rbl.Broadcast(proto.Tag{Mod: proto.ModEACB, Round: r}, v)
		},
		TimeUnit: cfg.TimeUnit,
		Mode:     cfg.Mode,
		Relay:    cfg.Relay,
		BotMode:  cfg.BotMode,
		MaxRound: cfg.MaxRounds + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return e, nil
}

// Propose invokes CONS_propose(v) (Fig. 4 line 1). One-shot.
func (e *Engine) Propose(v types.Value) error {
	if e.proposed {
		return fmt.Errorf("core: Propose called twice")
	}
	if e.cfg.BotMode && v == types.BotValue {
		return fmt.Errorf("core: applications must not propose ⊥")
	}
	e.proposed = true
	e.cfg.Env.Trace().Emit(trace.Event{
		At: e.cfg.Env.Now(), Kind: trace.KindConsPropose, Proc: e.cfg.Env.ID(), Value: v,
	})
	e.cb0.Start(v)
	return nil
}

// onCB0Return completes line 1: the estimate is now a value proposed by a
// correct process; enter the round loop.
func (e *Engine) onCB0Return(v types.Value) {
	e.est = v
	if !e.decided {
		e.startRound(1)
	}
}

// startRound is lines 3-4.
func (e *Engine) startRound(r types.Round) {
	if e.decided || e.stalled {
		return
	}
	if r > e.cfg.MaxRounds {
		e.stalled = true
		return
	}
	e.round = r
	e.cfg.Env.Trace().Emit(trace.Event{
		At: e.cfg.Env.Now(), Kind: trace.KindConsRoundStart, Proc: e.cfg.Env.ID(),
		Round: r, Value: e.est,
	})
	if err := e.eao.Propose(r, e.est, func(v types.Value) { e.onEAReturn(r, v) }); err != nil {
		// Round cap reached inside EA; treat as stall.
		e.stalled = true
	}
}

// onEAReturn is lines 5-6.
func (e *Engine) onEAReturn(r types.Round, v types.Value) {
	if e.decided || e.stalled || r != e.round {
		return
	}
	if e.cb0.IsValid(v) { // line 5 validity filter
		e.est = v
	}
	e.getAC(r).Propose(e.est)
}

// onACDone is lines 6-8. A commit broadcasts DECIDE and parks the loop
// until some process names the next round (see the package comment).
func (e *Engine) onACDone(r types.Round, o ac.Outcome) {
	if e.decided || e.stalled || r != e.round {
		return
	}
	e.est = o.Val
	if o.Commit {
		if e.commitRound == 0 {
			e.commitRound = r
		}
		e.sendDecide(o.Val, "commit")
		if e.named <= r {
			e.parked = true
			return
		}
	}
	e.startRound(r + 1)
}

// sendDecide broadcasts this process's one DECIDE; why says what caused
// it (a commit, or t+1 DECIDEs forwarded).
func (e *Engine) sendDecide(v types.Value, why string) {
	if e.sentDecide {
		return
	}
	e.sentDecide = true
	e.cfg.Env.Trace().Emit(trace.Event{
		At: e.cfg.Env.Now(), Kind: trace.KindConsDecideSend, Proc: e.cfg.Env.ID(),
		Round: e.round, Value: v, Aux: why,
	})
	e.cfg.Env.Broadcast(proto.Message{Kind: proto.MsgDecide, Tag: decideTag, Val: v})
}

// decideTag is the one tag a DECIDE carries; with Origin unset it is one
// first-message identity per sender and instance.
var decideTag = proto.Tag{Mod: proto.ModDecide}

// getAC lazily creates the adopt-commit object of round r. Messages can
// arrive for rounds we have not reached yet; their objects buffer state
// until our own Propose.
func (e *Engine) getAC(r types.Round) *ac.Instance {
	inst, ok := e.acs[r]
	if !ok {
		inst = ac.New(ac.Config{
			Env:   e.cfg.Env,
			Round: r,
			BroadcastProp: func(v types.Value) {
				e.rbl.Broadcast(proto.Tag{Mod: proto.ModACCB, Round: r}, v)
			},
			BroadcastEst: func(v types.Value) {
				e.rbl.Broadcast(proto.Tag{Mod: proto.ModACEst, Round: r}, v)
			},
			BotMode: e.cfg.BotMode,
			OnDone:  func(o ac.Outcome) { e.onACDone(r, o) },
		})
		e.acs[r] = inst
	}
	return inst
}

// OnMessage implements proto.Handler: route DECIDEs to the decision
// rule, RB submessages to the RB layer, EA plain messages to the EA
// object. Any EA or AC message naming a later round wakes a parked
// committer first.
func (e *Engine) OnMessage(from types.ProcID, m proto.Message) {
	if m.Kind == proto.MsgDecide {
		if m.Tag == decideTag && m.Origin == types.NoProc {
			e.onDecide(from, m.Val)
		}
		return
	}
	switch m.Tag.Mod {
	case proto.ModEACB, proto.ModEA, proto.ModACCB, proto.ModACEst:
		if m.Tag.Round > e.named {
			e.named = m.Tag.Round
			if e.parked && e.named > e.round {
				e.parked = false
				e.startRound(e.round + 1)
			}
		}
	}
	if e.rbl.OnMessage(from, m) {
		return
	}
	e.eao.OnPlain(from, m)
}

// onRBDeliver routes RB deliveries to the owning abstraction by stream tag.
func (e *Engine) onRBDeliver(origin types.ProcID, tag proto.Tag, v types.Value) {
	switch tag.Mod {
	case proto.ModConsCB0:
		e.cb0.OnRBDeliver(origin, v)
	case proto.ModEACB:
		e.eao.OnCBDeliver(tag.Round, origin, v)
	case proto.ModACCB:
		if tag.Round >= 1 && tag.Round <= e.cfg.MaxRounds {
			e.getAC(tag.Round).OnCBDeliver(origin, v)
		}
	case proto.ModACEst:
		if tag.Round >= 1 && tag.Round <= e.cfg.MaxRounds {
			e.getAC(tag.Round).OnEstDeliver(origin, v)
		}
	}
}

// onDecide counts one sender's DECIDE(v): forward at t+1, decide at 2t+1.
// The first-message rule lets each sender count once.
func (e *Engine) onDecide(from types.ProcID, v types.Value) {
	set := e.decideSupport[v]
	if set.Add(from) {
		e.decideSupport[v] = set
	}
	p := e.cfg.Env.Params()
	if set.Len() >= p.ReadyAmplify() {
		e.sendDecide(v, "forward")
	}
	if set.Len() >= p.ReadyDeliver() && !e.decided {
		e.decided = true
		e.decision = v
		// Report the protocol-level round of the decision: the round of
		// our own commit if we committed, else the loop position when the
		// DECIDE quorum landed (an upper bound for non-committing
		// processes).
		e.decidedRound = e.round
		if e.commitRound > 0 {
			e.decidedRound = e.commitRound
		}
		e.eao.CancelTimers()
		e.cfg.Env.Trace().Emit(trace.Event{
			At: e.cfg.Env.Now(), Kind: trace.KindConsDecide, Proc: e.cfg.Env.ID(),
			Round: e.round, Value: v,
		})
		if e.cfg.OnDecide != nil {
			e.cfg.OnDecide(v)
		}
	}
}

// Halt permanently stops an undecided engine: the round loop is frozen
// (reported as Stalled) and the EA round timers are canceled so the
// instance schedules no further work. The replicated-log layer calls it
// when a snapshot install retires an instance whose outcome the snapshot
// already covers — the local engine may be mid-round with live timers,
// and without Halt those zombie timers would keep firing long after the
// instance's state became unreachable. Message handling stays wired (a
// halted engine still serves RB echoes it owes peers), but no new rounds
// start. Halting a decided engine is a no-op (deciding already cancels
// the timers).
func (e *Engine) Halt() {
	if e.decided || e.stalled {
		return
	}
	e.stalled = true
	e.eao.CancelTimers()
}

// Decision reports the decided value, if any.
func (e *Engine) Decision() (types.Value, bool) { return e.decision, e.decided }

// DecidedRound returns the consensus round of the decision: the round of
// this process's own commit when it committed, otherwise the round-loop
// position when the 2t+1th DECIDE arrived (0 if undecided).
func (e *Engine) DecidedRound() types.Round { return e.decidedRound }

// Round returns the current round counter (0 before the loop starts).
func (e *Engine) Round() types.Round { return e.round }

// Stalled reports whether the MaxRounds safety cap was hit.
func (e *Engine) Stalled() bool { return e.stalled }

// Plan exposes the round plan (experiments consult α and F sets).
func (e *Engine) Plan() *combin.RoundPlan { return e.plan }
