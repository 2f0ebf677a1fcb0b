// Package ea implements the round-based eventual agreement (EA) object of
// the paper (§5, Figure 3) — the module that encapsulates the
// ◇⟨t+1⟩bisource synchrony assumption and provides the liveness half of
// consensus:
//
//	EA-Termination:        if all correct processes invoke EA_propose(r,−),
//	                       every invocation terminates
//	EA-Validity:           unanimous inputs v at round r ⇒ only v returned
//	EA-Eventual agreement: over infinitely many rounds, infinitely many
//	                       rounds return one common, correctly-proposed value
//
// Each round r has a coordinator coord(r) and a witness set F(r) of n−t+k
// processes (k = 0 in the basic algorithm of Fig. 3, k > 0 in the §5.4
// parameterized variant traded against the stronger ⟨t+1+k⟩bisource
// assumption). Per round:
//
//	line 1   aux ← CB[r].CB_broadcast(val)
//	line 2   plain-broadcast EA_PROP2[r](aux)
//	line 3   wait for n−t PROP2 whose values are in CB[r].cb_valid
//	line 4   if unanimous → return that value        (fast path)
//	line 5   arm timer[r] = r·TimeUnit
//	lines 11-14  coordinator: champion the first PROP2 from F(r) as EA_COORD[r]
//	lines 15-19  on EA_COORD from coord(r) or timer expiry: broadcast
//	             EA_RELAY[r](v or ⊥) once
//	lines 6-10   wait for n−t relays; return the first non-⊥ relay value
//	             from an F(r) member, else own val
//
// # Reproduction notes
//
// Fast-path liveness: read literally, a process that returns at line 4
// never arms its timer and thus — with a silent Byzantine coordinator —
// never broadcasts a relay, which can leave slower correct processes
// short of the n−t relays of line 6. FastPathContinue
// (default) arms the timer even on a fast-path return, keeping every
// correct process a relay participant, which is what the Claim C proof of
// Lemma 3 assumes. FastPathReturnOnly reproduces the literal text;
// TestFastPathLiteralStalls exhibits the stall (the missing Lemma 2 proof
// is in the unavailable tech report [6]).
//
// RelayQuorum is a deliberately *stronger-synchrony* baseline used by
// experiment E10: it accepts the coordinator's value only when n−t
// unanimous non-⊥ relays arrive, which in adversarial asynchrony requires
// the coordinator to be a ◇⟨n−t⟩bisource (the assumption of the paper's
// reference [1]) — under a minimal ◇⟨t+1⟩bisource topology it cannot
// converge on mixed inputs, while the paper's RelayAnyF rule can.
package ea

import (
	"fmt"

	"repro/internal/cb"
	"repro/internal/combin"
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/types"
)

// FastPathMode selects the line-4 semantics (see package comment).
type FastPathMode int

// Fast-path modes.
const (
	// FastPathContinue keeps fast-path returners participating in the
	// timer/relay machinery (default; matches the Lemma 3 proof).
	FastPathContinue FastPathMode = iota + 1
	// FastPathReturnOnly is the literal Figure 3: return at line 4 skips
	// lines 5-10 entirely.
	FastPathReturnOnly
)

// RelayRule selects the lines 7-9 acceptance rule.
type RelayRule int

// Relay rules.
const (
	// RelayAnyF is the paper's rule: one non-⊥ relay from an F(r) member
	// suffices.
	RelayAnyF RelayRule = iota + 1
	// RelayQuorum is the ⟨n−t⟩bisource baseline: n−t unanimous non-⊥
	// relays are required to adopt the coordinator's value.
	RelayQuorum
)

// Config wires an Object.
type Config struct {
	// Env is the process environment.
	Env proto.Env
	// Plan maps rounds to coordinators and F sets of n−t+k processes.
	Plan *combin.RoundPlan
	// BroadcastCB RB-broadcasts the EA_PROP1 value of round r on the
	// ModEACB/r stream (the engine owns the RB layer).
	BroadcastCB func(r types.Round, v types.Value)
	// TimeUnit scales the Fig. 3 line 5 timer: timeout(r) = r·TimeUnit,
	// an increasing function of r as footnote 3 of the paper requires
	// for the Lemma 3 argument (required, positive).
	TimeUnit types.Duration
	// Mode selects fast-path semantics (zero value = FastPathContinue).
	Mode FastPathMode
	// Relay selects the relay acceptance rule (zero value = RelayAnyF).
	Relay RelayRule
	// BotMode propagates the ⊥-default extension to the per-round CBs.
	BotMode bool
	// MaxRound caps lazily-created round state as a memory-safety guard
	// against Byzantine messages naming absurd future rounds (0 = no cap).
	MaxRound types.Round
}

// Object is the per-process EA object, multiplexing all rounds.
type Object struct {
	cfg    Config
	rounds map[types.Round]*roundState
}

// New creates the EA object.
func New(cfg Config) (*Object, error) {
	if cfg.Env == nil || cfg.Plan == nil || cfg.BroadcastCB == nil {
		return nil, fmt.Errorf("ea: Env, Plan and BroadcastCB are required")
	}
	if cfg.Mode == 0 {
		cfg.Mode = FastPathContinue
	}
	if cfg.Relay == 0 {
		cfg.Relay = RelayAnyF
	}
	if cfg.TimeUnit <= 0 {
		return nil, fmt.Errorf("ea: TimeUnit must be positive")
	}
	return &Object{cfg: cfg, rounds: make(map[types.Round]*roundState)}, nil
}

// timeoutFor returns the line-5 timer duration for round r.
func (o *Object) timeoutFor(r types.Round) types.Duration {
	return types.Duration(int64(r)) * o.cfg.TimeUnit
}

// round returns (creating lazily) the state of round r; nil if r is out of
// the acceptable range.
func (o *Object) round(r types.Round) *roundState {
	if r < 1 || (o.cfg.MaxRound > 0 && r > o.cfg.MaxRound) {
		return nil
	}
	st, ok := o.rounds[r]
	if !ok {
		st = newRoundState(o, r)
		o.rounds[r] = st
	}
	return st
}

// Rounds returns how many round states exist (memory diagnostics).
func (o *Object) Rounds() int { return len(o.rounds) }

// Propose invokes EA_propose(r, v). onReturn is called exactly once with
// the round's return value. Each correct process must call Propose once
// per round, with consecutive rounds (the consensus engine does).
func (o *Object) Propose(r types.Round, v types.Value, onReturn func(types.Value)) error {
	st := o.round(r)
	if st == nil {
		return fmt.Errorf("ea: round %d out of range (max %d)", r, o.cfg.MaxRound)
	}
	return st.propose(v, onReturn)
}

// OnCBDeliver feeds an RB-delivery of the ModEACB/r stream (the CB[r]
// instance of Fig. 3 line 1).
func (o *Object) OnCBDeliver(r types.Round, origin types.ProcID, v types.Value) {
	if st := o.round(r); st != nil {
		st.cb.OnRBDeliver(origin, v)
	}
}

// OnPlain feeds the plain EA messages (PROP2/COORD/RELAY); it reports
// false for non-EA kinds.
func (o *Object) OnPlain(from types.ProcID, m proto.Message) bool {
	switch m.Kind {
	case proto.MsgEAProp2, proto.MsgEACoord, proto.MsgEARelay:
	default:
		return false
	}
	st := o.round(m.Tag.Round)
	if st == nil {
		return true // out of range: consumed and dropped
	}
	switch m.Kind {
	case proto.MsgEAProp2:
		st.onProp2(from, m.Val)
	case proto.MsgEACoord:
		st.onCoord(from, m.Val)
	case proto.MsgEARelay:
		st.onRelay(from, m.Opt)
	}
	return true
}

// ReturnOf reports the return value of round r, if that round returned.
func (o *Object) ReturnOf(r types.Round) (types.Value, bool) {
	if st, ok := o.rounds[r]; ok && st.returned {
		return st.retVal, true
	}
	return "", false
}

// CancelTimers cancels every armed round timer (called when the process
// decides and stops participating; pending relays already broadcast are
// unaffected).
func (o *Object) CancelTimers() {
	for _, st := range o.rounds {
		if st.timerCancel != nil {
			st.timerCancel()
			st.timerCancel = nil
		}
	}
}

// roundState holds one round of Figure 3 at one process.
type roundState struct {
	o     *Object
	r     types.Round
	cb    *cb.Instance
	coord types.ProcID
	fset  types.ProcSet

	// Operation state (lines 1-10).
	proposed bool
	val      types.Value
	onReturn func(types.Value)
	aux      types.Value
	haveAux  bool

	// Line 3 bookkeeping.
	prop2Of      map[types.ProcID]types.Value
	pending      []types.ProcID // delivered, value not (yet) in cb_valid
	qualified    []types.ProcID // qualification order
	qualifiedSet types.ProcSet
	wave3Done    bool // the line-3 wait completed
	fastPathed   bool

	// Timer (line 5 / lines 15-19).
	timerArmed   bool
	timerExpired bool
	timerCancel  func()

	// Coordinator (lines 11-14).
	coordSent bool

	// Relay (lines 15-19, 6-10).
	relaySent  bool
	relayOf    map[types.ProcID]types.OptValue
	relayOrder []types.ProcID

	returned bool
	retVal   types.Value
}

func newRoundState(o *Object, r types.Round) *roundState {
	st := &roundState{
		o:       o,
		r:       r,
		coord:   o.cfg.Plan.Coord(r),
		fset:    o.cfg.Plan.FSet(r),
		prop2Of: make(map[types.ProcID]types.Value),
		relayOf: make(map[types.ProcID]types.OptValue),
	}
	st.cb = cb.New(cb.Config{
		Env:       o.cfg.Env,
		Tag:       proto.Tag{Mod: proto.ModEACB, Round: r},
		BotMode:   o.cfg.BotMode,
		Broadcast: func(v types.Value) { o.cfg.BroadcastCB(r, v) },
		OnValid:   func(types.Value) { st.requalify(); st.checkLine3() },
		OnReturn:  func(v types.Value) { st.onCBReturn(v) },
	})
	return st
}

func (st *roundState) env() proto.Env { return st.o.cfg.Env }

// propose is EA_propose(r, val): line 1.
func (st *roundState) propose(v types.Value, onReturn func(types.Value)) error {
	if st.proposed {
		return fmt.Errorf("ea: round %d proposed twice", st.r)
	}
	st.proposed = true
	st.val = v
	st.onReturn = onReturn
	st.env().Trace().Emit(trace.Event{
		At: st.env().Now(), Kind: trace.KindEAPropose, Proc: st.env().ID(),
		Round: st.r, Value: v,
	})
	st.cb.Start(v)
	return nil
}

// onCBReturn is line 1 completing; line 2 broadcasts EA_PROP2.
func (st *roundState) onCBReturn(v types.Value) {
	st.aux = v
	st.haveAux = true
	st.env().Broadcast(proto.Message{
		Kind: proto.MsgEAProp2, Tag: proto.Tag{Mod: proto.ModEA, Round: st.r}, Val: v,
	})
	st.checkLine3()
}

// onProp2 handles EA_PROP2 arrivals: coordinator clause (lines 11-14) and
// line 3 accounting.
func (st *roundState) onProp2(from types.ProcID, v types.Value) {
	if _, seen := st.prop2Of[from]; seen {
		return // dedup upstream; guard anyway
	}
	st.prop2Of[from] = v

	// Lines 11-14: the coordinator champions the first PROP2 received
	// from a member of F(r). This standing rule is active even before the
	// coordinator's own propose.
	if st.env().ID() == st.coord && !st.coordSent && st.fset.Has(from) {
		st.coordSent = true
		st.env().Trace().Emit(trace.Event{
			At: st.env().Now(), Kind: trace.KindEACoord, Proc: st.env().ID(),
			Round: st.r, Value: v,
		})
		st.env().Broadcast(proto.Message{
			Kind: proto.MsgEACoord, Tag: proto.Tag{Mod: proto.ModEA, Round: st.r}, Val: v,
		})
	}

	if st.cb.IsValid(v) {
		st.qualify(from)
	} else {
		st.pending = append(st.pending, from)
	}
	st.checkLine3()
}

func (st *roundState) requalify() {
	if len(st.pending) == 0 {
		return
	}
	rest := st.pending[:0]
	for _, from := range st.pending {
		if st.cb.IsValid(st.prop2Of[from]) {
			st.qualify(from)
		} else {
			rest = append(rest, from)
		}
	}
	st.pending = rest
}

func (st *roundState) qualify(from types.ProcID) {
	if !st.qualifiedSet.Add(from) {
		return
	}
	st.qualified = append(st.qualified, from)
}

// checkLine3 completes the line-3 wait the first time its predicate holds.
func (st *roundState) checkLine3() {
	if st.wave3Done || !st.proposed || !st.haveAux {
		return
	}
	q := st.env().Params().Quorum()
	if len(st.qualified) < q {
		return
	}
	st.wave3Done = true
	window := st.qualified[:q]
	unanimous := true
	first := st.prop2Of[window[0]]
	for _, from := range window[1:] {
		if st.prop2Of[from] != first {
			unanimous = false
			break
		}
	}
	if unanimous {
		// Line 4 fast path.
		st.fastPathed = true
		st.env().Trace().Emit(trace.Event{
			At: st.env().Now(), Kind: trace.KindEAFastPath, Proc: st.env().ID(),
			Round: st.r, Value: first,
		})
		st.doReturn(first)
		if st.o.cfg.Mode == FastPathContinue {
			st.armTimer() // stay a relay participant (Claim C)
		}
		return
	}
	// Line 5.
	st.armTimer()
	// Relays may already satisfy line 6.
	st.checkLine6()
}

func (st *roundState) armTimer() {
	if st.timerArmed {
		return
	}
	st.timerArmed = true
	st.timerCancel = st.env().SetTimer(st.o.timeoutFor(st.r), func() {
		st.onTimerExpire()
	})
}

// onTimerExpire is the "timer expires" arm of lines 15-19.
func (st *roundState) onTimerExpire() {
	if st.relaySent {
		return
	}
	st.timerExpired = true
	st.env().Trace().Emit(trace.Event{
		At: st.env().Now(), Kind: trace.KindEATimeout, Proc: st.env().ID(), Round: st.r,
	})
	st.sendRelay(types.Bot)
}

// onCoord is the "EA_COORD received from coord(r)" arm of lines 15-19.
func (st *roundState) onCoord(from types.ProcID, v types.Value) {
	if from != st.coord {
		return // only the round coordinator's message counts
	}
	if st.relaySent {
		return
	}
	// Line 17: the timer has not expired (otherwise relaySent would be
	// true), so the relay carries the championed value.
	st.sendRelay(types.Some(v))
}

func (st *roundState) sendRelay(opt types.OptValue) {
	st.relaySent = true
	if st.timerCancel != nil { // line 16: disable timer[r]
		st.timerCancel()
		st.timerCancel = nil
	}
	st.env().Trace().Emit(trace.Event{
		At: st.env().Now(), Kind: trace.KindEARelay, Proc: st.env().ID(),
		Round: st.r, Opt: opt,
	})
	st.env().Broadcast(proto.Message{
		Kind: proto.MsgEARelay, Tag: proto.Tag{Mod: proto.ModEA, Round: st.r}, Opt: opt,
	})
}

// onRelay records EA_RELAY arrivals and evaluates lines 6-10.
func (st *roundState) onRelay(from types.ProcID, opt types.OptValue) {
	if _, seen := st.relayOf[from]; seen {
		return
	}
	st.relayOf[from] = opt
	st.relayOrder = append(st.relayOrder, from)
	st.checkLine6()
}

// checkLine6 completes the line-6 wait: n−t relays received, then lines
// 7-10 pick the return value.
func (st *roundState) checkLine6() {
	if st.returned || !st.wave3Done {
		return
	}
	q := st.env().Params().Quorum()
	if len(st.relayOrder) < q {
		return
	}
	switch st.o.cfg.Relay {
	case RelayQuorum:
		// Baseline rule: n−t unanimous non-⊥ relays required.
		counts := make(map[types.Value]int)
		for _, from := range st.relayOrder[:q] {
			if opt := st.relayOf[from]; !opt.IsBot() {
				counts[opt.V]++
			}
		}
		for v, c := range counts {
			if c >= q {
				st.doReturn(v)
				return
			}
		}
		st.doReturn(st.val)
	default: // RelayAnyF, the paper's rule
		// Lines 7-8: first non-⊥ relay from an F(r) member, in arrival
		// order, over ALL relays received so far.
		for _, from := range st.relayOrder {
			if !st.fset.Has(from) {
				continue
			}
			if opt := st.relayOf[from]; !opt.IsBot() {
				st.doReturn(opt.V)
				return
			}
		}
		// Line 9: fall back to the ea-proposed value.
		st.doReturn(st.val)
	}
}

func (st *roundState) doReturn(v types.Value) {
	if st.returned {
		return
	}
	st.returned = true
	st.retVal = v
	st.env().Trace().Emit(trace.Event{
		At: st.env().Now(), Kind: trace.KindEAReturn, Proc: st.env().ID(),
		Round: st.r, Value: v,
	})
	if st.onReturn != nil {
		st.onReturn(v)
	}
}
