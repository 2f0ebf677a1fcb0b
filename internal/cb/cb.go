// Package cb implements the cooperative broadcast (CB) abstraction of the
// paper (§2.3, Figure 1) — a one-shot all-to-all broadcast built on
// reliable broadcast, defined by:
//
//	CB-Operation Termination: a correct invoker's CB_broadcast() returns
//	CB-Operation Validity:    the returned value is in cb_valid
//	CB-Set Termination:       cb_valid is eventually non-empty
//	CB-Set Validity:          cb_valid only contains values cb-broadcast by correct processes
//	CB-Set Agreement:         the cb_valid sets of correct processes are eventually equal
//
// Algorithm (Fig. 1): RB-broadcast CB_VAL(v); add v′ to cb_valid once
// CB_VAL(v′) has been RB-delivered from t+1 distinct processes; the
// operation returns any member of cb_valid once non-empty (here: the first
// value that qualified, for determinism).
//
// Feasibility: the abstraction requires that some value be cb-broadcast by
// at least t+1 correct processes, i.e. m ≤ ⌊(n−(t+1))/t⌋ distinct correct
// values (n−t > m·t).
//
// The package also implements the ⊥-default extension used by the §7
// consensus variant: in BotMode, ⊥ (types.BotValue) joins cb_valid as soon
// as the process has RB-delivered a set of proposals witnessing that no
// value necessarily has t+1 correct supporters — precisely, when there is
// a sub-multiset of delivered (origin, value) pairs covering n−t distinct
// origins in which every value occurs at most t times
// (⇔ Σ_v min(count(v), t) ≥ n−t). The witness is monotone (adding
// deliveries preserves it) and, by RB-Termination-2, eventually visible to
// every correct process, so CB-Set Agreement is preserved. When all
// correct processes cb-broadcast the same value, the witness is impossible
// (the common value occupies ≥ n−2t ≥ t+1 slots of any n−t-origin subset),
// so ⊥-validation cannot weaken the unanimous case.
package cb

import (
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/types"
)

// Instance is one CB-broadcast instance at one process. It is fed
// RB-deliveries of its CB_VAL stream by its owner (the consensus engine or
// a test harness) and reports qualifications through callbacks. Not safe
// for concurrent use; the single-threaded runtime serializes all calls.
type Instance struct {
	cfg Config

	started  bool
	returned bool

	// support[v] = distinct RB origins that cb-broadcast v.
	support map[types.Value]types.ProcSet
	// valid is cb_valid in qualification order; validSet indexes it.
	valid    []types.Value
	validSet map[types.Value]bool
	botAdded bool
}

// Config wires an Instance.
type Config struct {
	// Env is the process environment (identity, params, trace).
	Env proto.Env
	// Broadcast RB-broadcasts the CB_VAL message of this instance on its
	// stream tag. It is a closure so the instance does not need to know
	// which RB layer or tag it runs on.
	Broadcast func(v types.Value)
	// Tag is used for trace events only.
	Tag proto.Tag
	// BotMode enables the ⊥-default extension.
	BotMode bool
	// OnValid, if non-nil, is called once per value added to cb_valid
	// (including ⊥ in BotMode), in qualification order.
	OnValid func(v types.Value)
	// OnReturn, if non-nil, is called exactly once when the CB_broadcast
	// operation returns (Fig. 1 line 3).
	OnReturn func(v types.Value)
}

// New creates an instance. Config.Env and Config.Broadcast must be set.
func New(cfg Config) *Instance {
	return &Instance{
		cfg:      cfg,
		support:  make(map[types.Value]types.ProcSet),
		validSet: make(map[types.Value]bool),
	}
}

// Start invokes CB_broadcast(v) (Fig. 1 lines 1–3). Calling it twice is a
// programming error and panics (the object is one-shot).
func (i *Instance) Start(v types.Value) {
	if i.started {
		panic("cb: Start called twice on a one-shot instance")
	}
	i.started = true
	if tr := i.cfg.Env.Trace(); tr != nil {
		tr.Emit(trace.Event{
			At: i.cfg.Env.Now(), Kind: trace.KindCBBroadcast, Proc: i.cfg.Env.ID(),
			Round: i.cfg.Tag.Round, Value: v, Aux: i.cfg.Tag.String(),
		})
	}
	i.cfg.Broadcast(v)
	i.maybeReturn()
}

// OnRBDeliver feeds one RB-delivery of this instance's CB_VAL stream
// (Fig. 1 line 4).
func (i *Instance) OnRBDeliver(origin types.ProcID, v types.Value) {
	set := i.support[v]
	if !set.Add(origin) {
		return // RB-Unicity makes this impossible from correct RB; guard anyway
	}
	i.support[v] = set
	if set.Len() == i.cfg.Env.Params().T+1 {
		i.addValid(v)
	}
	if i.cfg.BotMode && !i.botAdded && i.botWitness() {
		i.botAdded = true
		i.addValid(types.BotValue)
	}
	i.maybeReturn()
}

// botWitness reports whether the ⊥ qualification condition holds:
// Σ_v min(support(v), t) ≥ n−t.
func (i *Instance) botWitness() bool {
	p := i.cfg.Env.Params()
	if p.T == 0 {
		return false // no Byzantine processes: plurality always real
	}
	total := 0
	for _, set := range i.support {
		c := set.Len()
		if c > p.T {
			c = p.T
		}
		total += c
	}
	return total >= p.Quorum()
}

func (i *Instance) addValid(v types.Value) {
	if i.validSet[v] {
		return
	}
	i.validSet[v] = true
	i.valid = append(i.valid, v)
	if tr := i.cfg.Env.Trace(); tr != nil {
		tr.Emit(trace.Event{
			At: i.cfg.Env.Now(), Kind: trace.KindCBValid, Proc: i.cfg.Env.ID(),
			Round: i.cfg.Tag.Round, Value: v, Aux: i.cfg.Tag.String(),
		})
	}
	if i.cfg.OnValid != nil {
		i.cfg.OnValid(v)
	}
}

func (i *Instance) maybeReturn() {
	if !i.started || i.returned || len(i.valid) == 0 {
		return
	}
	i.returned = true
	v := i.valid[0]
	if tr := i.cfg.Env.Trace(); tr != nil {
		tr.Emit(trace.Event{
			At: i.cfg.Env.Now(), Kind: trace.KindCBReturn, Proc: i.cfg.Env.ID(),
			Round: i.cfg.Tag.Round, Value: v, Aux: i.cfg.Tag.String(),
		})
	}
	if i.cfg.OnReturn != nil {
		i.cfg.OnReturn(v)
	}
}

// IsValid reports whether v ∈ cb_valid (Fig. 4 line 5 uses this).
func (i *Instance) IsValid(v types.Value) bool { return i.validSet[v] }

// Valid returns cb_valid in qualification order. The caller must not
// mutate the returned slice.
func (i *Instance) Valid() []types.Value { return i.valid }

// Support returns how many distinct origins cb-broadcast v so far
// (diagnostics and tests).
func (i *Instance) Support(v types.Value) int {
	return i.support[v].Len()
}
