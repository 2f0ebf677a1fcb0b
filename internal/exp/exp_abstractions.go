// Abstraction-level experiments: E1 (reliable broadcast), E2 (cooperative
// broadcast), E3 (adopt-commit), E4 (eventual agreement) and E9 (the
// fast-path liveness finding). These drive the individual layers directly
// on the harness, mirroring the per-package unit tests but producing
// tables and aggregate verdicts for EXPERIMENTS.md.
package exp

import (
	"fmt"
	"time"

	"repro/internal/ac"
	"repro/internal/cb"
	"repro/internal/combin"
	"repro/internal/ea"
	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/proto"
	"repro/internal/rb"
	"repro/internal/types"
)

// E1RB measures reliable broadcast under three sender behaviors: correct,
// INIT-equivocating Byzantine, and partially-connected crash. It verifies
// the all-or-nothing delivery contract and reports message costs.
func E1RB(seeds int) Result {
	tb := newTable("n", "sender", "runs", "all-or-nothing", "agreement", "mean msgs")
	pass := true
	for _, n := range []int{4, 7, 10} {
		tf := (n - 1) / 3
		p := types.Params{N: n, T: tf, M: 1}
		for _, mode := range []string{"correct", "equivocate", "partial"} {
			okAll, okAgree := 0, 0
			var msgs series
			for s := 0; s < seeds; s++ {
				allOK, agreeOK, sent := RBWave(p, mode, int64(s))
				if allOK {
					okAll++
				}
				if agreeOK {
					okAgree++
				}
				msgs.add(float64(sent))
			}
			if okAll != seeds || okAgree != seeds {
				pass = false
			}
			tb.row(n, mode, seeds, fmt.Sprintf("%d/%d", okAll, seeds),
				fmt.Sprintf("%d/%d", okAgree, seeds), msgs.mean())
		}
	}
	return Result{
		ID:    "E1",
		Claim: "RB abstraction [7]/§2.2: unicity, content agreement, all-or-nothing delivery with t<n/3",
		Table: tb.String(),
		Pass:  pass,
	}
}

// RBWave runs one RB broadcast from the last process under the given
// sender behavior; reports (all-or-nothing, content-agreement, msgs).
func RBWave(p types.Params, mode string, seed int64) (allOrNothing, agreement bool, sent uint64) {
	tag := proto.Tag{Mod: proto.ModDecide}
	w, err := harness.New(harness.Config{Params: p, Topology: network.FullyAsynchronous(p.N), Seed: seed})
	if err != nil {
		return false, false, 0
	}
	delivered := make(map[types.ProcID]types.Value)
	sender := types.ProcID(p.N)
	for _, id := range p.AllProcs() {
		id := id
		if id == sender {
			continue
		}
		_ = w.SetBehavior(id, func(env proto.Env) proto.Handler {
			layer := rb.New(env, func(origin types.ProcID, _ proto.Tag, v types.Value) {
				if origin == sender {
					delivered[id] = v
				}
			})
			return proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
				layer.OnMessage(from, m)
			})
		})
	}
	_ = w.SetBehavior(sender, func(env proto.Env) proto.Handler {
		layer := rb.New(env, func(types.ProcID, proto.Tag, types.Value) {})
		env.SetTimer(0, func() {
			switch mode {
			case "correct":
				layer.Broadcast(tag, "v")
			case "equivocate":
				for i := 1; i <= p.N; i++ {
					v := types.Value("a")
					if i%2 == 0 {
						v = "b"
					}
					env.Send(types.ProcID(i), proto.Message{Kind: proto.MsgRBInit, Tag: tag, Origin: sender, Val: v})
				}
			case "partial":
				env.Send(1, proto.Message{Kind: proto.MsgRBInit, Tag: tag, Origin: sender, Val: "v"})
			}
		})
		return proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
			layer.OnMessage(from, m)
		})
	})
	w.Run(0, 0)
	count := len(delivered)
	correct := p.N - 1
	allOrNothing = count == 0 || count == correct
	if mode == "correct" {
		allOrNothing = count == correct
	}
	agreement = true
	var ref types.Value
	first := true
	for _, v := range delivered {
		if first {
			ref, first = v, false
		} else if v != ref {
			agreement = false
		}
	}
	return allOrNothing, agreement, w.Net.Sent()
}

// E2CB verifies the cooperative-broadcast contract (Theorem 1): with the
// feasibility condition met, every operation returns a correctly-proposed
// value and final cb_valid sets agree — even when all t Byzantine
// processes push a common unproposed value.
func E2CB(seeds int) Result {
	tb := newTable("n", "runs", "returned", "byz value excluded", "sets agree")
	pass := true
	for _, n := range []int{4, 7, 10} {
		tf := (n - 1) / 3
		p := types.Params{N: n, T: tf, M: 2}
		ret, excl, agree := 0, 0, 0
		for s := 0; s < seeds; s++ {
			r, e, a := CBWave(p, int64(s))
			if r {
				ret++
			}
			if e {
				excl++
			}
			if a {
				agree++
			}
		}
		if ret != seeds || excl != seeds || agree != seeds {
			pass = false
		}
		tb.row(n, seeds, frac(ret, seeds), frac(excl, seeds), frac(agree, seeds))
	}
	return Result{
		ID:    "E2",
		Claim: "Theorem 1 (§2.3): CB termination, validity and set agreement under a colluding Byzantine value",
		Table: tb.String(),
		Pass:  pass,
	}
}

func frac(a, b int) string { return fmt.Sprintf("%d/%d", a, b) }

func CBWave(p types.Params, seed int64) (returned, excluded, agree bool) {
	tag := proto.Tag{Mod: proto.ModConsCB0}
	w, err := harness.New(harness.Config{Params: p, Topology: network.FullyAsynchronous(p.N), Seed: seed})
	if err != nil {
		return
	}
	insts := make(map[types.ProcID]*cb.Instance)
	rets := make(map[types.ProcID]types.Value)
	nCorrect := p.N - p.T
	for i := 1; i <= p.N; i++ {
		id := types.ProcID(i)
		if i > nCorrect { // Byzantine: colluding unproposed value "w"
			_ = w.SetBehavior(id, func(env proto.Env) proto.Handler {
				layer := rb.New(env, func(types.ProcID, proto.Tag, types.Value) {})
				env.SetTimer(0, func() { layer.Broadcast(tag, "w") })
				return proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
					layer.OnMessage(from, m)
				})
			})
			continue
		}
		v := types.Value("a")
		if i%2 == 0 {
			v = "b"
		}
		// Ensure "a" keeps t+1 correct supporters in every configuration.
		if i <= p.T+1 {
			v = "a"
		}
		_ = w.SetBehavior(id, func(env proto.Env) proto.Handler {
			var inst *cb.Instance
			layer := rb.New(env, func(origin types.ProcID, tg proto.Tag, vv types.Value) {
				if tg == tag {
					inst.OnRBDeliver(origin, vv)
				}
			})
			inst = cb.New(cb.Config{
				Env: env, Tag: tag,
				Broadcast: func(vv types.Value) { layer.Broadcast(tag, vv) },
				OnReturn:  func(vv types.Value) { rets[id] = vv },
			})
			insts[id] = inst
			env.SetTimer(0, func() { inst.Start(v) })
			return proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
				layer.OnMessage(from, m)
			})
		})
	}
	w.Run(0, 0)
	returned = len(rets) == nCorrect
	excluded = true
	for _, inst := range insts {
		if inst.IsValid("w") {
			excluded = false
		}
	}
	agree = true
	var ref []types.Value
	for _, inst := range insts {
		vs := inst.Valid()
		if ref == nil {
			ref = vs
			continue
		}
		if len(vs) != len(ref) {
			agree = false
		}
	}
	return returned, excluded, agree
}

// E3AC verifies the adopt-commit contract (Theorem 2) across seeds:
// quasi-agreement under splits and obligation under unanimity.
func E3AC(seeds int) Result {
	tb := newTable("n", "inputs", "runs", "terminated", "quasi-agreement", "obligation")
	pass := true
	for _, n := range []int{4, 7} {
		tf := (n - 1) / 3
		p := types.Params{N: n, T: tf, M: 2}
		for _, unanimous := range []bool{true, false} {
			term, quasi, oblig := 0, 0, 0
			for s := 0; s < seeds; s++ {
				tOK, qOK, oOK := ACWave(p, unanimous, int64(s))
				if tOK {
					term++
				}
				if qOK {
					quasi++
				}
				if oOK {
					oblig++
				}
			}
			if term != seeds || quasi != seeds || oblig != seeds {
				pass = false
			}
			label := "split"
			if unanimous {
				label = "unanimous"
			}
			tb.row(n, label, seeds, frac(term, seeds), frac(quasi, seeds), frac(oblig, seeds))
		}
	}
	return Result{
		ID:    "E3",
		Claim: "Theorem 2 (§3): Byzantine adopt-commit termination, quasi-agreement, obligation",
		Table: tb.String(),
		Pass:  pass,
	}
}

func ACWave(p types.Params, unanimous bool, seed int64) (term, quasi, oblig bool) {
	round := types.Round(1)
	propTag := proto.Tag{Mod: proto.ModACCB, Round: round}
	estTag := proto.Tag{Mod: proto.ModACEst, Round: round}
	w, err := harness.New(harness.Config{Params: p, Topology: network.FullyAsynchronous(p.N), Seed: seed})
	if err != nil {
		return
	}
	outcomes := make(map[types.ProcID]ac.Outcome)
	nCorrect := p.N - p.T
	for i := 1; i <= p.N; i++ {
		id := types.ProcID(i)
		if i > nCorrect {
			_ = w.SetBehavior(id, func(env proto.Env) proto.Handler {
				return proto.HandlerFunc(func(types.ProcID, proto.Message) {})
			})
			continue
		}
		v := types.Value("a")
		if !unanimous && i%2 == 0 {
			v = "b"
		}
		if !unanimous && i <= p.T+1 {
			v = "a" // keep "a" feasible
		}
		_ = w.SetBehavior(id, func(env proto.Env) proto.Handler {
			var inst *ac.Instance
			layer := rb.New(env, func(origin types.ProcID, tg proto.Tag, vv types.Value) {
				switch tg {
				case propTag:
					inst.OnCBDeliver(origin, vv)
				case estTag:
					inst.OnEstDeliver(origin, vv)
				}
			})
			inst = ac.New(ac.Config{
				Env: env, Round: round,
				BroadcastProp: func(vv types.Value) { layer.Broadcast(propTag, vv) },
				BroadcastEst:  func(vv types.Value) { layer.Broadcast(estTag, vv) },
				OnDone:        func(o ac.Outcome) { outcomes[id] = o },
			})
			env.SetTimer(0, func() { inst.Propose(v) })
			return proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
				layer.OnMessage(from, m)
			})
		})
	}
	w.Run(0, 0)
	term = len(outcomes) == nCorrect
	quasi = true
	var committed types.Value
	hasCommit := false
	for _, o := range outcomes {
		if o.Commit {
			committed, hasCommit = o.Val, true
		}
	}
	if hasCommit {
		for _, o := range outcomes {
			if o.Val != committed {
				quasi = false
			}
		}
	}
	oblig = true
	if unanimous {
		for _, o := range outcomes {
			if !o.Commit || o.Val != "a" {
				oblig = false
			}
		}
	}
	return term, quasi, oblig
}

// EAScenario builds the DESIGN.md §3 fast-path scenario and runs one EA
// round in the given mode; it reports which correct processes returned.
func EAScenario(mode ea.FastPathMode, seed int64) (returned map[types.ProcID]types.Value, msgs uint64) {
	p := types.Params{N: 4, T: 1, M: 2}
	w, err := harness.New(harness.Config{
		Params:   p,
		Topology: network.FullyAsynchronous(4),
		Policy:   network.FixedDelay{D: types.Duration(time.Millisecond)},
		Adv:      prop2Delayer{},
		Seed:     seed,
	})
	if err != nil {
		return nil, 0
	}
	plan, err := combin.NewRoundPlan(4, 3)
	if err != nil {
		return nil, 0
	}
	returned = make(map[types.ProcID]types.Value)
	// Byzantine p1: mute coordinator + PROP2 equivocation + CB support
	// for value b.
	_ = w.SetBehavior(1, func(env proto.Env) proto.Handler {
		layer := rb.New(env, func(types.ProcID, proto.Tag, types.Value) {})
		env.SetTimer(0, func() {
			layer.Broadcast(proto.Tag{Mod: proto.ModEACB, Round: 1}, "b")
			eaTag := proto.Tag{Mod: proto.ModEA, Round: 1}
			env.Send(2, proto.Message{Kind: proto.MsgEAProp2, Tag: eaTag, Val: "a"})
			env.Send(3, proto.Message{Kind: proto.MsgEAProp2, Tag: eaTag, Val: "a"})
			env.Send(4, proto.Message{Kind: proto.MsgEAProp2, Tag: eaTag, Val: "b"})
		})
		return proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
			layer.OnMessage(from, m)
		})
	})
	vals := map[types.ProcID]types.Value{2: "a", 3: "a", 4: "b"}
	for _, id := range []types.ProcID{2, 3, 4} { // deterministic order
		id, v := id, vals[id]
		_ = w.SetBehavior(id, func(env proto.Env) proto.Handler {
			var obj *ea.Object
			layer := rb.New(env, func(origin types.ProcID, tg proto.Tag, vv types.Value) {
				if tg.Mod == proto.ModEACB {
					obj.OnCBDeliver(tg.Round, origin, vv)
				}
			})
			obj, _ = ea.New(ea.Config{
				Env: env, Plan: plan,
				BroadcastCB: func(r types.Round, vv types.Value) {
					layer.Broadcast(proto.Tag{Mod: proto.ModEACB, Round: r}, vv)
				},
				TimeUnit: Unit,
				Mode:     mode,
				MaxRound: 100,
			})
			env.SetTimer(0, func() {
				_ = obj.Propose(1, v, func(ret types.Value) { returned[id] = ret })
			})
			return proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
				if layer.OnMessage(from, m) {
					return
				}
				obj.OnPlain(from, m)
			})
		})
	}
	w.Run(0, 0)
	return returned, w.Net.Sent()
}

// prop2Delayer delays p4's EA_PROP2 to p2/p3 so their line-3 windows stay
// unanimously "a" while p4's window is mixed.
type prop2Delayer struct{}

func (prop2Delayer) MessageDelay(from, to types.ProcID, _ types.Time, payload any) (types.Duration, bool) {
	m, ok := proto.AsMessage(payload)
	if !ok || m.Kind != proto.MsgEAProp2 {
		return 0, false
	}
	if from == 4 && (to == 2 || to == 3) {
		return types.Duration(time.Hour), true
	}
	return 0, false
}

// E9FastPath reproduces the DESIGN.md §3 finding: the literal Figure 3
// line-4 semantics can leave a correct process's EA_propose blocked, while
// the continue-in-background semantics (assumed by the Claim C proof)
// terminates.
func E9FastPath() Result {
	tb := newTable("fast-path mode", "p2 returned", "p3 returned", "p4 returned", "verdict")
	lit, _ := EAScenario(ea.FastPathReturnOnly, 3)
	cont, _ := EAScenario(ea.FastPathContinue, 3)
	has := func(m map[types.ProcID]types.Value, id types.ProcID) bool { _, ok := m[id]; return ok }
	litOK := has(lit, 2) && has(lit, 3) && !has(lit, 4)
	contOK := has(cont, 2) && has(cont, 3) && has(cont, 4)
	v1 := "stall reproduced"
	if !litOK {
		v1 = "UNEXPECTED"
	}
	v2 := "terminates"
	if !contOK {
		v2 = "UNEXPECTED"
	}
	tb.row("literal (Fig. 3 as written)", has(lit, 2), has(lit, 3), has(lit, 4), v1)
	tb.row("continue-in-background (default)", has(cont, 2), has(cont, 3), has(cont, 4), v2)
	return Result{
		ID:    "E9",
		Claim: "reproduction finding: literal line-4 semantics lose EA-Termination under a mute coordinator + PROP2 equivocation; the Claim-C-compatible semantics keep it",
		Table: tb.String(),
		Pass:  litOK && contOK,
		Notes: "see DESIGN.md §3; the missing Lemma 2 proof is in the unavailable tech report [6]",
	}
}

// E4EA aggregates the EA object's properties: validity under unanimity
// (with a garbage-championing Byzantine coordinator) and termination under
// mixed inputs with a silent coordinator.
func E4EA(seeds int) Result {
	tb := newTable("scenario", "runs", "ok")
	pass := true
	okV, okT := 0, 0
	for s := 0; s < seeds; s++ {
		if runEAValidity(int64(s)) {
			okV++
		}
		if runEATermination(int64(s)) {
			okT++
		}
	}
	if okV != seeds || okT != seeds {
		pass = false
	}
	tb.row("unanimity + garbage coordinator → only v returned", seeds, frac(okV, seeds))
	tb.row("mixed inputs + silent coordinator → all return", seeds, frac(okT, seeds))
	return Result{
		ID:    "E4",
		Claim: "Theorem 3 (§5): EA validity and per-round termination",
		Table: tb.String(),
		Pass:  pass,
	}
}

func runEAValidity(seed int64) bool {
	returned := runOneEARound(seed, map[types.ProcID]types.Value{2: "v", 3: "v", 4: "v"}, true)
	if len(returned) != 3 {
		return false
	}
	for _, v := range returned {
		if v != "v" {
			return false
		}
	}
	return true
}

func runEATermination(seed int64) bool {
	returned := runOneEARound(seed, map[types.ProcID]types.Value{2: "a", 3: "a", 4: "b"}, false)
	return len(returned) == 3
}

// runOneEARound drives one EA round at n=4 with Byzantine p1 (the round-1
// coordinator): garbage-championing when champion, else silent.
func runOneEARound(seed int64, vals map[types.ProcID]types.Value, champion bool) map[types.ProcID]types.Value {
	p := types.Params{N: 4, T: 1, M: 2}
	w, err := harness.New(harness.Config{
		Params: p, Topology: network.FullySynchronous(4, Delta), Seed: seed,
	})
	if err != nil {
		return nil
	}
	plan, err := combin.NewRoundPlan(4, 3)
	if err != nil {
		return nil
	}
	returned := make(map[types.ProcID]types.Value)
	_ = w.SetBehavior(1, func(env proto.Env) proto.Handler {
		layer := rb.New(env, func(types.ProcID, proto.Tag, types.Value) {})
		if champion {
			env.SetTimer(0, func() {
				env.Broadcast(proto.Message{
					Kind: proto.MsgEACoord, Tag: proto.Tag{Mod: proto.ModEA, Round: 1}, Val: "garbage",
				})
			})
		}
		return proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
			layer.OnMessage(from, m)
		})
	})
	for _, id := range []types.ProcID{2, 3, 4} { // deterministic order
		id, v := id, vals[id]
		_ = w.SetBehavior(id, func(env proto.Env) proto.Handler {
			var obj *ea.Object
			layer := rb.New(env, func(origin types.ProcID, tg proto.Tag, vv types.Value) {
				if tg.Mod == proto.ModEACB {
					obj.OnCBDeliver(tg.Round, origin, vv)
				}
			})
			obj, _ = ea.New(ea.Config{
				Env: env, Plan: plan,
				BroadcastCB: func(r types.Round, vv types.Value) {
					layer.Broadcast(proto.Tag{Mod: proto.ModEACB, Round: r}, vv)
				},
				TimeUnit: Unit,
				MaxRound: 100,
			})
			env.SetTimer(0, func() {
				_ = obj.Propose(1, v, func(ret types.Value) { returned[id] = ret })
			})
			return proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
				if layer.OnMessage(from, m) {
					return
				}
				obj.OnPlain(from, m)
			})
		})
	}
	w.Run(0, 0)
	return returned
}
