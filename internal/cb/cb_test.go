package cb_test

import (
	"fmt"
	"testing"

	"repro/internal/cb"
	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/proto"
	"repro/internal/rb"
	"repro/internal/trace"
	"repro/internal/types"
)

var cbTag = proto.Tag{Mod: proto.ModConsCB0, Round: 0}

type cbWorld struct {
	w       *harness.World
	inst    map[types.ProcID]*cb.Instance
	returns map[types.ProcID]types.Value
}

// newCBWorld builds correct CB processes for every id not in byz, each
// proposing proposals[id] at time 0.
func newCBWorld(t *testing.T, p types.Params, seed int64, botMode bool,
	proposals map[types.ProcID]types.Value, byz map[types.ProcID]harness.Behavior) *cbWorld {
	t.Helper()
	w, err := harness.New(harness.Config{
		Params: p, Topology: network.FullyAsynchronous(p.N), Seed: seed,
		Record: true, BotOK: botMode,
	})
	if err != nil {
		t.Fatal(err)
	}
	cw := &cbWorld{
		w:       w,
		inst:    make(map[types.ProcID]*cb.Instance),
		returns: make(map[types.ProcID]types.Value),
	}
	for _, id := range p.AllProcs() {
		id := id
		if b, ok := byz[id]; ok {
			if err := w.SetBehavior(id, firstMessage(b)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		err := w.SetBehavior(id, func(env proto.Env) proto.Handler {
			var inst *cb.Instance
			layer := rb.New(env, func(origin types.ProcID, tag proto.Tag, v types.Value) {
				if tag == cbTag {
					inst.OnRBDeliver(origin, v)
				}
			})
			inst = cb.New(cb.Config{
				Env:       env,
				Tag:       cbTag,
				BotMode:   botMode,
				Broadcast: func(v types.Value) { layer.Broadcast(cbTag, v) },
				OnReturn:  func(v types.Value) { cw.returns[id] = v },
			})
			cw.inst[id] = inst
			if v, ok := proposals[id]; ok {
				env.SetTimer(0, func() { inst.Start(v) })
			}
			return proto.NewNode(env.Params().N, proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
				layer.OnMessage(from, m)
			}), nil)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return cw
}

func sameStringSet(a, b []types.Value) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[types.Value]bool, len(a))
	for _, v := range a {
		m[v] = true
	}
	for _, v := range b {
		if !m[v] {
			return false
		}
	}
	return true
}

func TestOperationAndSetTermination(t *testing.T) {
	// n=4 t=1 m=2: values {a,b}, three correct propose a,a,b → a has t+1
	// correct supporters. Every correct invocation must return, and every
	// cb_valid must be non-empty.
	p := types.Params{N: 4, T: 1, M: 2}
	props := map[types.ProcID]types.Value{1: "a", 2: "a", 3: "b", 4: "b"}
	cw := newCBWorld(t, p, 1, false, props, nil)
	cw.w.Run(0, 0)
	for id := types.ProcID(1); id <= 4; id++ {
		if _, ok := cw.returns[id]; !ok {
			t.Fatalf("%v: CB_broadcast did not return", id)
		}
		if len(cw.inst[id].Valid()) == 0 {
			t.Fatalf("%v: cb_valid empty", id)
		}
	}
}

func TestSetValidityExcludesByzantineValue(t *testing.T) {
	// The t Byzantine processes all cb-broadcast the same value w not
	// proposed by any correct process: w must never enter cb_valid and
	// never be returned (feasibility discussion, §2.3).
	for seed := int64(0); seed < 10; seed++ {
		p := types.Params{N: 7, T: 2, M: 2}
		props := map[types.ProcID]types.Value{1: "a", 2: "a", 3: "a", 4: "b", 5: "b"}
		byz := map[types.ProcID]harness.Behavior{}
		for _, id := range []types.ProcID{6, 7} {
			id := id
			byz[id] = func(env proto.Env) proto.Handler {
				layer := rb.New(env, func(types.ProcID, proto.Tag, types.Value) {})
				env.SetTimer(0, func() { layer.Broadcast(cbTag, "w") })
				return proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
					layer.OnMessage(from, m)
				})
			}
		}
		cw := newCBWorld(t, p, seed, false, props, byz)
		cw.w.Run(0, 0)
		for id := types.ProcID(1); id <= 5; id++ {
			if cw.inst[id].IsValid("w") {
				t.Fatalf("seed %d: %v validated Byzantine-only value w", seed, id)
			}
			if cw.returns[id] == "w" {
				t.Fatalf("seed %d: %v returned Byzantine-only value w", seed, id)
			}
			if got := cw.returns[id]; got != "a" && got != "b" {
				t.Fatalf("seed %d: %v returned %q", seed, id, got)
			}
		}
	}
}

func TestSetAgreementEventual(t *testing.T) {
	// After the run drains, all correct cb_valid sets must be equal
	// (CB-Set Agreement), across seeds and fault patterns.
	for seed := int64(0); seed < 15; seed++ {
		p := types.Params{N: 7, T: 2, M: 2}
		props := map[types.ProcID]types.Value{1: "a", 2: "b", 3: "a", 4: "b", 5: "a"}
		// p6 crashes from start (no behavior), p7 equivocates CB_VAL by
		// RB-init equivocation (which RB resolves to one value or none).
		byz := map[types.ProcID]harness.Behavior{
			6: func(env proto.Env) proto.Handler {
				return proto.HandlerFunc(func(types.ProcID, proto.Message) {})
			},
			7: func(env proto.Env) proto.Handler {
				env.SetTimer(0, func() {
					for i := 1; i <= env.Params().N; i++ {
						v := types.Value("a")
						if i%2 == 0 {
							v = "b"
						}
						env.Send(types.ProcID(i), proto.Message{Kind: proto.MsgRBInit, Tag: cbTag, Origin: 7, Val: v})
					}
				})
				return proto.HandlerFunc(func(types.ProcID, proto.Message) {})
			},
		}
		cw := newCBWorld(t, p, seed, false, props, byz)
		cw.w.Run(0, 0)
		ref := cw.inst[1].Valid()
		for id := types.ProcID(2); id <= 5; id++ {
			if !sameStringSet(ref, cw.inst[id].Valid()) {
				t.Fatalf("seed %d: cb_valid differ: p1=%v %v=%v", seed, ref, id, cw.inst[id].Valid())
			}
		}
	}
}

func TestReturnIsFirstQualified(t *testing.T) {
	// Determinism: the operation returns the first value that qualified.
	p := types.Params{N: 4, T: 1, M: 2}
	props := map[types.ProcID]types.Value{1: "a", 2: "a", 3: "a", 4: "a"}
	cw := newCBWorld(t, p, 3, false, props, nil)
	cw.w.Run(0, 0)
	for id := types.ProcID(1); id <= 4; id++ {
		if cw.returns[id] != "a" {
			t.Fatalf("%v returned %q, want a", id, cw.returns[id])
		}
		if got := cw.inst[id].Valid()[0]; got != "a" {
			t.Fatalf("%v valid[0] = %q", id, got)
		}
	}
}

func TestStartTwicePanics(t *testing.T) {
	p := types.Params{N: 4, T: 1, M: 2}
	props := map[types.ProcID]types.Value{1: "a", 2: "a", 3: "a", 4: "a"}
	cw := newCBWorld(t, p, 3, false, props, nil)
	cw.w.Run(0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("second Start must panic")
		}
	}()
	cw.inst[1].Start("again")
}

func TestLateStartReturnsImmediately(t *testing.T) {
	// A process whose Start happens after its cb_valid is already
	// non-empty must return at once (the wait of line 2 is already true).
	p := types.Params{N: 4, T: 1, M: 2}
	props := map[types.ProcID]types.Value{1: "a", 2: "a", 3: "a"} // p4 starts late
	cw := newCBWorld(t, p, 5, false, props, nil)
	cw.w.Run(0, 0) // drain: p4 has delivered everyone's CB_VALs
	if _, ok := cw.returns[4]; ok {
		t.Fatal("p4 must not have returned before starting")
	}
	if len(cw.inst[4].Valid()) == 0 {
		t.Fatal("p4 cb_valid should be populated by others' broadcasts")
	}
	cw.inst[4].Start("b")
	if v, ok := cw.returns[4]; !ok || v != "a" {
		t.Fatalf("late Start returned (%q, %v), want immediate a", v, ok)
	}
}

func TestSupportCounting(t *testing.T) {
	p := types.Params{N: 4, T: 1, M: 2}
	props := map[types.ProcID]types.Value{1: "a", 2: "a", 3: "b", 4: "b"}
	cw := newCBWorld(t, p, 1, false, props, nil)
	cw.w.Run(0, 0)
	if got := cw.inst[1].Support("a"); got != 2 {
		t.Fatalf("Support(a) = %d, want 2", got)
	}
	if got := cw.inst[1].Support("zzz"); got != 0 {
		t.Fatalf("Support(zzz) = %d, want 0", got)
	}
}

// paramsEnv is one process that only answers Params and Trace, the two
// calls OnRBDeliver makes.
type paramsEnv struct {
	proto.Env
	p types.Params
}

func (e paramsEnv) Params() types.Params { return e.p }
func (e paramsEnv) Trace() *trace.Log    { return nil }

// Counting a delivery for a value that already has support allocates
// nothing.
func TestSupportCountAllocatesNothing(t *testing.T) {
	const runs = 30
	p := types.Params{N: 100, T: 33, M: 1} // t+1 = 34 stays out of reach
	inst := cb.New(cb.Config{Env: paramsEnv{p: p}, Tag: cbTag, Broadcast: func(types.Value) {}})
	inst.OnRBDeliver(1, "a")
	origin := types.ProcID(2)
	allocs := testing.AllocsPerRun(runs, func() {
		inst.OnRBDeliver(origin, "a")
		origin++
	})
	if allocs != 0 {
		t.Fatalf("counting a supported value allocates %v times", allocs)
	}
	if got := inst.Support("a"); got != runs+2 {
		t.Fatalf("Support(a) = %d, want %d", got, runs+2)
	}
}

func TestBotModeSplitValidatesBot(t *testing.T) {
	// ⊥-variant (§7): n=4 t=1, all four processes correct but fully split
	// across 4 distinct values — no value can reach t+1 = 2 supporters, so
	// ⊥ must qualify everywhere and every operation returns ⊥.
	p := types.Params{N: 4, T: 1, M: 4} // m beyond the m-valued bound: BotOK
	props := map[types.ProcID]types.Value{1: "a", 2: "b", 3: "c", 4: "d"}
	cw := newCBWorld(t, p, 2, true, props, nil)
	cw.w.Run(0, 0)
	for id := types.ProcID(1); id <= 4; id++ {
		if !cw.inst[id].IsValid(types.BotValue) {
			t.Fatalf("%v: ⊥ not validated on a full split", id)
		}
		if cw.returns[id] != types.BotValue {
			t.Fatalf("%v returned %q, want ⊥", id, cw.returns[id])
		}
	}
}

func TestBotModeUnanimousNeverValidatesBot(t *testing.T) {
	// When all correct processes propose the same value, the ⊥ witness is
	// impossible: any n−t origins include ≥ n−2t ≥ t+1 copies of v.
	for seed := int64(0); seed < 10; seed++ {
		p := types.Params{N: 4, T: 1, M: 4}
		props := map[types.ProcID]types.Value{1: "v", 2: "v", 3: "v"}
		byz := map[types.ProcID]harness.Behavior{
			4: func(env proto.Env) proto.Handler {
				layer := rb.New(env, func(types.ProcID, proto.Tag, types.Value) {})
				env.SetTimer(0, func() { layer.Broadcast(cbTag, "evil") })
				return proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
					layer.OnMessage(from, m)
				})
			},
		}
		cw := newCBWorld(t, p, seed, true, props, byz)
		cw.w.Run(0, 0)
		for id := types.ProcID(1); id <= 3; id++ {
			if cw.inst[id].IsValid(types.BotValue) {
				t.Fatalf("seed %d: %v validated ⊥ despite unanimous correct proposals", seed, id)
			}
			if cw.returns[id] != "v" {
				t.Fatalf("seed %d: %v returned %q, want v", seed, id, cw.returns[id])
			}
		}
	}
}

func TestBotModeAgreementOnBot(t *testing.T) {
	// The ⊥ witness must be agreed: if one correct process validates ⊥,
	// all eventually do (monotone witness + RB-Termination-2).
	for seed := int64(0); seed < 10; seed++ {
		p := types.Params{N: 7, T: 2, M: 7}
		props := map[types.ProcID]types.Value{1: "a", 2: "b", 3: "c", 4: "d", 5: "e"}
		byz := map[types.ProcID]harness.Behavior{
			6: func(env proto.Env) proto.Handler { return proto.HandlerFunc(func(types.ProcID, proto.Message) {}) },
			7: func(env proto.Env) proto.Handler { return proto.HandlerFunc(func(types.ProcID, proto.Message) {}) },
		}
		cw := newCBWorld(t, p, seed, true, props, byz)
		cw.w.Run(0, 0)
		botCount := 0
		for id := types.ProcID(1); id <= 5; id++ {
			if cw.inst[id].IsValid(types.BotValue) {
				botCount++
			}
		}
		if botCount != 0 && botCount != 5 {
			t.Fatalf("seed %d: ⊥ validated at %d/5 correct processes (agreement broken)", seed, botCount)
		}
		if botCount != 5 {
			t.Fatalf("seed %d: expected ⊥ on a 5-way split, got %d", seed, botCount)
		}
	}
}

func TestFeasibilityViolationStallsOperation(t *testing.T) {
	// Negative experiment (E6): if correct processes split so that no
	// value reaches t+1 correct supporters and BotMode is off, cb_valid
	// can stay empty forever: operations never return. This is exactly
	// why the paper's feasibility condition n−t > m·t is needed.
	p := types.Params{N: 4, T: 1, M: 2} // params say m=2, but we propose 3 values
	props := map[types.ProcID]types.Value{1: "a", 2: "b", 3: "c"}
	byz := map[types.ProcID]harness.Behavior{
		4: func(env proto.Env) proto.Handler { return proto.HandlerFunc(func(types.ProcID, proto.Message) {}) },
	}
	cw := newCBWorld(t, p, 8, false, props, byz)
	cw.w.Run(0, 0)
	for id := types.ProcID(1); id <= 3; id++ {
		if _, ok := cw.returns[id]; ok {
			t.Fatalf("%v returned %q despite infeasible split", id, cw.returns[id])
		}
		if got := len(cw.inst[id].Valid()); got != 0 {
			t.Fatalf("%v cb_valid = %v, want empty", id, cw.inst[id].Valid())
		}
	}
}

func TestManyScales(t *testing.T) {
	for _, n := range []int{4, 7, 10, 13} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			tf := (n - 1) / 3
			p := types.Params{N: n, T: tf, M: 2}
			props := make(map[types.ProcID]types.Value)
			for i := 1; i <= n-tf; i++ {
				props[types.ProcID(i)] = "a" // unanimous among correct
			}
			byz := make(map[types.ProcID]harness.Behavior)
			for i := n - tf + 1; i <= n; i++ {
				byz[types.ProcID(i)] = func(env proto.Env) proto.Handler {
					return proto.HandlerFunc(func(types.ProcID, proto.Message) {})
				}
			}
			cw := newCBWorld(t, p, int64(n), false, props, byz)
			cw.w.Run(0, 0)
			for i := 1; i <= n-tf; i++ {
				id := types.ProcID(i)
				if cw.returns[id] != "a" {
					t.Fatalf("%v returned %q", id, cw.returns[id])
				}
				if got := cw.inst[id].Valid(); len(got) != 1 || got[0] != "a" {
					t.Fatalf("%v cb_valid = %v", id, got)
				}
			}
		})
	}
}

// firstMessage hosts b behind the first-message rule, like every process
// of the world: the harness hands deliveries straight to the handler.
func firstMessage(b harness.Behavior) harness.Behavior {
	return func(env proto.Env) proto.Handler { return proto.NewNode(env.Params().N, b(env), nil) }
}
