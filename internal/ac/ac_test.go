package ac_test

import (
	"fmt"
	"testing"

	"repro/internal/ac"
	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/proto"
	"repro/internal/rb"
	"repro/internal/types"
)

const acRound = types.Round(1)

var (
	propTag = proto.Tag{Mod: proto.ModACCB, Round: acRound}
	estTag  = proto.Tag{Mod: proto.ModACEst, Round: acRound}
)

type acWorld struct {
	w        *harness.World
	inst     map[types.ProcID]*ac.Instance
	outcomes map[types.ProcID]ac.Outcome
}

// newACWorld builds correct AC processes; byz behaviors replace them.
func newACWorld(t *testing.T, p types.Params, seed int64,
	proposals map[types.ProcID]types.Value, byz map[types.ProcID]harness.Behavior) *acWorld {
	t.Helper()
	w, err := harness.New(harness.Config{
		Params: p, Topology: network.FullyAsynchronous(p.N), Seed: seed, Record: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	aw := &acWorld{
		w:        w,
		inst:     make(map[types.ProcID]*ac.Instance),
		outcomes: make(map[types.ProcID]ac.Outcome),
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
			var inst *ac.Instance
			layer := rb.New(env, func(origin types.ProcID, tag proto.Tag, v types.Value) {
				switch tag {
				case propTag:
					inst.OnCBDeliver(origin, v)
				case estTag:
					inst.OnEstDeliver(origin, v)
				}
			})
			inst = ac.New(ac.Config{
				Env:           env,
				Round:         acRound,
				BroadcastProp: func(v types.Value) { layer.Broadcast(propTag, v) },
				BroadcastEst:  func(v types.Value) { layer.Broadcast(estTag, v) },
				OnDone:        func(o ac.Outcome) { aw.outcomes[id] = o },
			})
			aw.inst[id] = inst
			if v, ok := proposals[id]; ok {
				env.SetTimer(0, func() { inst.Propose(v) })
			}
			return proto.NewNode(env.Params().N, proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
				layer.OnMessage(from, m)
			}), nil)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return aw
}

// silent returns a crashed-from-start behavior.
func silent(env proto.Env) proto.Handler {
	return proto.HandlerFunc(func(types.ProcID, proto.Message) {})
}

func TestObligationUnanimousCommit(t *testing.T) {
	// All correct processes propose v ⇒ every correct outcome is
	// ⟨commit, v⟩, even with t crashed processes.
	for _, n := range []int{4, 7, 10} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			tf := (n - 1) / 3
			p := types.Params{N: n, T: tf, M: 2}
			props := make(map[types.ProcID]types.Value)
			byz := make(map[types.ProcID]harness.Behavior)
			for i := 1; i <= n-tf; i++ {
				props[types.ProcID(i)] = "v"
			}
			for i := n - tf + 1; i <= n; i++ {
				byz[types.ProcID(i)] = silent
			}
			aw := newACWorld(t, p, 17, props, byz)
			aw.w.Run(0, 0)
			for i := 1; i <= n-tf; i++ {
				id := types.ProcID(i)
				o, ok := aw.outcomes[id]
				if !ok {
					t.Fatalf("%v: AC did not terminate", id)
				}
				if !o.Commit || o.Val != "v" {
					t.Fatalf("%v: outcome %+v, want commit v", id, o)
				}
			}
		})
	}
}

func TestQuasiAgreementUnderSplit(t *testing.T) {
	// Mixed proposals across many schedules: if any correct process
	// commits v, every correct process must return ⟨−, v⟩.
	for _, c := range []struct {
		p     types.Params
		props map[types.ProcID]types.Value
		byz   map[types.ProcID]harness.Behavior
	}{
		{types.Params{N: 4, T: 1, M: 2}, map[types.ProcID]types.Value{1: "a", 2: "a", 3: "b"},
			map[types.ProcID]harness.Behavior{4: silent}},
		{types.Params{N: 7, T: 2, M: 2}, map[types.ProcID]types.Value{1: "a", 2: "a", 3: "a", 4: "b", 5: "b"},
			map[types.ProcID]harness.Behavior{6: silent, 7: silent}},
	} {
		correct := types.ProcID(len(c.props))
		for seed := int64(0); seed < 40; seed++ {
			aw := newACWorld(t, c.p, seed, c.props, c.byz)
			aw.w.Run(0, 0)
			var committed types.Value
			for id := types.ProcID(1); id <= correct; id++ {
				o, ok := aw.outcomes[id]
				if !ok {
					t.Fatalf("n=%d seed %d: %v: AC did not terminate", c.p.N, seed, id)
				}
				if o.Commit {
					if committed != "" && committed != o.Val {
						t.Fatalf("n=%d seed %d: two different commits %q %q", c.p.N, seed, committed, o.Val)
					}
					committed = o.Val
				}
			}
			if committed == "" {
				continue
			}
			for id := types.ProcID(1); id <= correct; id++ {
				if o := aw.outcomes[id]; o.Val != committed {
					t.Fatalf("n=%d seed %d: %v returned ⟨−,%q⟩ but %q was committed", c.p.N, seed, id, o.Val, committed)
				}
			}
		}
	}
}

func TestOutputDomainExcludesByzantineValue(t *testing.T) {
	// Byzantine processes push value w through both streams; no correct
	// outcome may carry w.
	for seed := int64(0); seed < 20; seed++ {
		p := types.Params{N: 7, T: 2, M: 2}
		props := map[types.ProcID]types.Value{1: "a", 2: "a", 3: "a", 4: "b", 5: "b"}
		byzB := func(env proto.Env) proto.Handler {
			layer := rb.New(env, func(types.ProcID, proto.Tag, types.Value) {})
			env.SetTimer(0, func() {
				layer.Broadcast(propTag, "w")
				layer.Broadcast(estTag, "w")
			})
			return proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
				layer.OnMessage(from, m)
			})
		}
		byz := map[types.ProcID]harness.Behavior{6: byzB, 7: byzB}
		aw := newACWorld(t, p, seed, props, byz)
		aw.w.Run(0, 0)
		for id := types.ProcID(1); id <= 5; id++ {
			o, ok := aw.outcomes[id]
			if !ok {
				t.Fatalf("seed %d: %v: AC did not terminate", seed, id)
			}
			if o.Val != "a" && o.Val != "b" {
				t.Fatalf("seed %d: %v returned Byzantine value %q", seed, id, o.Val)
			}
		}
	}
}

func TestByzantineEquivocationCannotForgeCommitDisagreement(t *testing.T) {
	// The AC_EST stream uses RB, so Byzantine processes cannot send
	// different est values to different correct processes within one
	// stream; quasi-agreement must survive an INIT-equivocation attempt.
	for seed := int64(0); seed < 20; seed++ {
		p := types.Params{N: 4, T: 1, M: 2}
		props := map[types.ProcID]types.Value{1: "a", 2: "a", 3: "b"}
		byz := map[types.ProcID]harness.Behavior{
			4: func(env proto.Env) proto.Handler {
				layer := rb.New(env, func(types.ProcID, proto.Tag, types.Value) {})
				env.SetTimer(0, func() {
					layer.Broadcast(propTag, "a")
					// Equivocate AC_EST INIT: "a" to p1/p2, "b" to p3.
					for i := 1; i <= 4; i++ {
						v := types.Value("a")
						if i == 3 {
							v = "b"
						}
						env.Send(types.ProcID(i), proto.Message{
							Kind: proto.MsgRBInit, Tag: estTag, Origin: 4, Val: v,
						})
					}
				})
				return proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
					layer.OnMessage(from, m)
				})
			},
		}
		aw := newACWorld(t, p, seed, props, byz)
		aw.w.Run(0, 0)
		var committed types.Value
		for id := types.ProcID(1); id <= 3; id++ {
			o, ok := aw.outcomes[id]
			if !ok {
				t.Fatalf("seed %d: %v did not terminate", seed, id)
			}
			if o.Commit {
				committed = o.Val
			}
		}
		if committed == "" {
			continue
		}
		for id := types.ProcID(1); id <= 3; id++ {
			if o := aw.outcomes[id]; o.Val != committed {
				t.Fatalf("seed %d: quasi-agreement broken: %v has %+v, committed %q", seed, id, o, committed)
			}
		}
	}
}

func TestTerminationWithActiveByzantine(t *testing.T) {
	// Byzantine processes participate (so their AC_ESTs are delivered)
	// but push a non-correct value; correct processes must still
	// terminate: the predicate needs n−t *qualifying* messages and there
	// are n−t correct processes whose values all qualify.
	p := types.Params{N: 4, T: 1, M: 2}
	props := map[types.ProcID]types.Value{1: "a", 2: "a", 3: "a"}
	byz := map[types.ProcID]harness.Behavior{
		4: func(env proto.Env) proto.Handler {
			layer := rb.New(env, func(types.ProcID, proto.Tag, types.Value) {})
			env.SetTimer(0, func() {
				layer.Broadcast(propTag, "z")
				layer.Broadcast(estTag, "z")
			})
			return proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
				layer.OnMessage(from, m)
			})
		},
	}
	aw := newACWorld(t, p, 23, props, byz)
	aw.w.Run(0, 0)
	for id := types.ProcID(1); id <= 3; id++ {
		o, ok := aw.outcomes[id]
		if !ok {
			t.Fatalf("%v: AC did not terminate (z never qualifies, but a's quorum must)", id)
		}
		if !o.Commit || o.Val != "a" {
			t.Fatalf("%v: outcome %+v", id, o)
		}
	}
}

func TestProposeTwicePanics(t *testing.T) {
	p := types.Params{N: 4, T: 1, M: 2}
	props := map[types.ProcID]types.Value{1: "a", 2: "a", 3: "a", 4: "a"}
	aw := newACWorld(t, p, 1, props, nil)
	aw.w.Run(0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("second Propose must panic")
		}
	}()
	aw.inst[1].Propose("again")
}

func TestDoneAccessor(t *testing.T) {
	p := types.Params{N: 4, T: 1, M: 2}
	props := map[types.ProcID]types.Value{1: "a", 2: "a", 3: "a", 4: "a"}
	aw := newACWorld(t, p, 1, props, nil)
	if _, done := aw.inst[1].Done(); done {
		t.Fatal("Done before run")
	}
	aw.w.Run(0, 0)
	o, done := aw.inst[1].Done()
	if !done || !o.Commit || o.Val != "a" {
		t.Fatalf("Done = %+v, %v", o, done)
	}
	if aw.inst[1].CB() == nil {
		t.Fatal("CB accessor nil")
	}
}

// firstMessage hosts b behind the first-message rule, like every process
// of the world: the harness hands deliveries straight to the handler.
func firstMessage(b harness.Behavior) harness.Behavior {
	return func(env proto.Env) proto.Handler { return proto.NewNode(env.Params().N, b(env), nil) }
}
