package ea_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/combin"
	"repro/internal/ea"
	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/proto"
	"repro/internal/rb"
	"repro/internal/trace"
	"repro/internal/types"
)

const unit = types.Duration(100 * time.Millisecond) // EA TimeUnit for tests

// eaProc is one correct process running only the EA object.
type eaProc struct {
	id      types.ProcID
	layer   *rb.Layer
	obj     *ea.Object
	returns map[types.Round]types.Value
}

type eaWorld struct {
	w     *harness.World
	procs map[types.ProcID]*eaProc
}

type eaOpts struct {
	mode   ea.FastPathMode
	relay  ea.RelayRule
	k      int // F-set size = n−t+k
	policy network.DelayPolicy
	adv    network.Adversary
	topo   *network.Topology
}

func newEAWorld(t *testing.T, p types.Params, seed int64, o eaOpts, byz map[types.ProcID]harness.Behavior) *eaWorld {
	t.Helper()
	topo := o.topo
	if topo == nil {
		topo = network.FullySynchronous(p.N, types.Duration(5*time.Millisecond))
	}
	w, err := harness.New(harness.Config{
		Params: p, Topology: topo, Policy: o.policy, Adv: o.adv, Seed: seed, Record: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ew := &eaWorld{w: w, procs: make(map[types.ProcID]*eaProc)}
	plan, err := combin.NewRoundPlan(p.N, p.Quorum()+o.k)
	if err != nil {
		t.Fatal(err)
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
			pr := &eaProc{id: id, returns: make(map[types.Round]types.Value)}
			pr.layer = rb.New(env, func(origin types.ProcID, tag proto.Tag, v types.Value) {
				if tag.Mod == proto.ModEACB {
					pr.obj.OnCBDeliver(tag.Round, origin, v)
				}
			})
			obj, err := ea.New(ea.Config{
				Env:  env,
				Plan: plan,
				BroadcastCB: func(r types.Round, v types.Value) {
					pr.layer.Broadcast(proto.Tag{Mod: proto.ModEACB, Round: r}, v)
				},
				TimeUnit: unit,
				Mode:     o.mode,
				Relay:    o.relay,
				MaxRound: 10000,
			})
			if err != nil {
				t.Fatal(err)
			}
			pr.obj = obj
			ew.procs[id] = pr
			return proto.NewNode(env.Params().N, proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
				if pr.layer.OnMessage(from, m) {
					return
				}
				pr.obj.OnPlain(from, m)
			}), nil)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return ew
}

// proposeAll schedules EA_propose(r, vals[id]) at time 0 for every correct
// process, recording returns.
func (ew *eaWorld) proposeAll(t *testing.T, r types.Round, vals map[types.ProcID]types.Value) {
	t.Helper()
	ids := make([]types.ProcID, 0, len(ew.procs))
	for id := range ew.procs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		id, pr := id, ew.procs[id]
		v, ok := vals[id]
		if !ok {
			continue
		}
		ew.w.Env(id).SetTimer(0, func() {
			if err := pr.obj.Propose(r, v, func(ret types.Value) { pr.returns[r] = ret }); err != nil {
				t.Errorf("%v: propose: %v", id, err)
			}
		})
	}
}

// silentRB is a Byzantine behavior that participates in reliable broadcast
// relaying (so it does not merely slow RB down) but plays no protocol role.
func silentRB(env proto.Env) proto.Handler {
	layer := rb.New(env, func(types.ProcID, proto.Tag, types.Value) {})
	return proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
		layer.OnMessage(from, m)
	})
}

func TestValidityUnanimous(t *testing.T) {
	// EA-Validity: all correct processes propose v ⇒ only v is returned,
	// even with a Byzantine coordinator championing garbage.
	p := types.Params{N: 4, T: 1, M: 2}
	byz := map[types.ProcID]harness.Behavior{
		1: func(env proto.Env) proto.Handler { // p1 = coord(1), Byzantine
			layer := rb.New(env, func(types.ProcID, proto.Tag, types.Value) {})
			env.SetTimer(0, func() {
				// Champion a garbage value immediately.
				env.Broadcast(proto.Message{
					Kind: proto.MsgEACoord, Tag: proto.Tag{Mod: proto.ModEA, Round: 1}, Val: "garbage",
				})
			})
			return proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
				layer.OnMessage(from, m)
			})
		},
	}
	for seed := int64(0); seed < 10; seed++ {
		ew := newEAWorld(t, p, seed, eaOpts{}, byz)
		ew.proposeAll(t, 1, map[types.ProcID]types.Value{2: "v", 3: "v", 4: "v"})
		ew.w.Run(0, 0)
		for id := types.ProcID(2); id <= 4; id++ {
			got, ok := ew.procs[id].returns[1]
			if !ok {
				t.Fatalf("seed %d: %v: EA did not return", seed, id)
			}
			if got != "v" {
				t.Fatalf("seed %d: %v returned %q, want v (validity violated)", seed, id, got)
			}
		}
	}
}

func TestTerminationMixedInputsSilentCoordinator(t *testing.T) {
	// Mixed inputs and a silent Byzantine coordinator: every correct
	// invocation must still terminate (via timers → ⊥ relays → line 9).
	p := types.Params{N: 4, T: 1, M: 2}
	byz := map[types.ProcID]harness.Behavior{1: silentRB} // coord(1) silent
	for seed := int64(0); seed < 10; seed++ {
		ew := newEAWorld(t, p, seed, eaOpts{}, byz)
		ew.proposeAll(t, 1, map[types.ProcID]types.Value{2: "a", 3: "a", 4: "b"})
		ew.w.Run(0, 0)
		for id := types.ProcID(2); id <= 4; id++ {
			if _, ok := ew.procs[id].returns[1]; !ok {
				t.Fatalf("seed %d: %v: EA did not terminate with silent coordinator", seed, id)
			}
		}
	}
}

func TestCoordinatorChampioningReachesSlowPath(t *testing.T) {
	// Correct coordinator, mixed inputs, synchronous network: slow-path
	// processes must adopt a value that was actually ea-proposed by a
	// correct process (the coordinator champions an F(r) member's PROP2).
	for seed := int64(0); seed < 10; seed++ {
		p := types.Params{N: 4, T: 1, M: 2}
		ew := newEAWorld(t, p, seed, eaOpts{}, nil)
		vals := map[types.ProcID]types.Value{1: "a", 2: "a", 3: "b", 4: "b"}
		ew.proposeAll(t, 1, vals)
		ew.w.Run(0, 0)
		proposed := map[types.Value]bool{"a": true, "b": true}
		for id := types.ProcID(1); id <= 4; id++ {
			got, ok := ew.procs[id].returns[1]
			if !ok {
				t.Fatalf("seed %d: %v did not return", seed, id)
			}
			if !proposed[got] {
				t.Fatalf("seed %d: %v returned %q, not a proposed value", seed, id, got)
			}
		}
	}
}

// antiFastPathAdv delays the EA_PROP2 messages from one process to a set
// of peers, engineering a fast-path split (see package ea's reproduction
// notes).
type antiFastPathAdv struct {
	from  types.ProcID
	to    map[types.ProcID]bool
	delay types.Duration
}

func (a antiFastPathAdv) MessageDelay(from, to types.ProcID, _ types.Time, payload any) (types.Duration, bool) {
	m, ok := proto.AsMessage(payload)
	if !ok || m.Kind != proto.MsgEAProp2 {
		return 0, false
	}
	if from == a.from && a.to[to] {
		return a.delay, true
	}
	return 0, false
}

// buildFastPathStall constructs the fast-path stall scenario: n=4, t=1, Byzantine mute
// coordinator p1 that (a) RB-broadcasts CB_VAL(b) so that b becomes valid,
// (b) equivocates PROP2 (a to p2/p3, b to p4), (c) never sends EA_COORD.
// The network adversary delays p4's PROP2 to p2/p3 so their line-3 windows
// are unanimously "a" (fast path) while p4's window is mixed.
func buildFastPathStall(t *testing.T, mode ea.FastPathMode) *eaWorld {
	t.Helper()
	p := types.Params{N: 4, T: 1, M: 2}
	byz := map[types.ProcID]harness.Behavior{
		1: func(env proto.Env) proto.Handler {
			layer := rb.New(env, func(types.ProcID, proto.Tag, types.Value) {})
			env.SetTimer(0, func() {
				// Support value b in CB[1] so it can qualify at p4.
				layer.Broadcast(proto.Tag{Mod: proto.ModEACB, Round: 1}, "b")
				// Equivocate PROP2: a to p2/p3 (completing their unanimous
				// windows), b to p4 (spoiling its window).
				eaTag := proto.Tag{Mod: proto.ModEA, Round: 1}
				env.Send(2, proto.Message{Kind: proto.MsgEAProp2, Tag: eaTag, Val: "a"})
				env.Send(3, proto.Message{Kind: proto.MsgEAProp2, Tag: eaTag, Val: "a"})
				env.Send(4, proto.Message{Kind: proto.MsgEAProp2, Tag: eaTag, Val: "b"})
				// ... and never send EA_COORD (mute coordinator).
			})
			return proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
				layer.OnMessage(from, m)
			})
		},
	}
	adv := antiFastPathAdv{
		from:  4,
		to:    map[types.ProcID]bool{2: true, 3: true},
		delay: types.Duration(time.Hour),
	}
	ew := newEAWorld(t, p, 3, eaOpts{
		mode: mode,
		topo: network.FullyAsynchronous(4),
		// Fast deterministic base delays keep the schedule legible.
		policy: network.FixedDelay{D: types.Duration(time.Millisecond)},
		adv:    adv,
	}, byz)
	ew.proposeAll(t, 1, map[types.ProcID]types.Value{2: "a", 3: "a", 4: "b"})
	return ew
}

func TestFastPathLiteralStalls(t *testing.T) {
	// Reproduction finding: with the literal Figure 3 semantics,
	// fast-path returners never arm their timers; with a mute Byzantine
	// coordinator, p4 cannot collect n−t relays and its EA_propose never
	// returns — an apparent liveness gap of the conference text.
	ew := buildFastPathStall(t, ea.FastPathReturnOnly)
	ew.w.Run(0, 0)
	if _, ok := ew.procs[2].returns[1]; !ok {
		t.Fatal("p2 should fast-path return")
	}
	if _, ok := ew.procs[3].returns[1]; !ok {
		t.Fatal("p3 should fast-path return")
	}
	if v, ok := ew.procs[4].returns[1]; ok {
		t.Fatalf("p4 returned %q — expected a stall under literal fast-path semantics", v)
	}
}

func TestFastPathContinueTerminates(t *testing.T) {
	// Same scenario, default semantics: fast-path returners stay relay
	// participants, so p4's line 6 completes and it returns its own value.
	ew := buildFastPathStall(t, ea.FastPathContinue)
	ew.w.Run(0, 0)
	for id := types.ProcID(2); id <= 4; id++ {
		if _, ok := ew.procs[id].returns[1]; !ok {
			t.Fatalf("%v did not return under FastPathContinue", id)
		}
	}
	if got := ew.procs[4].returns[1]; got != "b" {
		t.Fatalf("p4 returned %q, want its own value b (all-⊥ relays)", got)
	}
}

func TestEventualAgreementWithinAlphaNRounds(t *testing.T) {
	// §5.4: with a ⟨t+1⟩bisource from the start (here: full synchrony,
	// which makes every correct process a bisource), there must be a round
	// r ≤ α·n where all correct processes return the same value. Drive
	// rounds manually, each process re-proposing its own original value
	// (worst case: inputs never converge on their own).
	p := types.Params{N: 4, T: 1, M: 2}
	plan, err := combin.NewRoundPlan(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	bound := types.Round(plan.WorstCaseRounds()) // α·n = 16
	byz := map[types.ProcID]harness.Behavior{4: silentRB}
	ew := newEAWorld(t, p, 11, eaOpts{}, byz)
	vals := map[types.ProcID]types.Value{1: "a", 2: "a", 3: "b"}

	agreedRound := types.Round(0)
	var driveRound func(r types.Round)
	driveRound = func(r types.Round) {
		if r > bound || agreedRound != 0 {
			return
		}
		remaining := len(ew.procs)
		for id, pr := range ew.procs {
			id, pr := id, pr
			if err := pr.obj.Propose(r, vals[id], func(ret types.Value) {
				pr.returns[r] = ret
				remaining--
				if remaining == 0 {
					// Check agreement for this round, then advance.
					common := true
					var ref types.Value
					first := true
					for _, q := range ew.procs {
						if first {
							ref = q.returns[r]
							first = false
						} else if q.returns[r] != ref {
							common = false
						}
					}
					if common && agreedRound == 0 {
						agreedRound = r
						return
					}
					driveRound(r + 1)
				}
			}); err != nil {
				t.Errorf("%v: %v", id, err)
			}
		}
	}
	ew.w.Env(1).SetTimer(0, func() { driveRound(1) })
	ew.w.Run(0, 0)
	if agreedRound == 0 {
		t.Fatalf("no common-return round within the α·n = %d bound", bound)
	}
	t.Logf("agreement at round %d (bound %d)", agreedRound, bound)
}

func TestRelayQuorumBaselineWorksUnderFullSynchrony(t *testing.T) {
	// The ⟨n−t⟩bisource baseline must behave under full synchrony (every
	// process is an ⟨n⟩bisource): termination and proposed-value outputs.
	p := types.Params{N: 4, T: 1, M: 2}
	ew := newEAWorld(t, p, 13, eaOpts{relay: ea.RelayQuorum}, nil)
	ew.proposeAll(t, 1, map[types.ProcID]types.Value{1: "a", 2: "a", 3: "b", 4: "b"})
	ew.w.Run(0, 0)
	for id := types.ProcID(1); id <= 4; id++ {
		got, ok := ew.procs[id].returns[1]
		if !ok {
			t.Fatalf("%v did not return", id)
		}
		if got != "a" && got != "b" {
			t.Fatalf("%v returned %q", id, got)
		}
	}
}

func TestParameterizedKLargerFSet(t *testing.T) {
	// §5.4 with k = t: F(r) = all n processes, α = 1. A correct
	// coordinator round under synchrony must unify in round 1..n.
	p := types.Params{N: 4, T: 1, M: 2}
	ew := newEAWorld(t, p, 17, eaOpts{k: 1}, nil) // fsize = 3+1 = 4
	ew.proposeAll(t, 1, map[types.ProcID]types.Value{1: "a", 2: "a", 3: "b", 4: "b"})
	ew.w.Run(0, 0)
	for id := types.ProcID(1); id <= 4; id++ {
		if _, ok := ew.procs[id].returns[1]; !ok {
			t.Fatalf("%v did not return with k=t", id)
		}
	}
}

func TestMaxRoundGuard(t *testing.T) {
	p := types.Params{N: 4, T: 1, M: 2}
	ew := newEAWorld(t, p, 1, eaOpts{}, nil)
	ew.w.Run(0, 0) // instantiate processes
	pr := ew.procs[1]
	// A message naming an absurd round must be dropped without state.
	before := pr.obj.Rounds()
	pr.obj.OnPlain(2, proto.Message{
		Kind: proto.MsgEAProp2, Tag: proto.Tag{Mod: proto.ModEA, Round: 999999}, Val: "x",
	})
	if pr.obj.Rounds() != before {
		t.Fatal("out-of-range round created state")
	}
	if err := pr.obj.Propose(999999, "v", func(types.Value) {}); err == nil {
		t.Fatal("out-of-range Propose must fail")
	}
	if err := pr.obj.Propose(0, "v", func(types.Value) {}); err == nil {
		t.Fatal("round 0 Propose must fail")
	}
}

func TestProposeTwiceFails(t *testing.T) {
	p := types.Params{N: 4, T: 1, M: 2}
	ew := newEAWorld(t, p, 1, eaOpts{}, nil)
	ew.proposeAll(t, 1, map[types.ProcID]types.Value{1: "a", 2: "a", 3: "a", 4: "a"})
	ew.w.Run(0, 0)
	if err := ew.procs[1].obj.Propose(1, "again", func(types.Value) {}); err == nil {
		t.Fatal("second propose for the same round must fail")
	}
}

func TestReturnOfAccessor(t *testing.T) {
	p := types.Params{N: 4, T: 1, M: 2}
	ew := newEAWorld(t, p, 1, eaOpts{}, nil)
	ew.proposeAll(t, 1, map[types.ProcID]types.Value{1: "a", 2: "a", 3: "a", 4: "a"})
	ew.w.Run(0, 0)
	v, ok := ew.procs[2].obj.ReturnOf(1)
	if !ok || v != "a" {
		t.Fatalf("ReturnOf(1) = %q, %v", v, ok)
	}
	if _, ok := ew.procs[2].obj.ReturnOf(99); ok {
		t.Fatal("ReturnOf(99) must be false")
	}
}

func TestConfigValidation(t *testing.T) {
	plan, _ := combin.NewRoundPlan(4, 3)
	if _, err := ea.New(ea.Config{}); err == nil {
		t.Error("empty config must fail")
	}
	if _, err := ea.New(ea.Config{Env: fakeEnv{}, Plan: plan, BroadcastCB: func(types.Round, types.Value) {}}); err == nil {
		t.Error("missing TimeUnit must fail")
	}
}

// timerEnv is fakeEnv recording the duration of every timer armed.
type timerEnv struct {
	fakeEnv
	armed []types.Duration
}

func (e *timerEnv) SetTimer(d types.Duration, _ func()) func() {
	e.armed = append(e.armed, d)
	return func() {}
}

// Fig. 3 line 5 arms round r's timer at r·TimeUnit, an increasing
// function as footnote 3 requires. Each round below reaches line 5 by
// the slow path: p1's CB[r] validates "a" and "b", and the n−t = 3
// qualified PROP2s it waits for at line 3 are not unanimous.
func TestRoundTimerIsRoundTimesUnit(t *testing.T) {
	plan, _ := combin.NewRoundPlan(4, 3)
	env := &timerEnv{}
	obj, err := ea.New(ea.Config{
		Env: env, Plan: plan, TimeUnit: unit,
		BroadcastCB: func(types.Round, types.Value) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := types.Round(1); r <= 3; r++ {
		if err := obj.Propose(r, "a", func(types.Value) {}); err != nil {
			t.Fatal(err)
		}
		vals := []types.Value{"a", "a", "b", "b"} // p1..p4's CB values
		for i, v := range vals {
			obj.OnCBDeliver(r, types.ProcID(i+1), v)
		}
		for i, v := range vals[:3] {
			obj.OnPlain(types.ProcID(i+1), proto.Message{Kind: proto.MsgEAProp2, Tag: proto.Tag{Mod: proto.ModEA, Round: r}, Val: v})
		}
		if len(env.armed) != int(r) {
			t.Fatalf("round %d: %d timers armed in rounds 1..%d, want one per round", r, len(env.armed), r)
		}
		if got, want := env.armed[r-1], types.Duration(r)*unit; got != want {
			t.Fatalf("round %d armed its timer at %v, want r·TimeUnit = %v", r, got, want)
		}
	}
}

// fakeEnv satisfies proto.Env for config validation tests only.
type fakeEnv struct{}

var _ proto.Env = fakeEnv{}

func (fakeEnv) ID() types.ProcID                       { return 1 }
func (fakeEnv) Params() types.Params                   { return types.Params{N: 4, T: 1, M: 2} }
func (fakeEnv) Now() types.Time                        { return 0 }
func (fakeEnv) Send(types.ProcID, proto.Message)       {}
func (fakeEnv) Broadcast(proto.Message)                {}
func (fakeEnv) SetTimer(types.Duration, func()) func() { return func() {} }
func (fakeEnv) Trace() *trace.Log                      { return nil }

func TestScales(t *testing.T) {
	for _, n := range []int{4, 7} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			tf := (n - 1) / 3
			p := types.Params{N: n, T: tf, M: 2}
			ew := newEAWorld(t, p, int64(n), eaOpts{}, nil)
			vals := make(map[types.ProcID]types.Value)
			for i := 1; i <= n; i++ {
				vals[types.ProcID(i)] = "v"
			}
			ew.proposeAll(t, 1, vals)
			ew.w.Run(0, 0)
			for i := 1; i <= n; i++ {
				if got := ew.procs[types.ProcID(i)].returns[1]; got != "v" {
					t.Fatalf("p%d returned %q", i, got)
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
