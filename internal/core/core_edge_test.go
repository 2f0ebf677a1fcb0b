package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/proto"
	"repro/internal/rb"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/types"
)

// lateProposerSpec: p4 proposes at 10 s, long after p1–p3 decided.
func lateProposerSpec() runner.Spec {
	spec := baseSpec(types.Params{N: 4, T: 1, M: 2}, 31)
	spec.Proposals = map[types.ProcID]types.Value{1: "a", 2: "a", 3: "a", 4: "b"}
	spec.ProposeAt = map[types.ProcID]types.Duration{4: types.Duration(10 * time.Second)}
	return spec
}

// slowProcessSpec: every channel into and out of p3 is slowed by 2–3 s,
// so p3 trails the others.
func slowProcessSpec() runner.Spec {
	slow := map[[2]types.ProcID]bool{}
	for i := types.ProcID(1); i <= 4; i++ {
		if i != 3 {
			slow[[2]types.ProcID{i, 3}] = true
			slow[[2]types.ProcID{3, i}] = true
		}
	}
	spec := baseSpec(types.Params{N: 4, T: 1, M: 2}, 33)
	spec.Topology = network.FullyAsynchronous(4)
	spec.Adv = adversary.NewTargetedDelay(slow, types.Duration(2*time.Second), types.Duration(time.Second), 33)
	spec.Proposals = map[types.ProcID]types.Value{1: "a", 2: "a", 3: "b", 4: "a"}
	return spec
}

// TestLateProcessDecidesThroughDecideQuorum: a process whose proposal is
// delayed until long after everyone else decided must still decide — the
// DECIDEs of the others reach it whatever its own progress, and 2t+1 of
// them decide it.
func TestLateProcessDecidesThroughDecideQuorum(t *testing.T) {
	res, err := runner.Run(lateProposerSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided() {
		t.Fatalf("late process did not decide: %v", res.Decisions)
	}
	if v := res.Decisions[4]; v != "a" {
		t.Fatalf("late process decided %q, want a", v)
	}
	// It should have decided well before its own (10s) proposal even ran.
	if dt := res.DecideTime[4]; dt > types.Time(5*time.Second) {
		t.Fatalf("late process decided only at %v", dt)
	}
}

// TestDecidedEngineKeepsServingRB: after deciding, engines must keep
// relaying RB traffic so a slow correct process can finish open instances.
// p3 trails the others and must still converge after they decided.
func TestDecidedEngineKeepsServingRB(t *testing.T) {
	res, err := runner.Run(slowProcessSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided() {
		t.Fatalf("slow process starved after others decided: %v (stalled %v)", res.Decisions, res.Stalled)
	}
	if res.DecideTime[3] <= res.DecideTime[1] {
		t.Skip("p3 was not actually the slow one under this seed")
	}
	assertSafety(t, res, map[types.Value]bool{"a": true, "b": true}, false)
}

// TestForgedDecideValuesCannotMix: t Byzantine processes send
// DECIDE(forged). Forwarding needs t+1 senders, so no correct process
// sends DECIDE(forged) — let alone decides it.
func TestForgedDecideValuesCannotMix(t *testing.T) {
	p := types.Params{N: 7, T: 2, M: 2}
	spec := baseSpec(p, 35)
	spec.Proposals = correctProposals(p, 2, "a", "b")
	spec.Byzantine = map[types.ProcID]harness.Behavior{
		6: adversary.FakeDecide("forged"),
		7: adversary.FakeDecide("forged"), // exactly t senders: still < t+1
	}
	res, err := runner.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Log.Filter(trace.ByKind(trace.KindConsDecideSend)) {
		if e.Value == "forged" {
			t.Fatalf("%v sent DECIDE(forged) on only t forged DECIDEs: %v", e.Proc, e)
		}
	}
	for id, v := range res.Decisions {
		if v == "forged" {
			t.Fatalf("%v decided the forged value with only t DECIDE senders", id)
		}
	}
	if !res.AllDecided() {
		t.Fatal("run must still decide")
	}
}

// decideEquivocator relays reliable broadcasts and, at time 0, sends
// DECIDE(a) to the lower half of the processes and DECIDE(b) to the rest.
func decideEquivocator(a, b types.Value) harness.Behavior {
	return func(env proto.Env) proto.Handler {
		layer := rb.New(env, func(types.ProcID, proto.Tag, types.Value) {})
		env.SetTimer(0, func() {
			for _, to := range env.Params().AllProcs() {
				v := a
				if int(to) > env.Params().N/2 {
					v = b
				}
				env.Send(to, proto.Message{Kind: proto.MsgDecide, Tag: proto.Tag{Mod: proto.ModDecide}, Val: v})
			}
		})
		return proto.HandlerFunc(func(from types.ProcID, m proto.Message) { layer.OnMessage(from, m) })
	}
}

// TestDecideEquivocatorsSplitNoOne: t processes equivocate DECIDE — a to
// half the processes, b to the rest — while the correct ones propose a
// mix of a and b. Every correct process decides the same value, and none
// sends a DECIDE for any other.
func TestDecideEquivocatorsSplitNoOne(t *testing.T) {
	p := types.Params{N: 7, T: 2, M: 2}
	for seed := int64(0); seed < 10; seed++ {
		spec := baseSpec(p, seed)
		spec.Topology = network.EventuallySynchronous(p.N, types.Time(50*time.Millisecond), delta)
		spec.Proposals = correctProposals(p, 2, "a", "b")
		spec.Byzantine = map[types.ProcID]harness.Behavior{
			6: decideEquivocator("a", "b"),
			7: decideEquivocator("b", "a"),
		}
		res, err := runner.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := res.CommonDecision()
		if !ok {
			t.Fatalf("seed %d: split or undecided: %v (stalled %v)", seed, res.Decisions, res.Stalled)
		}
		for _, e := range res.Log.Filter(trace.ByKind(trace.KindConsDecideSend)) {
			if e.Proc < 6 && e.Value != v {
				t.Fatalf("seed %d: %v sent DECIDE(%s) but all decided %s", seed, e.Proc, e.Value, v)
			}
		}
	}
}

// silenceAfter destroys every message proc sends from instant at on — a
// process that goes silent right after deciding.
type silenceAfter struct {
	proc types.ProcID
	at   types.Time
}

func (silenceAfter) MessageDelay(types.ProcID, types.ProcID, types.Time, any) (types.Duration, bool) {
	return 0, false
}

func (s silenceAfter) DropMessage(from, _ types.ProcID, at types.Time, _ any) bool {
	return from == s.proc && at >= s.at
}

// TestLateDecidersWhenFirstDeciderFallsSilent replays both late-decider
// runs above with the first decider muted from the instant it decides:
// the DECIDE it sent before still counts, and the others' DECIDEs carry
// the late process to 2t+1.
func TestLateDecidersWhenFirstDeciderFallsSilent(t *testing.T) {
	for name, mk := range map[string]func() runner.Spec{"late proposer": lateProposerSpec, "slow process": slowProcessSpec} {
		first, err := runner.Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		var who types.ProcID
		for _, id := range first.Correct {
			if who == types.NoProc || first.DecideTime[id] < first.DecideTime[who] {
				who = id
			}
		}
		spec := mk() // a fresh adversary: TargetedDelay draws from its own source
		spec.Adv = adversary.Chain{spec.Adv, silenceAfter{proc: who, at: first.DecideTime[who]}}
		res, err := runner.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllDecided() {
			t.Fatalf("%s: with %v silent from its decision at %v on, not all decided: %v",
				name, who, first.DecideTime[who], res.Decisions)
		}
		assertSafety(t, res, map[types.Value]bool{"a": true, "b": true}, false)
	}
}

// arrivals is a scheduling adversary that draws every delay itself (1–20
// ms on a fully asynchronous topology), so it knows when each message
// lands, and records per receiver and round the earliest arrival of a
// peer's EA or AC message naming that round.
type arrivals struct {
	rng   *rand.Rand
	first map[types.ProcID]map[types.Round]types.Time
}

func (a *arrivals) MessageDelay(from, to types.ProcID, at types.Time, payload any) (types.Duration, bool) {
	d := types.Duration(1+a.rng.Intn(20)) * types.Duration(time.Millisecond)
	if m, ok := proto.AsMessage(payload); ok && from != to {
		switch m.Tag.Mod {
		case proto.ModEACB, proto.ModEA, proto.ModACCB, proto.ModACEst:
			if a.first[to] == nil {
				a.first[to] = make(map[types.Round]types.Time)
			}
			if prev, seen := a.first[to][m.Tag.Round]; !seen || at.Add(d) < prev {
				a.first[to][m.Tag.Round] = at.Add(d)
			}
		}
	}
	return d, true
}

// reached reports when the first message naming a round ≥ r reached p.
func (a *arrivals) reached(p types.ProcID, r types.Round) (types.Time, bool) {
	var first types.Time
	found := false
	for round, at := range a.first[p] {
		if round >= r && (!found || at < first) {
			first, found = at, true
		}
	}
	return first, found
}

// TestLazyRoundEntry searches asynchronous runs, with a mute Byzantine
// coordinator in round 1, for rounds where one correct process commits
// while another adopts (rare: no registered scenario has one). Every
// process decides, and a committer that starts round r+1 does so only
// once a message naming round r+1 or later reached it — in at least one
// run strictly after its own commit, so the wait was real.
func TestLazyRoundEntry(t *testing.T) {
	p := types.Params{N: 4, T: 1, M: 2}
	split, waited := 0, 0
	for seed := int64(1); seed <= 300 && (split == 0 || waited == 0); seed++ {
		arr := &arrivals{rng: rand.New(rand.NewSource(seed)), first: make(map[types.ProcID]map[types.Round]types.Time)}
		spec := baseSpec(p, seed)
		spec.Topology = network.FullyAsynchronous(p.N)
		spec.Adv = arr
		spec.Proposals = map[types.ProcID]types.Value{2: "a", 3: "a", 4: "b"}
		spec.Byzantine = map[types.ProcID]harness.Behavior{1: adversary.MuteCoordinator(core.Config{TimeUnit: unit}, "b")}
		spec.Engine.MaxRounds = 64
		res, err := runner.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		commitAt := map[types.Round]map[types.ProcID]types.Time{}
		adopted := map[types.Round]bool{}
		for _, e := range res.Log.Filter(trace.ByKind(trace.KindACReturn)) {
			if _, correct := spec.Proposals[e.Proc]; !correct {
				continue
			}
			if e.Aux == "commit" {
				if commitAt[e.Round] == nil {
					commitAt[e.Round] = map[types.ProcID]types.Time{}
				}
				commitAt[e.Round][e.Proc] = e.At
			} else {
				adopted[e.Round] = true
			}
		}
		starts := map[types.ProcID]map[types.Round]types.Time{}
		for _, e := range res.Log.Filter(trace.ByKind(trace.KindConsRoundStart)) {
			if starts[e.Proc] == nil {
				starts[e.Proc] = map[types.Round]types.Time{}
			}
			starts[e.Proc][e.Round] = e.At
		}
		for r, committers := range commitAt {
			if !adopted[r] {
				continue
			}
			split++
			if _, ok := res.CommonDecision(); !ok {
				t.Fatalf("seed %d: commit/adopt split in round %d, then no common decision: %v", seed, r, res.Decisions)
			}
			for c, at := range committers {
				start, ok := starts[c][r+1]
				if !ok {
					continue // decided before anything woke it
				}
				arrived, ok := arr.reached(c, r+1)
				if !ok || arrived > start {
					t.Fatalf("seed %d: %v committed in round %d at %v and started round %d at %v, before any message named it (first at %v, %v)",
						seed, c, r, at, r+1, start, arrived, ok)
				}
				if start > at {
					waited++
				}
			}
		}
	}
	if split == 0 || waited == 0 {
		t.Fatalf("found %d commit/adopt splits and %d committers that waited", split, waited)
	}
	t.Logf("%d commit/adopt splits, %d committers waited for a later round", split, waited)
}

// TestRandomizedSafetySweep is the schedule-fuzz test: random topologies,
// random fault assignments, random delay ranges — safety must hold in
// every single run, and termination in every run with a planted bisource
// or better.
func TestRandomizedSafetySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is a few seconds")
	}
	ecfg := core.Config{TimeUnit: unit}
	mkByz := []func(seed int64) harness.Behavior{
		func(int64) harness.Behavior { return adversary.Silent() },
		func(int64) harness.Behavior { return adversary.RBRelayOnly() },
		func(s int64) harness.Behavior {
			return adversary.RandomlyByzantine(ecfg, "a", []types.Value{"a", "b", "zz"}, s, 0.25, 0.25)
		},
		func(int64) harness.Behavior { return adversary.Equivocator(ecfg, [2]types.Value{"b", "a"}) },
		func(int64) harness.Behavior { return adversary.PoisonCoordinator(ecfg, "a", "zz") },
	}
	for sweep := 0; sweep < 40; sweep++ {
		sweep := sweep
		t.Run(fmt.Sprintf("sweep=%d", sweep), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(sweep)))
			ns := []int{4, 7, 10}
			n := ns[rng.Intn(len(ns))]
			tf := (n - 1) / 3
			p := types.Params{N: n, T: tf, M: 2}

			// Random topology: full sync, eventual sync, or planted bisource.
			var topo *network.Topology
			switch rng.Intn(3) {
			case 0:
				topo = network.FullySynchronous(n, delta)
			case 1:
				topo = network.EventuallySynchronous(n, types.Time(rng.Intn(300))*types.Time(time.Millisecond), delta)
			default:
				in := make([]types.ProcID, 0, tf)
				out := make([]types.ProcID, 0, tf)
				for i := 0; i < tf; i++ {
					in = append(in, types.ProcID(2+i))
					out = append(out, types.ProcID(2+tf+i))
				}
				topo = network.PlantBisource(n, network.BisourceSpec{
					P: 1, In: in, Out: out,
					GST: types.Time(rng.Intn(200)) * types.Time(time.Millisecond), Delta: delta,
				})
			}

			// Random fault count up to t, random behaviors, random positions
			// (among the last processes so the bisource stays correct).
			nByz := rng.Intn(tf + 1)
			byz := make(map[types.ProcID]harness.Behavior, nByz)
			for i := 0; i < nByz; i++ {
				byz[types.ProcID(n-i)] = mkByz[rng.Intn(len(mkByz))](int64(sweep*100 + i))
			}
			props := make(map[types.ProcID]types.Value)
			for i := 1; i <= n; i++ {
				id := types.ProcID(i)
				if _, isByz := byz[id]; isByz {
					continue
				}
				v := types.Value("a")
				if rng.Intn(2) == 0 {
					v = "b"
				}
				props[id] = v
			}
			// Keep "a" feasible: force t+1 correct "a" proposers.
			forced := 0
			for i := 1; i <= n && forced <= tf; i++ {
				if _, isByz := byz[types.ProcID(i)]; !isByz {
					props[types.ProcID(i)] = "a"
					forced++
				}
			}

			spec := runner.Spec{
				Params:   p,
				Topology: topo,
				Policy: network.UniformDelay{
					Min: types.Duration(rng.Intn(5)+1) * types.Duration(time.Millisecond),
					Max: types.Duration(rng.Intn(40)+10) * types.Duration(time.Millisecond),
				},
				Seed:      int64(sweep),
				Record:    true,
				Proposals: props,
				Byzantine: byz,
				Engine:    core.Config{TimeUnit: unit, MaxRounds: 500},
			}
			res, err := runner.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			g := check.Ground{Proposals: props, ExpectTermination: true}
			for _, id := range p.AllProcs() {
				if _, ok := props[id]; ok {
					g.Correct = append(g.Correct, id)
				}
			}
			rep := check.All(res.Log, g)
			if !rep.OK() {
				t.Fatalf("sweep %d: property violations:\n%s", sweep, rep)
			}
		})
	}
}

// TestDecideEventHasCommitRound: the reported decision round must be the
// committing round, not the loop position when the quorum landed.
func TestDecideEventHasCommitRound(t *testing.T) {
	p := types.Params{N: 4, T: 1, M: 2}
	spec := baseSpec(p, 37)
	spec.Proposals = correctProposals(p, 0, "v")
	res, err := runner.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for id := range res.Decisions {
		if got := res.DecideRound[id]; got != 1 {
			t.Fatalf("%v: DecideRound = %d, want 1 (unanimous first-round commit)", id, got)
		}
	}
	// Lazy round entry: a unanimous round 1 commits everywhere, so no
	// process ever names round 2 and none starts it.
	if decides := res.Log.Filter(trace.ByKind(trace.KindConsDecide)); len(decides) != 4 {
		t.Fatalf("decide events = %d", len(decides))
	}
	for _, e := range res.Log.Filter(trace.ByKind(trace.KindConsRoundStart)) {
		if e.Round > 1 {
			t.Fatalf("%v started round %d after a unanimous commit", e.Proc, e.Round)
		}
	}
}

// TestKEqualsTAlphaIsOne: with k = t the round plan has a single F set
// (all processes), so the bound is exactly n.
func TestKEqualsTAlphaIsOne(t *testing.T) {
	p := types.Params{N: 7, T: 2, M: 2}
	spec := baseSpec(p, 39)
	spec.Engine.K = 2
	spec.Proposals = correctProposals(p, 0, "a", "b")
	res, err := runner.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Engines[1].Plan()
	for r := types.Round(1); r <= 3*7; r += 5 {
		if f := plan.FSet(r); f.Len() != 7 {
			t.Fatalf("F(%d) = %v, want all 7 processes (alpha = 1)", r, f)
		}
	}
	if plan.WorstCaseRounds() != 7 {
		t.Fatalf("bound = %d, want n = 7", plan.WorstCaseRounds())
	}
	if !res.AllDecided() {
		t.Fatal("k=t run must decide")
	}
}
