package core_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/ea"
	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/proto"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/types"
)

const (
	unit  = types.Duration(10 * time.Millisecond)
	delta = types.Duration(2 * time.Millisecond)
)

// baseSpec builds a default spec: full synchrony, trace recording on.
func baseSpec(p types.Params, seed int64) runner.Spec {
	return runner.Spec{
		Params:   p,
		Topology: network.FullySynchronous(p.N, delta),
		Seed:     seed,
		Record:   true,
		Engine:   core.Config{TimeUnit: unit},
	}
}

// assertSafety checks CONS-Agreement and CONS-Validity on a result.
func assertSafety(t *testing.T, res *runner.Result, proposed map[types.Value]bool, botOK bool) {
	t.Helper()
	var ref types.Value
	first := true
	for id, v := range res.Decisions {
		if first {
			ref = v
			first = false
		} else if v != ref {
			t.Fatalf("agreement violated: %v decided %q, others %q", id, v, ref)
		}
		if !proposed[v] && !(botOK && v == types.BotValue) {
			t.Fatalf("validity violated: %v decided unproposed %q", id, v)
		}
	}
}

func correctProposals(p types.Params, nByz int, vals ...types.Value) map[types.ProcID]types.Value {
	props := make(map[types.ProcID]types.Value)
	for i := 1; i <= p.N-nByz; i++ {
		props[types.ProcID(i)] = vals[(i-1)%len(vals)]
	}
	return props
}

func TestUnanimousNoFaults(t *testing.T) {
	for _, n := range []int{4, 7, 10} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			p := types.Params{N: n, T: (n - 1) / 3, M: 2}
			spec := baseSpec(p, 1)
			spec.Proposals = correctProposals(p, 0, "v")
			res, err := runner.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			v, ok := res.CommonDecision()
			if !ok {
				t.Fatalf("no common decision: %+v", res.Decisions)
			}
			if v != "v" {
				t.Fatalf("decided %q, want v", v)
			}
			if got := res.MaxDecideRound(); got != 1 {
				t.Errorf("unanimous run decided at round %d, want 1", got)
			}
		})
	}
}

// TestDecisionCriticalPath counts a fault-free decision in message
// delays: with every channel at exactly δ the last process decides at
// 14δ — CB[0], EA round 1's CB, EA_PROP2, AC's CB and AC_EST (3+3+1+3+3)
// plus the one plain DECIDE hop.
func TestDecisionCriticalPath(t *testing.T) {
	for _, n := range []int{4, 7, 10} {
		p := types.Params{N: n, T: (n - 1) / 3, M: 2}
		spec := baseSpec(p, 1)
		spec.Policy = network.FixedDelay{D: delta}
		spec.Proposals = correctProposals(p, 0, "v")
		res, err := runner.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllDecided() {
			t.Fatalf("n=%d: not all decided: %v", n, res.Decisions)
		}
		if got, want := res.MaxDecideTime(), types.Time(14*delta); got != want {
			t.Errorf("n=%d: last decision at %v = %.2fδ, want 14δ", n, got, float64(got)/float64(delta))
		}
	}
}

func TestMixedInputsWithCrashes(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		p := types.Params{N: 7, T: 2, M: 2}
		spec := baseSpec(p, seed)
		spec.Proposals = correctProposals(p, 2, "a", "b")
		spec.Byzantine = map[types.ProcID]harness.Behavior{
			6: adversary.Silent(),
			7: adversary.Silent(),
		}
		res, err := runner.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllDecided() {
			t.Fatalf("seed %d: not all decided: %+v (stalled %v)", seed, res.Decisions, res.Stalled)
		}
		assertSafety(t, res, map[types.Value]bool{"a": true, "b": true}, false)
	}
}

func TestStaggeredProposals(t *testing.T) {
	// Processes propose at very different times; consensus must still
	// complete (late proposers catch up through RB).
	p := types.Params{N: 4, T: 1, M: 2}
	spec := baseSpec(p, 3)
	spec.Proposals = correctProposals(p, 1, "a", "b")
	spec.Byzantine = map[types.ProcID]harness.Behavior{4: adversary.Silent()}
	spec.ProposeAt = map[types.ProcID]types.Duration{
		1: 0,
		2: types.Duration(500 * time.Millisecond),
		3: types.Duration(2 * time.Second),
	}
	res, err := runner.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided() {
		t.Fatalf("not all decided: %+v", res.Decisions)
	}
	assertSafety(t, res, map[types.Value]bool{"a": true, "b": true}, false)
}

func TestByzantineBehaviorMatrix(t *testing.T) {
	// Every structured attacker, several seeds: safety must always hold
	// and (under full synchrony) so must termination.
	p := types.Params{N: 7, T: 2, M: 2}
	ecfg := core.Config{TimeUnit: unit}
	attackers := map[string]func(seed int64) harness.Behavior{
		"silent":      func(int64) harness.Behavior { return adversary.Silent() },
		"rb-relay":    func(int64) harness.Behavior { return adversary.RBRelayOnly() },
		"crash-mid":   func(int64) harness.Behavior { return adversary.CrashAt(ecfg, "a", types.Duration(50*time.Millisecond)) },
		"equivocator": func(int64) harness.Behavior { return adversary.Equivocator(ecfg, [2]types.Value{"a", "b"}) },
		"mute-coord":  func(int64) harness.Behavior { return adversary.MuteCoordinator(ecfg, "b") },
		"poison":      func(int64) harness.Behavior { return adversary.PoisonCoordinator(ecfg, "a", "zzz") },
		"random": func(seed int64) harness.Behavior {
			return adversary.RandomlyByzantine(ecfg, "a", []types.Value{"a", "b", "x"}, seed, 0.2, 0.3)
		},
		"spam":        func(int64) harness.Behavior { return adversary.SpamStreams("zzz", 40) },
		"fake-decide": func(int64) harness.Behavior { return adversary.FakeDecide("zzz") },
	}
	for name, mk := range attackers {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				spec := baseSpec(p, seed)
				spec.Proposals = correctProposals(p, 2, "a", "b")
				spec.Byzantine = map[types.ProcID]harness.Behavior{
					6: mk(seed),
					7: mk(seed + 1000),
				}
				res, err := runner.Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				assertSafety(t, res, map[types.Value]bool{"a": true, "b": true}, false)
				if !res.AllDecided() {
					t.Fatalf("seed %d: termination failed: decisions=%v stalled=%v stop=%v",
						seed, res.Decisions, res.Stalled, res.Stop)
				}
			}
		})
	}
}

func TestMinimalSynchronyBisourceOnly(t *testing.T) {
	// The paper's headline claim: consensus terminates when the ONLY
	// synchrony is one ◇⟨t+1⟩bisource — here p1 with timely in-channel
	// from p2 and timely out-channel to p3, every other channel
	// adversarially slowed to 10s, one Byzantine process, mixed inputs.
	p := types.Params{N: 4, T: 1, M: 2}
	topo := network.PlantBisource(4, network.BisourceSpec{
		P: 1, In: []types.ProcID{2}, Out: []types.ProcID{3}, GST: 0, Delta: delta,
	})
	spec := runner.Spec{
		Params:   p,
		Topology: topo,
		Policy:   network.UniformDelay{Min: types.Duration(time.Millisecond), Max: types.Duration(5 * time.Millisecond)},
		Adv:      adversary.IsolateExceptBisource(4, 1, []types.ProcID{2}, []types.ProcID{3}, types.Duration(10*time.Second), types.Duration(4*time.Second), 21),
		Seed:     21,
		Record:   true,
		Proposals: map[types.ProcID]types.Value{
			1: "a", 2: "b", 3: "a",
		},
		Byzantine: map[types.ProcID]harness.Behavior{4: adversary.Silent()},
		Engine:    core.Config{TimeUnit: unit, MaxRounds: 200},
	}
	res, err := runner.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided() {
		t.Fatalf("consensus must terminate with only a ⟨t+1⟩bisource: decisions=%v stalled=%v end=%v",
			res.Decisions, res.Stalled, res.End)
	}
	assertSafety(t, res, map[types.Value]bool{"a": true, "b": true}, false)
	t.Logf("decided %v at round %d, t=%v, %d msgs", res.Decisions[1], res.MaxDecideRound(), res.MaxDecideTime(), res.Messages)
}

// splitterSpec builds the E10 duel: minimal ⟨t+1⟩bisource topology (p1,
// in:{p2}, out:{p3}) under the strongest scheduling adversary, balanced
// correct inputs {a,b,a,b}.
func splitterSpec(seed int64, relay ea.RelayRule) runner.Spec {
	p := types.Params{N: 4, T: 1, M: 2}
	topo := network.PlantBisource(4, network.BisourceSpec{
		P: 1, In: []types.ProcID{2}, Out: []types.ProcID{3}, GST: 0, Delta: delta,
	})
	return runner.Spec{
		Params:   p,
		Topology: topo,
		Policy:   network.UniformDelay{Min: types.Duration(time.Millisecond), Max: types.Duration(5 * time.Millisecond)},
		Adv: adversary.ConsensusSplitter{
			Target:     map[types.ProcID]types.ProcID{1: 2, 2: 3, 3: 4, 4: 1},
			Delay:      types.Duration(30 * time.Second),
			CoordDelay: types.Duration(600 * time.Second),
		},
		Seed:      seed,
		Record:    true,
		Proposals: map[types.ProcID]types.Value{1: "a", 2: "b", 3: "a", 4: "b"},
		Engine:    core.Config{TimeUnit: unit, Relay: relay, MaxRounds: 32},
	}
}

func TestSplitterAdversaryOursDecides(t *testing.T) {
	// E10a: under the strongest scheduling adversary (which keeps the
	// estimates split and suppresses every non-bisource coordinator), the
	// paper's algorithm still decides — through the bisource's good round.
	for seed := int64(0); seed < 5; seed++ {
		res, err := runner.Run(splitterSpec(seed, ea.RelayAnyF))
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllDecided() {
			t.Fatalf("seed %d: ours did not decide: %v stalled=%v", seed, res.Decisions, res.Stalled)
		}
		assertSafety(t, res, map[types.Value]bool{"a": true, "b": true}, false)
		bound := types.Round(res.Engines[1].Plan().WorstCaseRounds())
		if got := res.MaxDecideRound(); got > bound {
			t.Fatalf("seed %d: decided at round %d beyond the α·n bound %d", seed, got, bound)
		}
	}
}

func TestStrongRelayBaselineStallsOnMinimalSynchrony(t *testing.T) {
	// E10b: the RelayQuorum baseline needs the coordinator to reach n−t
	// processes timely (a ◇⟨n−t⟩bisource, the assumption of the paper's
	// reference [1]); under the minimal topology and the splitter
	// adversary it never converges and every process hits the round cap.
	for seed := int64(0); seed < 5; seed++ {
		res, err := runner.Run(splitterSpec(seed, ea.RelayQuorum))
		if err != nil {
			t.Fatal(err)
		}
		if res.AllDecided() {
			t.Fatalf("seed %d: baseline unexpectedly decided %+v under minimal synchrony", seed, res.Decisions)
		}
		if len(res.Stalled) != 4 {
			t.Fatalf("seed %d: baseline should stall all 4 processes, stalled=%v stop=%v", seed, res.Stalled, res.Stop)
		}
		// Safety must nevertheless hold.
		assertSafety(t, res, map[types.Value]bool{"a": true, "b": true}, false)
	}
}

func TestGSTBisource(t *testing.T) {
	// The bisource only becomes timely at GST = 300ms (a true ◇-bisource);
	// consensus must still terminate afterwards.
	p := types.Params{N: 4, T: 1, M: 2}
	gst := types.Time(300 * time.Millisecond)
	topo := network.PlantBisource(4, network.BisourceSpec{
		P: 2, In: []types.ProcID{1}, Out: []types.ProcID{3}, GST: gst, Delta: delta,
	})
	spec := runner.Spec{
		Params:   p,
		Topology: topo,
		Policy:   network.UniformDelay{Min: types.Duration(5 * time.Millisecond), Max: types.Duration(60 * time.Millisecond)},
		Seed:     5,
		Record:   true,
		Proposals: map[types.ProcID]types.Value{
			1: "a", 2: "b", 3: "a",
		},
		Byzantine: map[types.ProcID]harness.Behavior{4: adversary.RBRelayOnly()},
		Engine:    core.Config{TimeUnit: unit, MaxRounds: 500},
	}
	res, err := runner.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided() {
		t.Fatalf("no termination under ◇bisource: %+v stalled=%v", res.Decisions, res.Stalled)
	}
	assertSafety(t, res, map[types.Value]bool{"a": true, "b": true}, false)
}

func TestBotVariantSplitDecidesBotOrCommon(t *testing.T) {
	// §7 variant: four distinct proposals (m beyond the m-valued bound).
	// The decision must be ⊥ or one of the proposed values, agreed by all.
	for seed := int64(0); seed < 10; seed++ {
		p := types.Params{N: 4, T: 1, M: 4}
		spec := baseSpec(p, seed)
		spec.Engine.BotMode = true
		spec.Proposals = map[types.ProcID]types.Value{1: "a", 2: "b", 3: "c", 4: "d"}
		res, err := runner.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllDecided() {
			t.Fatalf("seed %d: ⊥-variant did not terminate: %+v", seed, res.Decisions)
		}
		assertSafety(t, res, map[types.Value]bool{"a": true, "b": true, "c": true, "d": true}, true)
	}
}

func TestBotVariantUnanimousDecidesValue(t *testing.T) {
	// Unanimous correct proposals in BotMode must decide the value, not ⊥.
	p := types.Params{N: 4, T: 1, M: 4}
	spec := baseSpec(p, 2)
	spec.Engine.BotMode = true
	spec.Proposals = correctProposals(p, 1, "v")
	spec.Byzantine = map[types.ProcID]harness.Behavior{4: adversary.Silent()}
	res, err := runner.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.CommonDecision()
	if !ok || v != "v" {
		t.Fatalf("decision = %q, %v; want v", v, ok)
	}
}

func TestParameterizedK(t *testing.T) {
	// k = t strengthens the F sets to all n processes; under full
	// synchrony (⟨n⟩bisources everywhere) consensus must work and the
	// worst-case bound collapses to n rounds.
	p := types.Params{N: 7, T: 2, M: 2}
	for k := 0; k <= p.T; k++ {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			spec := baseSpec(p, int64(k))
			spec.Engine.K = k
			spec.Proposals = correctProposals(p, 0, "a", "b")
			res, err := runner.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllDecided() {
				t.Fatalf("k=%d: not decided", k)
			}
			assertSafety(t, res, map[types.Value]bool{"a": true, "b": true}, false)
			bound := types.Round(res.Engines[1].Plan().WorstCaseRounds())
			if got := res.MaxDecideRound(); got > bound {
				t.Fatalf("k=%d: decided at round %d beyond bound %d", k, got, bound)
			}
		})
	}
}

func TestDecisionTraceConsistency(t *testing.T) {
	// The trace must contain exactly one ConsDecide per correct process,
	// all carrying the same value.
	p := types.Params{N: 4, T: 1, M: 2}
	spec := baseSpec(p, 9)
	spec.Proposals = correctProposals(p, 0, "a", "b")
	res, err := runner.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	decides := res.Log.Filter(trace.ByKind(trace.KindConsDecide))
	if len(decides) != 4 {
		t.Fatalf("ConsDecide events = %d, want 4", len(decides))
	}
	for _, e := range decides {
		if e.Value != decides[0].Value {
			t.Fatalf("trace decides differ: %v", decides)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := core.New(core.Config{}); err == nil {
		t.Error("nil Env must fail")
	}
	env := stubEnv{p: types.Params{N: 4, T: 1, M: 2}}
	if _, err := core.New(core.Config{Env: env, TimeUnit: unit, K: 5}); err == nil {
		t.Error("k > t must fail")
	}
	if _, err := core.New(core.Config{Env: env, TimeUnit: unit, K: -1}); err == nil {
		t.Error("negative k must fail")
	}
	if _, err := core.New(core.Config{Env: stubEnv{p: types.Params{N: 4, T: 2, M: 1}}, TimeUnit: unit}); err == nil {
		t.Error("t ≥ n/3 must fail")
	}
	eng, err := core.New(core.Config{Env: env, TimeUnit: unit})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Propose(types.BotValue); err != nil {
		// m-valued mode: BotValue is allowed as an ordinary (weird) value.
		t.Errorf("m-valued Propose(⊥) should not error: %v", err)
	}
	engBot, err := core.New(core.Config{Env: env, TimeUnit: unit, BotMode: true, MaxRounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := engBot.Propose(types.BotValue); err == nil {
		t.Error("BotMode Propose(⊥) must fail")
	}
	if err := engBot.Propose("v"); err != nil {
		t.Fatal(err)
	}
	if err := engBot.Propose("v"); err == nil {
		t.Error("second Propose must fail")
	}
}

type stubEnv struct{ p types.Params }

var _ proto.Env = stubEnv{}

func (s stubEnv) ID() types.ProcID                     { return 1 }
func (s stubEnv) Params() types.Params                 { return s.p }
func (stubEnv) Now() types.Time                        { return 0 }
func (stubEnv) Send(types.ProcID, proto.Message)       {}
func (stubEnv) Broadcast(proto.Message)                {}
func (stubEnv) SetTimer(types.Duration, func()) func() { return func() {} }
func (stubEnv) Trace() *trace.Log                      { return nil }

func TestDeterministicReplay(t *testing.T) {
	// Identical spec + seed ⇒ identical decisions, rounds, message counts
	// and virtual end time.
	run := func() *runner.Result {
		p := types.Params{N: 7, T: 2, M: 2}
		spec := baseSpec(p, 77)
		spec.Proposals = correctProposals(p, 2, "a", "b")
		spec.Byzantine = map[types.ProcID]harness.Behavior{
			6: adversary.Equivocator(core.Config{TimeUnit: unit}, [2]types.Value{"a", "b"}),
			7: adversary.MuteCoordinator(core.Config{TimeUnit: unit}, "b"),
		}
		res, err := runner.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Messages != b.Messages || a.End != b.End || a.Events != b.Events {
		t.Fatalf("replay diverged: msgs %d/%d end %v/%v events %d/%d",
			a.Messages, b.Messages, a.End, b.End, a.Events, b.Events)
	}
	for id, v := range a.Decisions {
		if b.Decisions[id] != v {
			t.Fatalf("replay decision diverged at %v", id)
		}
		if a.DecideRound[id] != b.DecideRound[id] {
			t.Fatalf("replay round diverged at %v", id)
		}
	}
}

func TestRunnerValidation(t *testing.T) {
	p := types.Params{N: 4, T: 1, M: 2}
	// Missing process assignment.
	spec := baseSpec(p, 1)
	spec.Proposals = map[types.ProcID]types.Value{1: "a", 2: "a", 3: "a"}
	if _, err := runner.Run(spec); err == nil {
		t.Error("unassigned process must fail")
	}
	// Too many Byzantine.
	spec2 := baseSpec(p, 1)
	spec2.Proposals = map[types.ProcID]types.Value{1: "a", 2: "a"}
	spec2.Byzantine = map[types.ProcID]harness.Behavior{
		3: adversary.Silent(), 4: adversary.Silent(),
	}
	if _, err := runner.Run(spec2); err == nil {
		t.Error("more than t Byzantine must fail")
	}
	// Both correct and Byzantine.
	spec3 := baseSpec(p, 1)
	spec3.Proposals = map[types.ProcID]types.Value{1: "a", 2: "a", 3: "a", 4: "a"}
	spec3.Byzantine = map[types.ProcID]harness.Behavior{4: adversary.Silent()}
	if _, err := runner.Run(spec3); err == nil {
		t.Error("doubly-assigned process must fail")
	}
}
