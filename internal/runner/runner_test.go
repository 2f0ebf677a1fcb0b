package runner_test

import (
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/types"
)

const unit = types.Duration(10 * time.Millisecond)

func okSpec(seed int64) runner.Spec {
	return runner.Spec{
		Params:   types.Params{N: 4, T: 1, M: 2},
		Topology: network.FullySynchronous(4, types.Duration(2*time.Millisecond)),
		Seed:     seed,
		Proposals: map[types.ProcID]types.Value{
			1: "a", 2: "b", 3: "a", 4: "b",
		},
		Engine: core.Config{TimeUnit: unit},
	}
}

func TestResultAccessors(t *testing.T) {
	res, err := runner.Run(okSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided() {
		t.Fatal("expected decision")
	}
	v, ok := res.CommonDecision()
	if !ok || (v != "a" && v != "b") {
		t.Fatalf("common decision = %q, %v", v, ok)
	}
	if res.MaxDecideRound() < 1 {
		t.Fatal("MaxDecideRound < 1")
	}
	if res.MaxDecideTime() <= 0 {
		t.Fatal("MaxDecideTime <= 0")
	}
	if res.Stop != sim.Drained {
		t.Fatalf("Stop = %v", res.Stop)
	}
	if res.Messages == 0 || res.Events == 0 {
		t.Fatal("counters empty")
	}
	if len(res.Correct) != 4 {
		t.Fatalf("Correct = %v", res.Correct)
	}
	if res.Log != nil {
		t.Fatal("Log must be nil without Record")
	}
}

func TestEmptyResultAccessors(t *testing.T) {
	var res runner.Result
	if res.AllDecided() {
		t.Fatal("empty result cannot be AllDecided")
	}
	if _, ok := res.CommonDecision(); ok {
		t.Fatal("empty result has no common decision")
	}
	if res.MaxDecideRound() != 0 || res.MaxDecideTime() != 0 {
		t.Fatal("empty maxima must be zero")
	}
}

func TestDisagreementDetection(t *testing.T) {
	// Force a partial-decision result shape to cover CommonDecision's
	// divergence branch with a synthetic result.
	res := runner.Result{
		Correct:   []types.ProcID{1, 2},
		Decisions: map[types.ProcID]types.Value{1: "a", 2: "b"},
	}
	if _, ok := res.CommonDecision(); ok {
		t.Fatal("divergent decisions reported as common")
	}
}

func TestDeadlineStopsRun(t *testing.T) {
	spec := okSpec(2)
	spec.Deadline = types.Time(time.Millisecond) // far too short to decide
	res, err := runner.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != sim.DeadlineReached {
		t.Fatalf("Stop = %v", res.Stop)
	}
	if res.End != types.Time(time.Millisecond) {
		t.Fatalf("End = %v", res.End)
	}
}

func TestMaxEventsStopsRun(t *testing.T) {
	spec := okSpec(3)
	spec.MaxEvents = 10
	res, err := runner.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != sim.EventLimit {
		t.Fatalf("Stop = %v", res.Stop)
	}
	if res.Events != 10 {
		t.Fatalf("Events = %d", res.Events)
	}
}

func TestStalledReporting(t *testing.T) {
	// Fully asynchronous + tiny MaxRounds with adversarial delays: some
	// process may hit the cap. Use the splitter-style config guaranteed
	// to stall (pure async cannot guarantee progress with MaxRounds=1).
	spec := okSpec(4)
	spec.Topology = network.FullyAsynchronous(4)
	spec.Engine.MaxRounds = 1
	spec.Adv = adversary.NewTargetedDelay(map[[2]types.ProcID]bool{
		{1, 2}: true, {1, 3}: true, {1, 4}: true,
	}, types.Duration(time.Hour), 0, 1)
	res, err := runner.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Whether or not it decides in one round, the run must drain and the
	// Stalled list must be consistent with the engines.
	for _, id := range res.Stalled {
		if !res.Engines[id].Stalled() {
			t.Fatalf("%v reported stalled but engine disagrees", id)
		}
	}
}

func TestProposeAtStaggered(t *testing.T) {
	// A late proposer may still decide early: the decision rule is a
	// standing one, so 2t+1 DECIDEs from faster peers decide for it. The
	// run must terminate with full agreement either way.
	spec := okSpec(5)
	spec.ProposeAt = map[types.ProcID]types.Duration{2: types.Duration(100 * time.Millisecond)}
	res, err := runner.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided() {
		t.Fatal("staggered run must decide")
	}
	if _, ok := res.CommonDecision(); !ok {
		t.Fatalf("staggered run disagreed: %v", res.Decisions)
	}
}

func TestByzantineBudgetEnforced(t *testing.T) {
	spec := okSpec(6)
	delete(spec.Proposals, 3)
	delete(spec.Proposals, 4)
	spec.Byzantine = map[types.ProcID]harness.Behavior{
		3: adversary.Silent(),
		4: adversary.Silent(),
	}
	if _, err := runner.Run(spec); err == nil {
		t.Fatal("2 Byzantine with t=1 must be rejected")
	}
}

func TestInvalidParams(t *testing.T) {
	spec := okSpec(7)
	spec.Params = types.Params{N: 3, T: 1, M: 1}
	if _, err := runner.Run(spec); err == nil {
		t.Fatal("t ≥ n/3 must be rejected")
	}
}
