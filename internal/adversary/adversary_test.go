package adversary_test

import (
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/proto"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/types"
)

var (
	_ network.Adversary = (*adversary.TargetedDelay)(nil)
	_ network.Adversary = adversary.ConsensusSplitter{}
)

const unit = types.Duration(10 * time.Millisecond)

func baseSpec(seed int64, byz map[types.ProcID]harness.Behavior) runner.Spec {
	return runner.Spec{
		Params:   types.Params{N: 4, T: 1, M: 2},
		Topology: network.FullySynchronous(4, types.Duration(2*time.Millisecond)),
		Seed:     seed,
		Record:   true,
		Proposals: map[types.ProcID]types.Value{
			1: "a", 2: "b", 3: "a",
		},
		Byzantine: byz,
		Engine:    core.Config{TimeUnit: unit},
	}
}

func TestSilentSendsNothing(t *testing.T) {
	res, err := runner.Run(baseSpec(1, map[types.ProcID]harness.Behavior{4: adversary.Silent()}))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Log.Filter(trace.ByKind(trace.KindSend), trace.ByProc(4)) {
		t.Fatalf("silent process sent %v", e)
	}
	if !res.AllDecided() {
		t.Fatal("run with silent byz must decide")
	}
}

func TestRBRelayOnlyRelaysButNoProtocol(t *testing.T) {
	res, err := runner.Run(baseSpec(2, map[types.ProcID]harness.Behavior{4: adversary.RBRelayOnly()}))
	if err != nil {
		t.Fatal(err)
	}
	sent := res.Log.Filter(trace.ByKind(trace.KindSend), trace.ByProc(4))
	if len(sent) == 0 {
		t.Fatal("RB relay behavior should send echo/ready traffic")
	}
	// It must never originate protocol content: no CB broadcasts, no EA
	// messages of its own (those are emitted via trace only by engines).
	if evs := res.Log.Filter(trace.ByKind(trace.KindCBBroadcast), trace.ByProc(4)); len(evs) != 0 {
		t.Fatalf("relay-only behavior broadcast CB values: %v", evs)
	}
}

func TestCrashAtStopsSending(t *testing.T) {
	crash := types.Duration(40 * time.Millisecond)
	res, err := runner.Run(baseSpec(3, map[types.ProcID]harness.Behavior{
		4: adversary.CrashAt(core.Config{TimeUnit: unit}, "b", crash),
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Log.Filter(trace.ByKind(trace.KindSend), trace.ByProc(4)) {
		if e.At >= types.Time(crash) {
			t.Fatalf("crashed process sent at %v (crash at %v)", e.At, crash)
		}
	}
	if !res.AllDecided() {
		t.Fatal("run must decide despite mid-run crash")
	}
}

func TestEquivocatorEmitsConflictingValues(t *testing.T) {
	res, err := runner.Run(baseSpec(4, map[types.ProcID]harness.Behavior{
		4: adversary.Equivocator(core.Config{TimeUnit: unit}, [2]types.Value{"a", "b"}),
	}))
	if err != nil {
		t.Fatal(err)
	}
	notes := res.Log.Filter(trace.ByKind(trace.KindByzAction), trace.ByProc(4))
	if len(notes) == 0 {
		t.Fatal("equivocator never equivocated")
	}
	if !res.AllDecided() {
		t.Fatal("run must decide despite equivocation")
	}
}

func TestMuteCoordinatorSuppressesCoord(t *testing.T) {
	// Make the Byzantine process p1 so it coordinates round 1.
	spec := runner.Spec{
		Params:   types.Params{N: 4, T: 1, M: 2},
		Topology: network.FullySynchronous(4, types.Duration(2*time.Millisecond)),
		Seed:     5,
		Record:   true,
		Proposals: map[types.ProcID]types.Value{
			2: "a", 3: "b", 4: "a",
		},
		Byzantine: map[types.ProcID]harness.Behavior{
			1: adversary.MuteCoordinator(core.Config{TimeUnit: unit}, "a"),
		},
		Engine: core.Config{TimeUnit: unit},
	}
	res, err := runner.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if evs := res.Log.Filter(trace.ByKind(trace.KindEACoord), trace.ByProc(1)); len(evs) != 0 {
		// The engine may *decide* to champion (trace note emitted before the
		// interceptor drops the send); what matters is nothing reached peers:
		for _, e := range res.Log.Filter(trace.ByKind(trace.KindByzAction), trace.ByProc(1)) {
			if e.Aux != "mute-coord" {
				t.Fatalf("unexpected byz action %v", e)
			}
		}
	}
	if !res.AllDecided() {
		t.Fatal("run must decide despite mute coordinator")
	}
}

func TestPoisonNeverDecided(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		res, err := runner.Run(baseSpec(seed, map[types.ProcID]harness.Behavior{
			4: adversary.PoisonCoordinator(core.Config{TimeUnit: unit}, "a", "poison"),
		}))
		if err != nil {
			t.Fatal(err)
		}
		for id, v := range res.Decisions {
			if v == "poison" {
				t.Fatalf("seed %d: %v decided the poison value", seed, id)
			}
		}
	}
}

func TestSpamDroppedByDedup(t *testing.T) {
	res, err := runner.Run(baseSpec(6, map[types.ProcID]harness.Behavior{
		4: adversary.SpamStreams("zzz", 30),
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Duplicates == 0 {
		t.Fatal("spam duplicates should be counted by the first-message rule")
	}
	if !res.AllDecided() {
		t.Fatal("run must decide despite spam")
	}
	for _, v := range res.Decisions {
		if v == "zzz" {
			t.Fatal("spam value decided")
		}
	}
}

func TestFakeDecideInsufficient(t *testing.T) {
	res, err := runner.Run(baseSpec(7, map[types.ProcID]harness.Behavior{
		4: adversary.FakeDecide("forged"),
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Decisions {
		if v == "forged" {
			t.Fatal("a single forged DECIDE (< t+1) caused a decision")
		}
	}
}

func TestTargetedDelayJitterDeterministic(t *testing.T) {
	links := map[[2]types.ProcID]bool{{1, 2}: true}
	a := adversary.NewTargetedDelay(links, types.Duration(time.Second), types.Duration(time.Second), 9)
	b := adversary.NewTargetedDelay(links, types.Duration(time.Second), types.Duration(time.Second), 9)
	for i := 0; i < 20; i++ {
		da, oka := a.MessageDelay(1, 2, 0, nil)
		db, okb := b.MessageDelay(1, 2, 0, nil)
		if !oka || !okb || da != db {
			t.Fatal("jitter must be deterministic per seed")
		}
		if da < types.Duration(time.Second) || da > types.Duration(2*time.Second) {
			t.Fatalf("jittered delay %v out of range", da)
		}
	}
	if _, ok := a.MessageDelay(2, 1, 0, nil); ok {
		t.Fatal("untargeted link delayed")
	}
}

func TestIsolateExceptBisourceLinks(t *testing.T) {
	a := adversary.IsolateExceptBisource(4, 1, []types.ProcID{2}, []types.ProcID{3}, types.Duration(time.Second), 0, 1)
	if _, ok := a.MessageDelay(2, 1, 0, nil); ok {
		t.Fatal("bisource in-channel must not be targeted")
	}
	if _, ok := a.MessageDelay(1, 3, 0, nil); ok {
		t.Fatal("bisource out-channel must not be targeted")
	}
	if _, ok := a.MessageDelay(3, 2, 0, nil); !ok {
		t.Fatal("plain channel must be targeted")
	}
	if _, ok := a.MessageDelay(2, 2, 0, nil); ok {
		t.Fatal("self loop must not be targeted")
	}
}

func TestConsensusSplitterSelectivity(t *testing.T) {
	a := adversary.ConsensusSplitter{
		Target:     map[types.ProcID]types.ProcID{2: 3},
		Delay:      types.Duration(time.Second),
		CoordDelay: types.Duration(time.Minute),
		N:          4,
	}
	// EA_COORD always delayed by CoordDelay.
	d, ok := a.MessageDelay(1, 2, 0, proto.Message{Kind: proto.MsgEACoord, Tag: proto.Tag{Mod: proto.ModEA, Round: 5}})
	if !ok || d != types.Duration(time.Minute) {
		t.Fatalf("coord delay = %v, %v", d, ok)
	}
	// Relay from the round's coordinator (round 5 → coord p1) delayed.
	if d, ok := a.MessageDelay(1, 2, 0, proto.Message{Kind: proto.MsgEARelay, Tag: proto.Tag{Mod: proto.ModEA, Round: 5}}); !ok || d != types.Duration(time.Minute) {
		t.Fatalf("coordinator relay delay = %v, %v", d, ok)
	}
	// Relay from a non-coordinator unaffected.
	if _, ok := a.MessageDelay(2, 3, 0, proto.Message{Kind: proto.MsgEARelay, Tag: proto.Tag{Mod: proto.ModEA, Round: 5}}); ok {
		t.Fatal("non-coordinator relay delayed")
	}
	// Targeted origin's RB stream into p2 delayed...
	if d, ok := a.MessageDelay(4, 2, 0, proto.Message{Kind: proto.MsgRBEcho, Tag: proto.Tag{Mod: proto.ModACEst, Round: 1}, Origin: 3}); !ok || d != types.Duration(time.Second) {
		t.Fatalf("targeted stream delay = %v, %v", d, ok)
	}
	// ...but not DECIDE, other origins, or other receivers.
	if _, ok := a.MessageDelay(3, 2, 0, proto.Message{Kind: proto.MsgDecide, Tag: proto.Tag{Mod: proto.ModDecide}, Val: "a"}); ok {
		t.Fatal("DECIDE must never be delayed")
	}
	if _, ok := a.MessageDelay(4, 2, 0, proto.Message{Kind: proto.MsgRBEcho, Tag: proto.Tag{Mod: proto.ModACEst, Round: 1}, Origin: 1}); ok {
		t.Fatal("untargeted origin delayed")
	}
	if _, ok := a.MessageDelay(4, 3, 0, proto.Message{Kind: proto.MsgRBEcho, Tag: proto.Tag{Mod: proto.ModACEst, Round: 1}, Origin: 3}); ok {
		t.Fatal("untargeted receiver delayed")
	}
	// Non-message payloads pass through.
	if _, ok := a.MessageDelay(1, 2, 0, "not-a-message"); ok {
		t.Fatal("non-message payload delayed")
	}
}

// TestHealingPartitionHoldsThenHeals checks that cross-block messages
// are proposed for delivery no earlier than the heal instant, while
// intra-block and post-heal traffic is untouched.
func TestHealingPartitionHoldsThenHeals(t *testing.T) {
	heal := types.Time(100 * time.Millisecond)
	a := &adversary.HealingPartition{
		Side:    map[types.ProcID]int{1: 1, 2: 1}, // 3, 4 default to block 0
		HealAt:  heal,
		Stagger: types.Duration(time.Microsecond),
	}
	if _, ok := a.MessageDelay(1, 2, 0, nil); ok {
		t.Error("intra-block message was claimed")
	}
	d1, ok := a.MessageDelay(1, 3, 0, nil)
	if !ok || types.Time(0).Add(d1) < heal {
		t.Errorf("cross-block message at t=0 delivered at %v, want ≥ %v", d1, heal)
	}
	d2, ok := a.MessageDelay(3, 2, types.Time(40*time.Millisecond), nil)
	if !ok || types.Time(40*time.Millisecond).Add(d2) < heal {
		t.Errorf("cross-block message at t=40ms delivered too early")
	}
	if d2 <= types.Duration(heal)-40*time.Millisecond-types.Duration(time.Nanosecond) {
		// staggered behind the first queued message
		t.Errorf("second queued message not staggered: %v", d2)
	}
	if _, ok := a.MessageDelay(1, 3, heal, nil); ok {
		t.Error("post-heal message was claimed")
	}
}

// TestChainFirstClaimWins checks the adversary combinator's precedence.
func TestChainFirstClaimWins(t *testing.T) {
	first := &adversary.HealingPartition{
		Side: map[types.ProcID]int{1: 1}, HealAt: types.Time(time.Second),
	}
	second := adversary.NewTargetedDelay(
		map[[2]types.ProcID]bool{{1, 2}: true, {3, 4}: true},
		types.Duration(5*time.Millisecond), 0, 1)
	c := adversary.Chain{nil, first, second}
	// 1→2 crosses the partition: first claims it with the heal delay.
	d, ok := c.MessageDelay(1, 2, 0, nil)
	if !ok || d < types.Duration(time.Second) {
		t.Errorf("chain did not apply the partition delay: %v ok=%v", d, ok)
	}
	// 3→4 is intra-block: falls through to the targeted delay.
	d, ok = c.MessageDelay(3, 4, 0, nil)
	if !ok || d != types.Duration(5*time.Millisecond) {
		t.Errorf("chain did not fall through: %v ok=%v", d, ok)
	}
	// 2→3 is claimed by nobody.
	if _, ok := c.MessageDelay(2, 3, 0, nil); ok {
		t.Error("unclaimed message was claimed")
	}
}
