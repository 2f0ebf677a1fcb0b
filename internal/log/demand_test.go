package log

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/proto"
	"repro/internal/types"
)

// Demand-driven starts: Engine.demanded, Engine.learn.

// demandEngine builds a started engine with nothing pending.
func demandEngine(t *testing.T, batch, pipeline int) (*Engine, *stubEnv) {
	t.Helper()
	eng, env := newTestEngine(t, Config{BatchSize: batch, Pipeline: pipeline})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	return eng, env
}

// echoAt is a peer's message naming instance i and nothing else of
// interest: the join signal.
func echoAt(i types.Instance) proto.Message {
	return proto.Message{Kind: proto.MsgRBEcho, Tag: proto.Tag{Mod: proto.ModConsCB0}, Instance: i, Origin: 3, Val: "x"}
}

// ownBatches returns the sorted batch this engine proposed in each of
// the instances [0, nextStart).
func ownBatches(eng *Engine) [][]types.Value {
	out := make([][]types.Value, eng.nextStart)
	for i := range out {
		cmds, err := DecodeBatch(eng.insts[types.Instance(i)].proposal)
		if err != nil {
			panic(err)
		}
		slices.Sort(cmds)
		out[i] = cmds
	}
	return out
}

func TestDemandIdleEngineStartsNothing(t *testing.T) {
	eng, env := demandEngine(t, 8, 4)
	if eng.Instances() != 0 || len(env.sent) != 0 || eng.InFlight() != 0 {
		t.Fatalf("idle engine opened %d instances and sent %d messages", eng.Instances(), len(env.sent))
	}
	if !eng.Quiescent() {
		t.Fatal("an engine that was asked nothing is not quiescent")
	}
}

// TestDemandSubmitOpensOneInstance: one Submit opens exactly one
// instance; a second Submit while it is undecided opens one more that
// carries both; the window bounds it; a resubmission opens nothing.
func TestDemandSubmitOpensOneInstance(t *testing.T) {
	eng, _ := demandEngine(t, 8, 2)
	for _, c := range []types.Value{"a", "b", "b", "c"} {
		if err := eng.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	want := [][]types.Value{{"a"}, {"a", "b"}} // "c" waits: the window is 2 wide
	if got := ownBatches(eng); !slices.EqualFunc(got, want, slices.Equal[[]types.Value]) {
		t.Fatalf("proposed %q, want %q", got, want)
	}
	if eng.Quiescent() || eng.InFlight() != 2 {
		t.Fatalf("quiescent=%v in flight=%d with two open instances", eng.Quiescent(), eng.InFlight())
	}
	// Instance 0 applies: its slot opens and "c", still uncovered, takes it.
	eng.onInstanceDecided(0, EncodeBatch([]types.Value{"a"}))
	if got := ownBatches(eng); len(got) != 3 || !slices.Equal(got[2], []types.Value{"b", "c"}) {
		t.Fatalf("after instance 0 applied: proposed %q", got)
	}
}

// TestDemandCoverageReleasedAtApply: a batch decided out of order still
// pins its commands until it is applied — releasing at decide would open
// a third instance for commands that are about to commit.
func TestDemandCoverageReleasedAtApply(t *testing.T) {
	eng, _ := demandEngine(t, 8, 4)
	_ = eng.Submit("a")
	_ = eng.Submit("b")
	eng.onInstanceDecided(1, EncodeBatch([]types.Value{"a", "b"}))
	if eng.nextStart != 2 {
		t.Fatalf("a decided, unapplied batch lost its coverage: %d instances started", eng.nextStart)
	}
	eng.onInstanceDecided(0, EncodeBatch([]types.Value{"a"}))
	if eng.Applied() != 2 || eng.nextStart != 2 || !eng.Quiescent() {
		t.Fatalf("applied=%v started=%v quiescent=%v, want 2, 2, true", eng.Applied(), eng.nextStart, eng.Quiescent())
	}
}

// TestDemandBotReopens: a command its instance failed to order — ⊥, or a
// peer's batch without it — is uncovered again at apply and opens the
// next instance; one that committed does not.
func TestDemandBotReopens(t *testing.T) {
	for name, c := range map[string]struct {
		decided types.Value
		reopens bool
	}{
		"bot":        {types.BotValue, true},
		"peer batch": {EncodeBatch([]types.Value{"elsewhere"}), true},
		"own batch":  {EncodeBatch([]types.Value{"a"}), false},
	} {
		eng, _ := demandEngine(t, 8, 4)
		_ = eng.Submit("a")
		eng.onInstanceDecided(0, c.decided)
		if got := eng.nextStart == 2; got != c.reopens {
			t.Errorf("%s decided: reopened=%v, want %v", name, got, c.reopens)
		}
		if c.reopens && !slices.Equal(eng.insts[1].ownBatch, []types.Value{"a"}) {
			t.Errorf("%s decided: instance 1 carries %q", name, eng.insts[1].ownBatch)
		}
	}
}

// TestDemandJoin: a message naming an instance makes this process
// propose in every instance up to it — as far as the window reaches now,
// in the rest when applying moves the window over them. Nothing happens
// before Start; what MaxLead drops names nothing.
func TestDemandJoin(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 4, MaxLead: 16})
	eng.OnMessage(3, echoAt(1))
	if eng.nextStart != 0 {
		t.Fatalf("joined before Start: %d instances", eng.nextStart)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	if eng.nextStart != 2 {
		t.Fatalf("Start joined %d instances, want 0 and 1", eng.nextStart)
	}
	eng.OnMessage(3, echoAt(99)) // past MaxLead: dropped, not remembered
	if eng.nextStart != 2 || eng.DroppedAhead() != 1 {
		t.Fatalf("joined a dropped instance: %d instances started, %d dropped", eng.nextStart, eng.DroppedAhead())
	}
	eng.OnMessage(3, echoAt(5)) // accepted; the window is [0, 4)
	if eng.nextStart != 4 {
		t.Fatalf("named instance 5: %d instances started, want the window's 4", eng.nextStart)
	}
	for i := types.Instance(0); i < 2; i++ {
		eng.onInstanceDecided(i, EncodeBatch(nil)) // window slides to [2, 6)
	}
	if eng.nextStart != 6 || eng.Quiescent() {
		t.Fatalf("window over instance 5: %d instances started, want 6", eng.nextStart)
	}
	for i := types.Instance(2); i < 6; i++ {
		eng.onInstanceDecided(i, EncodeBatch(nil))
	}
	if eng.nextStart != 6 || !eng.Quiescent() {
		t.Fatalf("nothing named past 5: %d instances started, quiescent=%v", eng.nextStart, eng.Quiescent())
	}
	for _, b := range ownBatches(eng) {
		if len(b) != 0 {
			t.Fatalf("a join with nothing pending proposed %q", b)
		}
	}
}

// TestLearnFromInit: the proposal is also a forward, under exactly these
// conditions — a CB[0] INIT, received from its own origin, for an
// instance inside the window, whose value decodes to at most BatchSize
// commands. The learner then joins with the same batch.
func TestLearnFromInit(t *testing.T) {
	batch := EncodeBatch([]types.Value{"x", "y"})
	good := proto.Message{Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModConsCB0}, Instance: 1, Origin: 2, Val: batch}
	with := func(edit func(*proto.Message)) proto.Message {
		m := good
		edit(&m)
		return m
	}
	for name, c := range map[string]struct {
		from  types.ProcID
		m     proto.Message
		learn int
	}{
		"own INIT":       {2, good, 2},
		"relayed INIT":   {3, good, 0},
		"ECHO":           {2, with(func(m *proto.Message) { m.Kind = proto.MsgRBEcho }), 0},
		"not CB[0]":      {2, with(func(m *proto.Message) { m.Tag.Mod = proto.ModDecide }), 0},
		"past window":    {2, with(func(m *proto.Message) { m.Instance = 2 }), 0},
		"undecodable":    {2, with(func(m *proto.Message) { m.Val = "junk" }), 0},
		"over BatchSize": {2, with(func(m *proto.Message) { m.Val = EncodeBatch([]types.Value{"x", "y", "z"}) }), 0},
		"bot inside":     {2, with(func(m *proto.Message) { m.Val = EncodeBatch([]types.Value{"x", types.BotValue}) }), 1},
	} {
		eng, _ := demandEngine(t, 2, 2)
		eng.OnMessage(c.from, c.m)
		if eng.Pending() != c.learn {
			t.Errorf("%s: learned %d commands, want %d", name, eng.Pending(), c.learn)
		}
		if name == "own INIT" {
			if got := ownBatches(eng); len(got) != 2 || !slices.Equal(got[0], []types.Value{"x", "y"}) || eng.insts[1].proposal != batch {
				t.Errorf("joined with %q, want the learned batch in instances 0 and 1", got)
			}
		}
	}
	// Below the apply point nothing is learned either.
	eng, _ := demandEngine(t, 2, 2)
	eng.OnMessage(3, echoAt(0))
	eng.onInstanceDecided(0, EncodeBatch(nil))
	eng.OnMessage(2, with(func(m *proto.Message) { m.Instance = 0 }))
	if eng.Pending() != 0 {
		t.Errorf("learned %d commands from an applied instance", eng.Pending())
	}
}

// TestDemandDeepQueueKeepsWindowFull: while more is pending than the
// open instances carry, rule (a) holds at every evaluation and the
// schedule is the full-window one — Pipeline instances at Start, one
// more per apply, pairwise disjoint batches.
func TestDemandDeepQueueKeepsWindowFull(t *testing.T) {
	const batch, pipeline = 8, 4
	eng := canonicalEngine(t, batch, pipeline, depthCmds(40, 40, 40, 40))
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	for i := types.Instance(0); i < 12; i++ {
		if eng.nextStart != i+pipeline {
			t.Fatalf("before instance %v applied: %d instances started, want %d", i, eng.nextStart, i+pipeline)
		}
		seen := map[types.Value]bool{}
		for j := i; j < i+pipeline; j++ {
			if len(eng.insts[j].ownBatch) != batch {
				t.Fatalf("instance %v carries %d commands", j, len(eng.insts[j].ownBatch))
			}
			for _, c := range eng.insts[j].ownBatch {
				if seen[c] {
					t.Fatalf("%q rides two of the instances in flight from %v", c, i)
				}
				seen[c] = true
			}
		}
		eng.onInstanceDecided(i, eng.insts[i].proposal)
	}
}

// TestInitOvertakesForward runs four engines where a command is
// submitted at ONE replica and reaches the others only 40 ms later — long
// after the instance it opened has decided — so on every link the INIT is
// the first the peer hears of the command. Every command must still
// commit in one instance, with no ⊥ and no empty instance beside it.
func TestInitOvertakesForward(t *testing.T) {
	const total = 24
	params := types.Params{N: 4, T: 1}
	w, err := harness.New(harness.Config{
		Params:   params,
		Topology: network.FullySynchronous(params.N, types.Duration(2*time.Millisecond)),
		Seed:     3,
		BotOK:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	engines := make(map[types.ProcID]*Engine)
	logs := make(map[types.ProcID][]Entry)
	for _, id := range params.AllProcs() {
		err := w.SetBehavior(id, func(env proto.Env) proto.Handler {
			var eng *Engine
			cfg := Config{
				Env: env,
				OnCommit: func(e Entry) {
					if logs[id] = append(logs[id], e); len(logs[id]) >= total {
						eng.Close()
					}
				},
			}
			cfg.Engine.TimeUnit = types.Duration(10 * time.Millisecond)
			eng, err := New(cfg)
			if err != nil {
				t.Fatalf("replica %v: %v", id, err)
			}
			engines[id] = eng
			env.SetTimer(0, func() {
				if err := eng.Start(); err != nil {
					t.Errorf("replica %v: start: %v", id, err)
				}
			})
			for k := 0; k < total; k++ {
				at := types.Duration(k+1) * types.Duration(100*time.Millisecond)
				if types.ProcID(k%params.N+1) != id {
					at += types.Duration(40 * time.Millisecond) // the late forward
				}
				c := types.Value(fmt.Sprintf("cmd-%02d", k))
				env.SetTimer(at, func() { _ = eng.Submit(c) })
			}
			return eng
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	w.Run(types.Time(time.Minute), 0)
	for _, id := range params.AllProcs() {
		eng := engines[id]
		if len(logs[id]) != total || !slices.Equal(logs[id], logs[1]) {
			t.Fatalf("replica %v committed %d of %d commands (or a different log)", id, len(logs[id]), total)
		}
		if eng.Applied() != total || eng.NoOps() != 0 {
			t.Errorf("replica %v: %v instances for %d commands, %d of them no-ops", id, eng.Applied(), total, eng.NoOps())
		}
	}
}
