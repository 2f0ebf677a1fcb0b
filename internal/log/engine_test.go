package log

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/proto"
	"repro/internal/rb"
	"repro/internal/trace"
	"repro/internal/types"
)

// stubEnv is a minimal single-process environment: sends are captured,
// timers are never fired. Enough to unit-test the engine's bookkeeping;
// full-protocol behavior is covered by the simulator tests in
// internal/runner and internal/rt.
type stubEnv struct {
	id     types.ProcID
	params types.Params
	sent   []proto.Message
}

var _ proto.Env = (*stubEnv)(nil)

func (e *stubEnv) ID() types.ProcID     { return e.id }
func (e *stubEnv) Params() types.Params { return e.params }
func (e *stubEnv) Now() types.Time      { return 0 }
func (e *stubEnv) Send(to types.ProcID, m proto.Message) {
	e.sent = append(e.sent, m)
}
func (e *stubEnv) Broadcast(m proto.Message) {
	for range e.params.AllProcs() {
		e.sent = append(e.sent, m)
	}
}
func (e *stubEnv) SetTimer(d types.Duration, fn func()) (cancel func()) {
	return func() {}
}
func (e *stubEnv) Trace() trace.Sink { return trace.Discard{} }

func newTestEngine(t *testing.T, cfg Config) (*Engine, *stubEnv) {
	t.Helper()
	env := &stubEnv{id: 1, params: types.Params{N: 4, T: 1}}
	cfg.Env = env
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, env
}

// startFull starts eng with its whole window in flight: nothing is
// pending, so a peer's message naming the window's last instance makes
// it join them all (Engine.demanded (b)).
func startFull(t *testing.T, eng *Engine) {
	t.Helper()
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	eng.OnMessage(3, echoAt(types.Instance(eng.Pipeline())-1))
	if eng.InFlight() != eng.Pipeline() {
		t.Fatalf("%d instances in flight, want %d", eng.InFlight(), eng.Pipeline())
	}
}

func TestSubmitIdempotent(t *testing.T) {
	eng, _ := newTestEngine(t, Config{})
	if err := eng.Submit("a"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit("a"); err != nil {
		t.Fatal(err)
	}
	if eng.Pending() != 1 {
		t.Fatalf("duplicate submit queued twice: pending=%d", eng.Pending())
	}
}

func TestSubmitRejectsBot(t *testing.T) {
	eng, _ := newTestEngine(t, Config{})
	if err := eng.Submit(types.BotValue); err == nil {
		t.Fatal("⊥ submission accepted")
	}
}

func TestStartTwice(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 1})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err == nil {
		t.Fatal("second Start accepted")
	}
}

func TestBatchSizeCap(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 1, BatchSize: 4})
	for i := 0; i < 10; i++ {
		if err := eng.Submit(types.Value(string(rune('a' + i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	if got := len(eng.insts[0].ownBatch); got != 4 {
		t.Fatalf("batch carries %d commands, want 4", got)
	}
}

func TestMaxLeadGuard(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 1, MaxLead: 8})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	m := proto.Message{
		Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModConsCB0},
		Instance: 1 << 30, Origin: 2, Val: "spam",
	}
	eng.OnMessage(2, m)
	if eng.DroppedAhead() != 1 {
		t.Fatalf("far-ahead instance not dropped (drops=%d)", eng.DroppedAhead())
	}
	if eng.Instances() != 0 {
		t.Fatalf("far-ahead instance instantiated an engine (insts=%d)", eng.Instances())
	}
	// Negative instances (impossible off the wire, but defensive).
	m.Instance = -1
	eng.OnMessage(2, m)
	if eng.DroppedAhead() != 2 {
		t.Fatal("negative instance not dropped")
	}
	// In-window instances are accepted: instance 3 gets its engine (and
	// instance 0 this process's proposal — the join rule).
	m.Instance = 3
	eng.OnMessage(2, m)
	if eng.Instance(3) == nil || eng.Instances() != 2 {
		t.Fatalf("in-window instance not instantiated (insts=%d)", eng.Instances())
	}
}

func TestCoalescedEngineWindowGuardsRelayState(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 1, MaxLead: 8})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	// A vector naming a far-future instance: the relay must forward it
	// into the MaxLead accounting (lag signal) without allocating state,
	// and an out-of-window INIT must not seed the value cache.
	enc, err := rb.EncodeEntries([]rb.Entry{{
		Kind: proto.MsgRBEcho, Tag: proto.Tag{Mod: proto.ModConsCB0},
		Origin: 2, Instance: 1 << 30, Val: "spam",
	}})
	if err != nil {
		t.Fatal(err)
	}
	eng.OnMessage(2, proto.Message{Kind: proto.MsgRBVector, Tag: proto.Tag{Mod: proto.ModRBRelay}, Origin: 2, Val: enc})
	if eng.DroppedAhead() != 1 {
		t.Fatalf("out-of-window entry missing from lag accounting (drops=%d)", eng.DroppedAhead())
	}
	if eng.Relay().WindowDrops() != 1 || eng.Relay().Parked() != 0 {
		t.Fatalf("relay state: windowDrops=%d parked=%d", eng.Relay().WindowDrops(), eng.Relay().Parked())
	}
	cacheBefore := eng.Relay().CacheBytes()
	eng.OnMessage(2, proto.Message{
		Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModConsCB0},
		Origin: 2, Instance: 1 << 30, Val: types.Value(make([]byte, 64)),
	})
	if got := eng.Relay().CacheBytes(); got != cacheBefore {
		t.Fatalf("out-of-window INIT cached (%d bytes, was %d)", got, cacheBefore)
	}
}

func TestCloseStopsNewInstances(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 2})
	if err := eng.Submit("a"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	// Instance 0 deciding ⊥ leaves "a" uncovered, which would normally
	// start instance 1.
	eng.onInstanceDecided(0, types.BotValue)
	if eng.Instances() != 1 {
		t.Fatalf("closed engine opened a new instance (insts=%d)", eng.Instances())
	}
	if eng.Applied() != 1 {
		t.Fatalf("applied=%v, want 1", eng.Applied())
	}
}

func TestApplyInInstanceOrder(t *testing.T) {
	var got []types.Value
	eng, _ := newTestEngine(t, Config{Pipeline: 3, OnCommit: func(e Entry) {
		got = append(got, e.Cmd)
	}})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	// Decisions arrive out of order: 2, 0, 1.
	eng.onInstanceDecided(2, EncodeBatch([]types.Value{"c"}))
	if eng.Applied() != 0 {
		t.Fatal("applied out of order")
	}
	eng.onInstanceDecided(0, EncodeBatch([]types.Value{"a"}))
	if eng.Applied() != 1 {
		t.Fatalf("applied=%v after instance 0 decided", eng.Applied())
	}
	eng.onInstanceDecided(1, EncodeBatch([]types.Value{"b"}))
	if eng.Applied() != 3 {
		t.Fatalf("applied=%v after all decided", eng.Applied())
	}
	want := []types.Value{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("committed %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("committed %q, want %q", got, want)
		}
	}
}

func TestApplyDeduplicatesAcrossBatches(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 2})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	eng.onInstanceDecided(0, EncodeBatch([]types.Value{"a", "b"}))
	eng.onInstanceDecided(1, EncodeBatch([]types.Value{"b", "c"}))
	if eng.Committed() != 3 {
		t.Fatalf("committed=%d, want 3 (b deduplicated)", eng.Committed())
	}
	if eng.Entries()[2].Cmd != "c" {
		t.Fatalf("entries: %+v", eng.Entries())
	}
}

func TestBotAndGarbageDecisionsAreNoOps(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 2})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	eng.onInstanceDecided(0, types.BotValue)
	eng.onInstanceDecided(1, types.Value("not a batch"))
	if eng.Committed() != 0 {
		t.Fatal("no-op decisions committed commands")
	}
	if eng.NoOps() != 2 {
		t.Fatalf("noops=%d, want 2", eng.NoOps())
	}
	if eng.Applied() != 2 {
		t.Fatalf("applied=%v, want 2", eng.Applied())
	}
}

// TestForwardSubmits: a peer's forwarded client command is submitted — it
// is pending, opens an instance and commits — instead of being read as a
// message of instance 0.
func TestForwardSubmits(t *testing.T) {
	var got []types.Value
	eng, _ := newTestEngine(t, Config{Pipeline: 2, OnCommit: func(e Entry) { got = append(got, e.Cmd) }})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	fwd := proto.Message{Kind: proto.MsgKVRequest, Tag: proto.Tag{Mod: proto.ModKV}, Val: "cmd"}
	eng.OnMessage(2, fwd)
	eng.OnMessage(3, fwd) // the same command from another peer: content dedup
	if eng.Pending() != 1 || eng.InFlight() != 1 {
		t.Fatalf("pending=%d in flight=%d after a forward, want 1 and 1", eng.Pending(), eng.InFlight())
	}
	eng.onInstanceDecided(0, eng.insts[0].proposal)
	if !slices.Equal(got, []types.Value{"cmd"}) || eng.Pending() != 0 {
		t.Fatalf("committed %q with %d pending, want the forwarded command alone", got, eng.Pending())
	}
}

func TestTargetClosesEngine(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 1, Target: 2})
	for _, c := range []types.Value{"a", "b", "c"} {
		if err := eng.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	eng.onInstanceDecided(0, EncodeBatch([]types.Value{"a", "b"}))
	if !eng.Closed() {
		t.Fatal("engine not closed at target")
	}
	if eng.Instances() != 1 {
		t.Fatalf("closed engine opened instance (insts=%d)", eng.Instances())
	}
}

func TestCompactRetiresWholesale(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 4})
	startFull(t, eng) // a peer's echo in instance 3
	eng.OnMessage(2, echoAt(0))
	eng.OnMessage(2, echoAt(1))
	if got := eng.Relay().Scopes(); got != 3 {
		t.Fatalf("setup: %d first-message scopes, want 3", got)
	}
	eng.onInstanceDecided(0, EncodeBatch([]types.Value{"a", "b"}))
	eng.onInstanceDecided(1, EncodeBatch([]types.Value{"c"}))
	eng.onInstanceDecided(2, EncodeBatch([]types.Value{"d"}))
	if eng.Applied() != 3 || eng.Committed() != 4 {
		t.Fatalf("setup: applied=%v committed=%d", eng.Applied(), eng.Committed())
	}
	instsBefore := eng.Instances()

	released := eng.Compact(2)
	if released != 2 {
		t.Fatalf("released %d engines, want 2", released)
	}
	if eng.Floor() != 2 || eng.Retired() != 2 {
		t.Fatalf("floor=%v retired=%d", eng.Floor(), eng.Retired())
	}
	if eng.Instances() != instsBefore-2 {
		t.Fatalf("live instances %d, want %d", eng.Instances(), instsBefore-2)
	}
	// Entries of instances 0 and 1 ("a","b","c") are trimmed; the suffix
	// and the total count survive.
	if eng.EntriesBase() != 3 || eng.Committed() != 4 {
		t.Fatalf("base=%d committed=%d", eng.EntriesBase(), eng.Committed())
	}
	if len(eng.Entries()) != 1 || eng.Entries()[0].Cmd != "d" || eng.Entries()[0].Index != 3 {
		t.Fatalf("retained entries: %+v", eng.Entries())
	}
	// The first-message table went in the same stroke: only instance 3's
	// scope is left.
	if got := eng.Relay().Scopes(); got != 1 {
		t.Fatalf("%d first-message scopes after compaction, want 1", got)
	}
}

// TestEngineRetiresItsTable: the first-message table is kept per instance
// and retired with the engine's floor — by Compact, InstallSnapshot and
// Resume alike — and late traffic below the floor is dropped as retired
// without rebuilding any of it.
func TestEngineRetiresItsTable(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 4})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	for i := types.Instance(0); i < 5; i++ {
		eng.OnMessage(2, echoAt(i))
	}
	if got := eng.Relay().Scopes(); got != 5 {
		t.Fatalf("%d first-message scopes, want one per instance", got)
	}
	for i := types.Instance(0); i < 3; i++ {
		eng.onInstanceDecided(i, EncodeBatch(nil))
	}
	eng.Compact(3)
	if got := eng.Relay().Scopes(); got != 2 {
		t.Fatalf("%d scopes after Compact(3), want 2", got)
	}
	// Late traffic for a compacted instance: dropped, no scope rebuilt.
	late := echoAt(1)
	late.Origin = 4 // a fresh identity, were the instance live
	eng.OnMessage(2, late)
	if eng.DroppedRetired() != 1 || eng.Relay().Scopes() != 2 {
		t.Fatalf("retired traffic: droppedRetired=%d scopes=%d", eng.DroppedRetired(), eng.Relay().Scopes())
	}
	// The floor is monotone: lowering it is a no-op.
	eng.Compact(1)
	if eng.Floor() != 3 || eng.Relay().Scopes() != 2 {
		t.Fatalf("floor regressed: floor=%v scopes=%d", eng.Floor(), eng.Relay().Scopes())
	}
	// Live instances above the floor still deduplicate.
	eng.OnMessage(2, echoAt(4))
	if got := eng.cfg.Dedup.DroppedDuplicates.Value(); got != 1 {
		t.Fatalf("live-instance dedup broken: dropped=%d", got)
	}

	// A peer snapshot retires everything below its retained suffix.
	if err := eng.InstallSnapshot(10, eng.Committed(), nil); err != nil {
		t.Fatal(err)
	}
	if got := eng.Relay().Scopes(); got != 0 {
		t.Fatalf("%d scopes after InstallSnapshot(10), want 0", got)
	}
	eng.OnMessage(2, echoAt(9))
	if eng.DroppedRetired() != 2 || eng.Relay().Scopes() != 0 {
		t.Fatalf("below the installed floor: droppedRetired=%d scopes=%d", eng.DroppedRetired(), eng.Relay().Scopes())
	}

	// A durable boot starts the table at the resumed floor.
	fresh, _ := newTestEngine(t, Config{Pipeline: 4})
	if err := fresh.Resume(6, 0, nil); err != nil {
		t.Fatal(err)
	}
	fresh.OnMessage(2, echoAt(2))
	fresh.OnMessage(2, echoAt(6))
	if fresh.DroppedRetired() != 1 || fresh.Relay().Scopes() != 1 {
		t.Fatalf("resumed at 6: droppedRetired=%d scopes=%d, want 1 and 1", fresh.DroppedRetired(), fresh.Relay().Scopes())
	}
}

// TestEngineAppliesFirstMessageRule: inside its window the engine keeps
// the first message of each (sender, kind, tag, origin) and drops the
// rest whatever their value, counting them; loose messages and vector
// entries share the one table. Outside the window nothing is recorded,
// identities no correct process sends are refused before they allocate,
// and the exempt kinds never reach the table.
func TestEngineAppliesFirstMessageRule(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 2, MaxLead: 8})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	dropped := func() uint64 { return eng.cfg.Dedup.DroppedDuplicates.Value() }
	prop2 := proto.Message{Kind: proto.MsgEAProp2, Tag: proto.Tag{Mod: proto.ModEA, Round: 1}, Instance: 1, Val: "a"}
	eng.OnMessage(2, prop2)
	prop2.Val = "b"
	eng.OnMessage(2, prop2)
	eng.OnMessage(3, prop2) // another sender's
	if dropped() != 1 || eng.Instance(1) == nil {
		t.Fatalf("dropped %d, want the repeat alone", dropped())
	}

	// A loose ECHO and a vector entry of the same identity: one counts.
	eng.OnMessage(2, echoAt(1))
	enc, err := rb.EncodeEntries([]rb.Entry{{
		Kind: proto.MsgRBEcho, Tag: proto.Tag{Mod: proto.ModConsCB0}, Origin: 3, Instance: 1, Val: "x",
	}})
	if err != nil {
		t.Fatal(err)
	}
	eng.OnMessage(2, proto.Message{Kind: proto.MsgRBVector, Tag: proto.Tag{Mod: proto.ModRBRelay}, Origin: 2, Val: enc})
	if eng.Relay().DupEntries() != 1 {
		t.Fatalf("vector repeat of a loose echo: DupEntries=%d, want 1", eng.Relay().DupEntries())
	}

	// Out of the window: counted by the guards each time, no table state.
	scopes := eng.Relay().Scopes()
	ahead := echoAt(1 << 40)
	eng.OnMessage(2, ahead)
	eng.OnMessage(2, ahead)
	if eng.DroppedAhead() != 2 || eng.Relay().Scopes() != scopes || dropped() != 1 {
		t.Fatalf("far-future pair: droppedAhead=%d scopes=%d dropped=%d", eng.DroppedAhead(), eng.Relay().Scopes(), dropped())
	}

	// Identities no correct process sends: refused, no scope, no instance.
	insts := eng.Instances()
	for _, m := range []proto.Message{
		{Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModConsCB0}, Instance: 5, Origin: 3, Val: "forged"},
		{Kind: proto.MsgRBEcho, Tag: proto.Tag{Mod: proto.ModKV}, Instance: 5, Origin: 3, Val: "v"},
		{Kind: proto.MsgRBEcho, Tag: proto.Tag{Mod: proto.ModConsCB0}, Instance: 5, Origin: 9, Val: "v"},
		{Kind: proto.MsgEAProp2, Tag: proto.Tag{Mod: proto.ModEA, Round: 1}, Instance: 5, Origin: 3, Val: "v"},
		{Kind: proto.MsgEAProp2, Tag: proto.Tag{Mod: proto.ModACCB, Round: 1}, Instance: 5, Val: "v"},
		{Kind: proto.MsgDecide, Tag: proto.Tag{Mod: proto.ModDecide, Round: 1}, Instance: 5, Val: "v"},
		{Kind: proto.MsgKVResponse, Tag: proto.Tag{Mod: proto.ModKV}, Instance: 5},
	} {
		eng.OnMessage(2, m)
	}
	if eng.Relay().ScopeDrops() != 7 || eng.Relay().Scopes() != scopes || eng.Instances() != insts {
		t.Fatalf("refused identities: scopeDrops=%d scopes=%d instances=%d, want 7, %d, %d",
			eng.Relay().ScopeDrops(), eng.Relay().Scopes(), eng.Instances(), scopes, insts)
	}

	// Exempt kinds: a repeated transfer request passes and records nothing.
	req := proto.Message{Kind: proto.MsgSnapRequest, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: 1}
	eng.OnMessage(2, req)
	eng.OnMessage(2, req)
	if dropped() != 1 || eng.Relay().Scopes() != scopes {
		t.Fatalf("transfer frames touched the table: dropped=%d scopes=%d", dropped(), eng.Relay().Scopes())
	}
}

func TestCompactClampsToApplied(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 4})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	eng.onInstanceDecided(0, EncodeBatch([]types.Value{"a"}))
	// Instance 1 not applied: a floor of 100 must clamp to 1.
	eng.Compact(100)
	if eng.Floor() != 1 {
		t.Fatalf("floor=%v, want clamp to applied boundary 1", eng.Floor())
	}
	// Re-compacting at or below the floor is a no-op.
	if n := eng.Compact(1); n != 0 {
		t.Fatalf("re-compact released %d", n)
	}
}

func TestCompactDropsRetiredInstanceTraffic(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 2})
	startFull(t, eng)
	eng.onInstanceDecided(0, EncodeBatch([]types.Value{"a"}))
	eng.Compact(1)
	m := proto.Message{
		Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModConsCB0},
		Instance: 0, Origin: 2, Val: "late",
	}
	eng.OnMessage(2, m)
	if eng.DroppedRetired() != 1 {
		t.Fatalf("retired-instance message not dropped (drops=%d)", eng.DroppedRetired())
	}
	if eng.Instances() == 0 {
		t.Fatal("live instances vanished")
	}
}

// TestCompactForgetsContentDedup: compaction trades the log's commit-time
// content dedup for bounded memory — a command committed before the floor
// may commit again (the session layer above restores exactly-once).
func TestCompactForgetsContentDedup(t *testing.T) {
	var got []types.Value
	eng, _ := newTestEngine(t, Config{Pipeline: 8, OnCommit: func(e Entry) {
		got = append(got, e.Cmd)
	}})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	eng.onInstanceDecided(0, EncodeBatch([]types.Value{"x"}))
	// Before compaction a re-decided "x" deduplicates.
	eng.onInstanceDecided(1, EncodeBatch([]types.Value{"x"}))
	if eng.Committed() != 1 {
		t.Fatalf("pre-compaction dedup broken: committed=%d", eng.Committed())
	}
	eng.Compact(2)
	eng.onInstanceDecided(2, EncodeBatch([]types.Value{"x"}))
	if eng.Committed() != 2 {
		t.Fatalf("post-compaction recommit suppressed: committed=%d", eng.Committed())
	}
	if len(got) != 2 || got[0] != "x" || got[1] != "x" {
		t.Fatalf("commit stream: %q", got)
	}
}

func TestOnApplyHookOrderAndCounts(t *testing.T) {
	type applyRec struct {
		inst  types.Instance
		newly int
	}
	var applies []applyRec
	var commitsSeen int
	eng, _ := newTestEngine(t, Config{
		Pipeline: 3,
		OnCommit: func(e Entry) { commitsSeen++ },
		OnApply: func(i types.Instance, newly int) {
			applies = append(applies, applyRec{i, newly})
			if newly > commitsSeen {
				t.Errorf("OnApply(%v) before its commits delivered", i)
			}
		},
	})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	eng.onInstanceDecided(1, EncodeBatch([]types.Value{"b"}))
	eng.onInstanceDecided(0, EncodeBatch([]types.Value{"a", "c"}))
	eng.onInstanceDecided(2, types.BotValue)
	want := []applyRec{{0, 2}, {1, 1}, {2, 0}}
	if len(applies) != len(want) {
		t.Fatalf("applies: %+v", applies)
	}
	for i := range want {
		if applies[i] != want[i] {
			t.Fatalf("applies: %+v, want %+v", applies, want)
		}
	}
}

// --- Snapshot-install tests (state transfer) ---------------------------------

// installRetained builds a contiguous retained suffix ending at index−1.
func installRetained(index int, pairs ...struct {
	inst types.Instance
	cmd  types.Value
}) []Entry {
	out := make([]Entry, len(pairs))
	base := index - len(pairs)
	for i, p := range pairs {
		out[i] = Entry{Index: base + i, Instance: p.inst, Cmd: p.cmd}
	}
	return out
}

func pair(inst types.Instance, cmd types.Value) struct {
	inst types.Instance
	cmd  types.Value
} {
	return struct {
		inst types.Instance
		cmd  types.Value
	}{inst, cmd}
}

func TestInstallSnapshotJumpsAndSeeds(t *testing.T) {
	var commits []Entry
	eng, _ := newTestEngine(t, Config{
		Pipeline: 2, BatchSize: 4,
		OnCommit: func(e Entry) { commits = append(commits, e) },
	})
	for _, c := range []types.Value{"a", "b", "x", "y"} {
		if err := eng.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	// The cluster is already at instance 11: a peer named it.
	eng.OnMessage(3, echoAt(11))
	// Snapshot covers 5 entries through instance 10; the retained window
	// holds the last two ("a" committed at i8, "b" at i9).
	retained := installRetained(5, pair(8, "a"), pair(9, "b"))
	if err := eng.InstallSnapshot(10, 5, retained); err != nil {
		t.Fatal(err)
	}
	if eng.Applied() != 10 || eng.Committed() != 5 || eng.Floor() != 8 {
		t.Fatalf("applied=%v committed=%d floor=%v, want 10/5/8", eng.Applied(), eng.Committed(), eng.Floor())
	}
	if eng.Installs() != 1 {
		t.Fatalf("installs=%d", eng.Installs())
	}
	if got := eng.EntriesBase(); got != 3 {
		t.Fatalf("entriesBase=%d, want 3", got)
	}
	// The pipeline reopened at the boundary, in the instances peers named.
	if eng.insts[10] == nil || eng.insts[11] == nil {
		t.Fatal("pipeline not reopened at boundary")
	}
	// Dedup was seeded: a batch re-deciding "a" and "b" commits nothing,
	// while "x" (pending, never committed) commits at index 5.
	eng.onInstanceDecided(10, EncodeBatch([]types.Value{"a", "b", "x"}))
	if len(commits) != 1 || commits[0].Cmd != "x" || commits[0].Index != 5 {
		t.Fatalf("post-install commits: %+v", commits)
	}
	// The pending queue was dropped wholesale at install: commands
	// committed in the SKIPPED prefix are indistinguishable from live
	// ones here, and re-proposing one would commit it twice everywhere.
	if eng.Pending() != 0 {
		t.Fatalf("pending=%d after install, want 0", eng.Pending())
	}
	if got := eng.insts[11].ownBatch; len(got) != 0 {
		t.Fatalf("post-install proposal carries %q", got)
	}
}

func TestInstallSnapshotHaltsRetiredInstances(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 2})
	startFull(t, eng)
	i0 := eng.Instance(0)
	if err := eng.InstallSnapshot(6, 3, nil); err != nil {
		t.Fatal(err)
	}
	if !i0.Stalled() {
		t.Fatal("retired undecided instance engine not halted")
	}
	if eng.Instance(0) != nil {
		t.Fatal("retired instance still registered")
	}
	if eng.Retired() != 2 {
		t.Fatalf("retired=%d, want 2", eng.Retired())
	}
	// With no retained suffix the floor is the boundary itself.
	if eng.Floor() != 6 {
		t.Fatalf("floor=%v, want 6", eng.Floor())
	}
}

// TestInstallSnapshotForgetsRecentInstances: an instance a message named
// just before an install, retired by it, is not found again through the
// recent-instance cache: traffic for it after the install, inside the
// retained window, reaches a fresh engine, not the halted one.
func TestInstallSnapshotForgetsRecentInstances(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 2})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	eng.OnMessage(3, echoAt(8))
	old := eng.Instance(8)
	if old == nil {
		t.Fatal("instance 8 not built")
	}
	if err := eng.InstallSnapshot(10, 5, installRetained(5, pair(8, "a"), pair(9, "b"))); err != nil {
		t.Fatal(err)
	}
	eng.OnMessage(4, echoAt(8))
	if now := eng.Instance(8); now == nil || now == old || now.Stalled() {
		t.Fatalf("instance 8 after the install: %p (halted %v), before: %p", now, now != nil && now.Stalled(), old)
	}
}

func TestInstallSnapshotRejectsStaleAndForged(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 2})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	eng.onInstanceDecided(0, EncodeBatch([]types.Value{"a"}))
	if err := eng.InstallSnapshot(1, 5, nil); err == nil {
		t.Fatal("boundary at applied accepted")
	}
	if err := eng.InstallSnapshot(4, 0, nil); err == nil {
		t.Fatal("index behind committed accepted")
	}
	// Retained suffix with a gap in indexes.
	bad := []Entry{{Index: 1, Instance: 2, Cmd: "b"}, {Index: 3, Instance: 3, Cmd: "c"}}
	if err := eng.InstallSnapshot(5, 3, bad); err == nil {
		t.Fatal("gapped retained suffix accepted")
	}
	// Retained entry at or past the boundary.
	bad = []Entry{{Index: 2, Instance: 7, Cmd: "b"}}
	if err := eng.InstallSnapshot(5, 3, bad); err == nil {
		t.Fatal("retained instance past boundary accepted")
	}
	if eng.Installs() != 0 {
		t.Fatalf("failed installs counted: %d", eng.Installs())
	}
}

func TestInstallSnapshotClosesAtTarget(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 2, Target: 5})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	eng.OnMessage(3, echoAt(9)) // a named instance: joined, unless closed
	if err := eng.InstallSnapshot(9, 5, nil); err != nil {
		t.Fatal(err)
	}
	if !eng.Closed() {
		t.Fatal("engine open past Target after install")
	}
	// No proposals into instances nobody else will run.
	if eng.insts[9].proposal != "" {
		t.Fatal("closed engine reopened the pipeline")
	}
}

func TestOnDroppedAheadHook(t *testing.T) {
	var lagged []types.Instance
	eng, _ := newTestEngine(t, Config{
		Pipeline: 2, MaxLead: 4,
		OnDroppedAhead: func(i types.Instance) { lagged = append(lagged, i) },
	})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	eng.OnMessage(2, proto.Message{Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModConsCB0}, Instance: 7, Origin: 2, Val: "v"})
	eng.OnMessage(2, proto.Message{Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModConsCB0}, Instance: 2, Origin: 2, Val: "v"})
	if len(lagged) != 1 || lagged[0] != 7 {
		t.Fatalf("lag hook calls: %v", lagged)
	}
	if eng.DroppedAhead() != 1 {
		t.Fatalf("droppedAhead=%d", eng.DroppedAhead())
	}
}

// --- Batch selection ---------------------------------------------------------

// laneCmds returns count distinct commands of the given lane (of
// pipeline lanes), found by walking a counter: the tests need queues of
// a chosen depth per lane.
func laneCmds(lane, pipeline, count int) []types.Value {
	var out []types.Value
	for k := 0; len(out) < count; k++ {
		c := types.Value(fmt.Sprintf("cmd-%05d", k))
		if laneOf(c, pipeline) == lane {
			out = append(out, c)
		}
	}
	return out
}

// depthCmds returns commands filling lane k of len(depths) lanes to
// depths[k], lane by lane.
func depthCmds(depths ...int) []types.Value {
	var out []types.Value
	for lane, depth := range depths {
		out = append(out, laneCmds(lane, len(depths), depth)...)
	}
	return out
}

// canonicalEngine builds an engine (never started) holding cmds,
// submitted in the order given.
func canonicalEngine(t *testing.T, batch, pipeline int, cmds []types.Value) *Engine {
	t.Helper()
	eng, _ := newTestEngine(t, Config{BatchSize: batch, Pipeline: pipeline})
	for _, c := range cmds {
		if err := eng.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// TestLaneOfIsPinned: the lane of a command is part of what replicas must
// agree on, so it may not move with a Go release, a process seed or an
// edit to the trace-ID hash it borrows.
func TestLaneOfIsPinned(t *testing.T) {
	for _, c := range []struct {
		cmd   types.Value
		lanes int
		want  int
	}{
		{"", 4, 1}, {"a", 4, 0}, {"cmd-00000", 4, 2}, {"cmd-00001", 4, 1},
		{"cmd-00000", 3, 1}, {"cmd-00001", 7, 6}, {"anything", 1, 0},
	} {
		if got := laneOf(c.cmd, c.lanes); got != c.want {
			t.Errorf("laneOf(%q, %d) = %d, want %d", c.cmd, c.lanes, got, c.want)
		}
	}
	counts := make([]int, 4)
	for k := 0; k < 4000; k++ {
		counts[laneOf(types.Value(fmt.Sprintf("cmd-%05d", k)), 4)]++
	}
	for lane, n := range counts {
		if n < 900 || n > 1100 {
			t.Errorf("lane %d holds %d of 4000 sequential commands: %v", lane, n, counts)
		}
	}
}

// TestCanonicalBatchIgnoresArrivalOrder: engines that received the same commands in
// different arrival orders propose identical batches in every instance
// (the liveness requirement of live clusters, where forwarded commands
// arrive at each replica in transport order).
func TestCanonicalBatchIgnoresArrivalOrder(t *testing.T) {
	cmds := depthCmds(7, 0, 3, 12)
	a := canonicalEngine(t, 5, 4, cmds)
	for seed := int64(1); seed <= 3; seed++ {
		shuffled := slices.Clone(cmds)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		b := canonicalEngine(t, 5, 4, shuffled)
		for i := types.Instance(0); i < 9; i++ {
			if ba, bb := a.canonicalBatch(i), b.canonicalBatch(i); !slices.Equal(ba, bb) {
				t.Fatalf("seed %d instance %v: %q vs %q", seed, i, ba, bb)
			}
		}
	}
}

// TestCanonicalBatchHomeLaneThenSpill: the batch is the sorted head of
// the home lane, then the sorted heads of the following lanes, up to
// BatchSize.
func TestCanonicalBatchHomeLaneThenSpill(t *testing.T) {
	lanes := make([][]types.Value, 4)
	var cmds []types.Value
	for lane, depth := range []int{2, 9, 0, 3} {
		lanes[lane] = laneCmds(lane, 4, depth)
		slices.Sort(lanes[lane])
		cmds = append(cmds, lanes[lane]...)
	}
	slices.Reverse(cmds)
	eng := canonicalEngine(t, 6, 4, cmds)
	from3 := slices.Concat(lanes[3], lanes[0], lanes[1][:1])
	for i, want := range map[types.Instance][]types.Value{
		0: slices.Concat(lanes[0], lanes[1][:4]), // 2 at home, spill 4
		1: lanes[1][:6],                          // home lane alone fills it
		2: from3,                                 // empty home lane: all spill
		3: from3,                                 // wraps past the last lane
		5: lanes[1][:6],                          // i mod Pipeline, not i
		6: from3,
	} {
		if got := eng.canonicalBatch(i); !slices.Equal(got, want) {
			t.Errorf("instance %v proposes %q, want %q", i, got, want)
		}
	}
}

// TestCanonicalBatchDisjointAtDepth: with every lane at least BatchSize
// deep, the Pipeline instances in flight carry pairwise disjoint batches
// — the pipeline orders P batches, not one batch P times.
func TestCanonicalBatchDisjointAtDepth(t *testing.T) {
	eng := canonicalEngine(t, 8, 4, depthCmds(8, 9, 10, 11))
	for _, first := range []types.Instance{0, 6} {
		seen := map[types.Value]types.Instance{}
		for i := first; i < first+4; i++ {
			batch := eng.canonicalBatch(i)
			if len(batch) != 8 {
				t.Fatalf("instance %v carries %d commands, want 8", i, len(batch))
			}
			for _, c := range batch {
				if j, dup := seen[c]; dup {
					t.Fatalf("instances %v and %v both carry %q", j, i, c)
				}
				seen[c] = i
			}
		}
	}
}

// TestCanonicalBatchShallowCarriesEverything: with at most BatchSize
// commands pending, every instance carries all of them — a lone command
// never waits for its lane's turn.
func TestCanonicalBatchShallowCarriesEverything(t *testing.T) {
	cmds := depthCmds(1, 0, 4, 3)
	for _, set := range [][]types.Value{cmds, cmds[:1], nil} {
		eng := canonicalEngine(t, 8, 4, set)
		want := slices.Clone(set)
		slices.Sort(want)
		for i := types.Instance(0); i < 8; i++ {
			got := eng.canonicalBatch(i)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%d pending: instance %v carries %q", len(set), i, got)
			}
		}
	}
}

// TestCanonicalBatchOneLaneSkew: commands crafted into a single lane (a
// Byzantine client) give every instance that lane's sorted head — the
// shared batch every workload had before lanes, and nothing worse.
func TestCanonicalBatchOneLaneSkew(t *testing.T) {
	cmds := laneCmds(2, 4, 20)
	eng := canonicalEngine(t, 8, 4, cmds)
	slices.Sort(cmds)
	for i := types.Instance(0); i < 8; i++ {
		if got := eng.canonicalBatch(i); !slices.Equal(got, cmds[:8]) {
			t.Fatalf("instance %v carries %q, want %q", i, got, cmds[:8])
		}
	}
}

// TestCanonicalBatchIgnoresInFlight: what this process already proposed,
// and which of it is still undecided, is local timing; a canonical batch
// must not depend on it.
func TestCanonicalBatchIgnoresInFlight(t *testing.T) {
	eng := canonicalEngine(t, 4, 2, depthCmds(6, 6))
	before := [][]types.Value{eng.canonicalBatch(2), eng.canonicalBatch(3)}
	if err := eng.Start(); err != nil { // instances 0 and 1 now in flight
		t.Fatal(err)
	}
	if !slices.Equal(eng.insts[0].ownBatch, before[0]) || !slices.Equal(eng.insts[1].ownBatch, before[1]) {
		t.Fatalf("in-flight batches %q / %q, want %q / %q", eng.insts[0].ownBatch, eng.insts[1].ownBatch, before[0], before[1])
	}
	for k, i := range []types.Instance{2, 3} {
		if got := eng.canonicalBatch(i); !slices.Equal(got, before[k]) {
			t.Fatalf("instance %v: %q with instances in flight, %q without", i, got, before[k])
		}
	}
	// Deciding one frees its lane's head; the other lane's batch stays.
	eng.onInstanceDecided(0, EncodeBatch(before[0]))
	if got := eng.canonicalBatch(3); !slices.Equal(got, before[1]) {
		t.Fatalf("instance 3 after instance 0 committed: %q, want %q", got, before[1])
	}
	if got := eng.insts[2].ownBatch; len(got) != 4 || slices.ContainsFunc(got, func(c types.Value) bool { return slices.Contains(before[0], c) }) {
		t.Fatalf("instance 2 re-proposes committed commands: %q", got)
	}
}

// TestCanonicalPendingBookkeeping: the lanes follow Submit, commit and
// InstallSnapshot, and Pending counts them.
func TestCanonicalPendingBookkeeping(t *testing.T) {
	cmds := depthCmds(3, 2)
	eng := canonicalEngine(t, 8, 2, cmds)
	if err := eng.Submit(cmds[0]); err != nil || eng.Pending() != 5 {
		t.Fatalf("resubmit: err=%v pending=%d, want 5", err, eng.Pending())
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	// A decided batch of a pending, a never-submitted and a repeated command.
	eng.onInstanceDecided(0, EncodeBatch([]types.Value{cmds[1], "elsewhere", cmds[1]}))
	if eng.Pending() != 4 || eng.Committed() != 2 {
		t.Fatalf("pending=%d committed=%d, want 4 and 2", eng.Pending(), eng.Committed())
	}
	if got := eng.canonicalBatch(5); len(got) != 4 || slices.Contains(got, cmds[1]) {
		t.Fatalf("batch after commit: %q", got)
	}
	if err := eng.InstallSnapshot(10, 5, nil); err != nil {
		t.Fatal(err)
	}
	if eng.Pending() != 0 || len(eng.canonicalBatch(12)) != 0 {
		t.Fatalf("install kept %d pending (batch %q)", eng.Pending(), eng.canonicalBatch(12))
	}
	if err := eng.Submit("later"); err != nil || eng.Pending() != 1 || len(eng.canonicalBatch(12)) != 1 {
		t.Fatalf("submit after install: err=%v pending=%d", err, eng.Pending())
	}
}

// BenchmarkVectorFrame: one relay vector of 32 hashed entries — ECHO and
// READY of every origin's CB[0] batch in each of four instances — through
// Engine.OnMessage: Relay.Inbound, the first-message table, value
// resolution, dispatch and every instance's rb layer. Each op delivers it
// to a fresh engine that has learned the four origins' batches from
// their INITs, which is not timed.
func BenchmarkVectorFrame(b *testing.B) {
	params := types.Params{N: 4, T: 1}
	const instances = 4
	var inits []proto.Message
	var entries []rb.Entry
	for _, kind := range []proto.MsgKind{proto.MsgRBEcho, proto.MsgRBReady} {
		for i := types.Instance(0); i < instances; i++ {
			for _, o := range params.AllProcs() {
				batch := EncodeBatch([]types.Value{types.Value(fmt.Sprintf("command %v of origin %v", i, o))})
				if kind == proto.MsgRBEcho {
					inits = append(inits, proto.Message{Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModConsCB0}, Origin: o, Instance: i, Val: batch})
				}
				h := sha256.Sum256([]byte(batch))
				entries = append(entries, rb.Entry{Kind: kind, Tag: proto.Tag{Mod: proto.ModConsCB0}, Origin: o, Instance: i, Hashed: true, Val: types.Value(h[:])})
			}
		}
	}
	enc, err := rb.EncodeEntries(entries)
	if err != nil {
		b.Fatal(err)
	}
	frame := proto.Message{Kind: proto.MsgRBVector, Tag: proto.Tag{Mod: proto.ModRBRelay}, Origin: 2, Val: enc}
	b.ReportAllocs()
	for b.Loop() {
		b.StopTimer()
		eng, err := New(Config{Env: &stubEnv{id: 1, params: params}, Pipeline: instances})
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range inits {
			eng.OnMessage(m.Origin, m)
		}
		b.StartTimer()
		eng.OnMessage(2, frame)
		if eng.Relay().Parked() != 0 || eng.Relay().DupEntries() != 0 {
			b.Fatalf("%d entries parked, %d duplicates: the frame did not resolve", eng.Relay().Parked(), eng.Relay().DupEntries())
		}
	}
}
