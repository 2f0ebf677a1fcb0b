package core

import (
	"testing"

	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/types"
)

// haltEnv is a minimal single-process environment for white-box Halt
// tests: sends vanish, timers are recorded but never fire.
type haltEnv struct {
	timers  int
	cancels int
}

var _ proto.Env = (*haltEnv)(nil)

func (e *haltEnv) ID() types.ProcID                      { return 1 }
func (e *haltEnv) Params() types.Params                  { return types.Params{N: 4, T: 1, M: 2} }
func (e *haltEnv) Now() types.Time                       { return 0 }
func (e *haltEnv) Send(to types.ProcID, m proto.Message) {}
func (e *haltEnv) Broadcast(m proto.Message)             {}
func (e *haltEnv) Trace() trace.Sink                     { return trace.Discard{} }
func (e *haltEnv) SetTimer(d types.Duration, fn func()) (cancel func()) {
	e.timers++
	return func() { e.cancels++ }
}

// Counting a DECIDE for a value that already has support allocates
// nothing, up to and including the one that decides.
func TestDecideCountAllocatesNothing(t *testing.T) {
	eng, err := New(Config{Env: &haltEnv{}, TimeUnit: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.onDecide(1, "v")
	from := types.ProcID(2)
	// AllocsPerRun(1, f) calls f twice and counts the second call: p2's
	// DECIDE is the t+1th (forward), p3's the 2t+1th (decide).
	allocs := testing.AllocsPerRun(1, func() {
		eng.onDecide(from, "v")
		from++
	})
	if allocs != 0 {
		t.Fatalf("the deciding DECIDE count allocates %v times", allocs)
	}
	if v, ok := eng.Decision(); !ok || v != "v" || !eng.sentDecide {
		t.Fatalf("decision (%q, %v), sent DECIDE %v", v, ok, eng.sentDecide)
	}
	if allocs := testing.AllocsPerRun(10, func() { eng.onDecide(4, "v") }); allocs != 0 {
		t.Fatalf("a DECIDE count after the decision allocates %v times", allocs)
	}
}

// TestHaltStopsUndecidedEngine: Halt freezes the round loop (reported as
// Stalled) and cancels whatever EA timers are pending, so a retired
// instance schedules no further work.
func TestHaltStopsUndecidedEngine(t *testing.T) {
	env := &haltEnv{}
	eng, err := New(Config{Env: env, BotMode: true, TimeUnit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Propose("v"); err != nil {
		t.Fatal(err)
	}
	eng.Halt()
	if !eng.Stalled() {
		t.Fatal("halted engine not stalled")
	}
	if _, decided := eng.Decision(); decided {
		t.Fatal("halt fabricated a decision")
	}
	// The frozen loop must refuse to start rounds.
	round := eng.Round()
	eng.startRound(round + 1)
	if eng.Round() != round {
		t.Fatal("halted engine started a round")
	}
	// Idempotent.
	cancels := env.cancels
	eng.Halt()
	if env.cancels != cancels {
		t.Fatal("second Halt re-canceled timers")
	}
}

// Propose is one-shot: a second call fails.
func TestProposeTwiceFails(t *testing.T) {
	eng, err := New(Config{Env: &haltEnv{}, TimeUnit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Propose("v"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Propose("w"); err == nil || err.Error() != "core: Propose called twice" {
		t.Fatalf("second propose: %v, want core: Propose called twice", err)
	}
}
