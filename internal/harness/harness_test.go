package harness_test

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/types"
)

func TestNewValidation(t *testing.T) {
	// Invalid params.
	if _, err := harness.New(harness.Config{Params: types.Params{N: 3, T: 1, M: 1}}); err == nil {
		t.Error("t ≥ n/3 must be rejected")
	}
	// Topology size mismatch.
	if _, err := harness.New(harness.Config{
		Params:   types.Params{N: 4, T: 1, M: 2},
		Topology: network.FullyAsynchronous(7),
	}); err == nil {
		t.Error("topology/params size mismatch must be rejected")
	}
	// BotOK lifts the m bound.
	if _, err := harness.New(harness.Config{Params: types.Params{N: 4, T: 1, M: 99}, BotOK: true}); err != nil {
		t.Errorf("BotOK config rejected: %v", err)
	}
}

func TestSilentProcessDropsMessages(t *testing.T) {
	w, err := harness.New(harness.Config{Params: types.Params{N: 4, T: 1, M: 2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got []proto.Message
	err = w.SetBehavior(1, func(env proto.Env) proto.Handler {
		env.SetTimer(0, func() {
			env.Send(2, proto.Message{Kind: proto.MsgEAProp2, Tag: proto.Tag{Mod: proto.ModEA, Round: 1}, Val: "x"})
			env.Send(3, proto.Message{Kind: proto.MsgEAProp2, Tag: proto.Tag{Mod: proto.ModEA, Round: 1}, Val: "x"})
		})
		return proto.HandlerFunc(func(types.ProcID, proto.Message) {})
	})
	if err != nil {
		t.Fatal(err)
	}
	err = w.SetBehavior(2, func(env proto.Env) proto.Handler {
		return proto.HandlerFunc(func(from types.ProcID, m proto.Message) { got = append(got, m) })
	})
	if err != nil {
		t.Fatal(err)
	}
	// p3 and p4 get no behavior: crashed from the start; must not panic.
	if r := w.Run(0, 0); r != sim.Drained {
		t.Fatalf("Run = %v", r)
	}
	if len(got) != 1 {
		t.Fatalf("p2 received %d messages, want 1", len(got))
	}
}

func TestSetBehaviorUnknownProcess(t *testing.T) {
	w, err := harness.New(harness.Config{Params: types.Params{N: 4, T: 1, M: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetBehavior(9, func(env proto.Env) proto.Handler {
		return proto.HandlerFunc(func(types.ProcID, proto.Message) {})
	}); err == nil {
		t.Error("unknown process id must be rejected")
	}
}

func TestEnvBasics(t *testing.T) {
	w, err := harness.New(harness.Config{Params: types.Params{N: 4, T: 1, M: 2}, Seed: 1, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []types.ProcID{1, 2, 3, 4} {
		id := id
		if err := w.SetBehavior(id, func(env proto.Env) proto.Handler {
			if env.ID() != id {
				t.Errorf("env.ID() = %v, want %v", env.ID(), id)
			}
			if env.Params().N != 4 {
				t.Errorf("env.Params().N = %d", env.Params().N)
			}
			if env.Trace() == nil {
				t.Error("recorded world: env.Trace() is nil")
			}
			// A zero-cost step is out of input after every delivery: on
			// virtual time the relay's grid stands in for a backlog
			// (docs/rb-coalescing.md, "Flush semantics").
			if _, ok := env.(proto.IdleNotifier); ok {
				t.Error("the virtual-time env must not implement proto.IdleNotifier")
			}
			return proto.HandlerFunc(func(types.ProcID, proto.Message) {})
		}); err != nil {
			t.Fatal(err)
		}
	}
	env := w.Env(1)
	fired := false
	cancel := env.SetTimer(types.Duration(10), func() { fired = true })
	cancel()
	env.SetTimer(types.Duration(20), func() {})
	w.Run(0, 0)
	if fired {
		t.Error("canceled timer fired")
	}
	if w.Sched.Now() != types.Time(20) {
		t.Errorf("Now = %v", w.Sched.Now())
	}
}

func TestBroadcastReachesEveryoneIncludingSelf(t *testing.T) {
	w, err := harness.New(harness.Config{Params: types.Params{N: 4, T: 1, M: 2}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	recv := make(map[types.ProcID]int)
	for _, id := range []types.ProcID{1, 2, 3, 4} {
		id := id
		if err := w.SetBehavior(id, func(env proto.Env) proto.Handler {
			if id == 1 {
				env.SetTimer(0, func() {
					env.Broadcast(proto.Message{Kind: proto.MsgEAProp2, Tag: proto.Tag{Mod: proto.ModEA, Round: 1}, Val: "v"})
				})
			}
			return proto.HandlerFunc(func(from types.ProcID, m proto.Message) { recv[id]++ })
		}); err != nil {
			t.Fatal(err)
		}
	}
	w.Run(0, 0)
	for _, id := range []types.ProcID{1, 2, 3, 4} {
		if recv[id] != 1 {
			t.Errorf("%v received %d, want 1 (broadcast must include self)", id, recv[id])
		}
	}
}

// TestTraceRecording: a recorded world hands its log to every env and
// logs the send and the delivery; an unrecorded one hands out nil and still
// delivers.
func TestTraceRecording(t *testing.T) {
	for _, record := range []bool{true, false} {
		w, err := harness.New(harness.Config{Params: types.Params{N: 4, T: 1, M: 2}, Seed: 3, Record: record})
		if err != nil {
			t.Fatal(err)
		}
		var envLog *trace.Log
		if err := w.SetBehavior(1, func(env proto.Env) proto.Handler {
			envLog = env.Trace()
			env.SetTimer(0, func() {
				env.Send(2, proto.Message{Kind: proto.MsgEAProp2, Tag: proto.Tag{Mod: proto.ModEA, Round: 1}})
			})
			return proto.HandlerFunc(func(types.ProcID, proto.Message) {})
		}); err != nil {
			t.Fatal(err)
		}
		got := 0
		if err := w.SetBehavior(2, func(env proto.Env) proto.Handler {
			return proto.HandlerFunc(func(types.ProcID, proto.Message) { got++ })
		}); err != nil {
			t.Fatal(err)
		}
		w.Run(0, 0)
		if got != 1 {
			t.Errorf("record=%v: p2 got %d messages, want 1", record, got)
		}
		if envLog != w.Log {
			t.Errorf("record=%v: env.Trace() = %p, want the world's log %p", record, envLog, w.Log)
		}
		if !record {
			if envLog != nil {
				t.Error("unrecorded world: env.Trace() must be nil")
			}
			continue
		}
		if len(w.Log.Filter(trace.ByKind(trace.KindSend))) != 1 {
			t.Error("send not traced")
		}
		if len(w.Log.Filter(trace.ByKind(trace.KindDeliver))) != 1 {
			t.Error("deliver not traced")
		}
	}
}

// TestDeliversDuplicatesToHandler: the world applies no first-message
// rule — a repeated identity reaches the handler as often as it was sent,
// and a handler that needs the rule comes wrapped in a proto.Node.
func TestDeliversDuplicatesToHandler(t *testing.T) {
	w, err := harness.New(harness.Config{Params: types.Params{N: 4, T: 1, M: 2}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	msg := proto.Message{Kind: proto.MsgEAProp2, Tag: proto.Tag{Mod: proto.ModEA, Round: 1}, Val: "x"}
	if err := w.SetBehavior(1, func(env proto.Env) proto.Handler {
		env.SetTimer(0, func() {
			env.Send(2, msg)
			env.Send(2, msg) // a duplicate per the first-message rule
		})
		return proto.HandlerFunc(func(types.ProcID, proto.Message) {})
	}); err != nil {
		t.Fatal(err)
	}
	got := 0
	if err := w.SetBehavior(2, func(env proto.Env) proto.Handler {
		return proto.HandlerFunc(func(types.ProcID, proto.Message) { got++ })
	}); err != nil {
		t.Fatal(err)
	}
	w.Run(0, 0)
	if got != 2 {
		t.Errorf("handler got %d deliveries, want both", got)
	}
}
