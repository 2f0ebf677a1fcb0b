package log

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/proto"
	"repro/internal/types"
)

// TestCanonicalLanesConvergeUnderSkew runs four canonical, coalesced
// engines on the deterministic kernel under everything that makes pending
// sets differ between replicas for a while: each replica receives the
// same 240 commands in its own shuffled order, a third of them spread
// over the first milliseconds with a per-replica offset, and each replica
// starts with one command of lane 2 that the others only learn of 20–30
// ms later — so instance 2 carries four different batches and decides ⊥.
// The lane rule must then converge: every command commits at every
// replica, in one order, and the commands instance 2 failed to order
// commit in one of the next instances instead of waiting behind the rest
// of the queue.
func TestCanonicalLanesConvergeUnderSkew(t *testing.T) {
	const (
		pipeline, batch = 4, 8
		botLane         = 2
		early           = 160 // commands every replica holds at Start
	)
	params := types.Params{N: 4, T: 1}
	common := make([]types.Value, 240)
	for k := range common {
		common[k] = types.Value(fmt.Sprintf("cmd-%05d", k))
	}
	// own[r] sorts ahead of every common command in lane botLane, so it
	// is in replica r's first batch of that lane and in nobody else's.
	own := make(map[types.ProcID]types.Value)
	for _, id := range params.AllProcs() {
		for k := 0; own[id] == ""; k++ {
			if c := types.Value(fmt.Sprintf("!skew-%v-%d", id, k)); laneOf(c, pipeline) == botLane {
				own[id] = c
			}
		}
	}
	total := len(common) + len(own)

	w, err := harness.New(harness.Config{
		Params:   params,
		Topology: network.FullySynchronous(params.N, types.Duration(2*time.Millisecond)),
		Seed:     7,
		BotOK:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	engines := make(map[types.ProcID]*Engine)
	logs := make(map[types.ProcID][]Entry)
	firstBatch := make(map[types.ProcID][]types.Value) // instance botLane's proposal
	for _, id := range params.AllProcs() {
		err := w.SetBehavior(id, func(env proto.Env) proto.Handler {
			var eng *Engine
			cfg := Config{
				Env: env, BatchSize: batch, Pipeline: pipeline,
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
			submit := func(c types.Value) func() {
				return func() {
					if err := eng.Submit(c); err != nil {
						t.Errorf("replica %v: submit %q: %v", id, c, err)
					}
				}
			}
			order := rand.New(rand.NewSource(int64(id))).Perm(len(common))
			for pos, k := range order {
				at := types.Duration(0)
				if k >= early {
					at = types.Duration(5*time.Millisecond + time.Duration(id)*700*time.Microsecond + time.Duration(pos)*100*time.Microsecond)
				}
				env.SetTimer(at, submit(common[k]))
			}
			for _, r := range params.AllProcs() {
				at := types.Duration(0)
				if r != id {
					at = types.Duration(20*time.Millisecond + time.Duration(id+r)*time.Millisecond)
				}
				env.SetTimer(at, submit(own[r]))
			}
			env.SetTimer(0, func() {
				if err := eng.Start(); err != nil {
					t.Errorf("replica %v: start: %v", id, err)
				}
				firstBatch[id] = slices.Clone(eng.insts[botLane].ownBatch)
			})
			return eng
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	w.Run(types.Time(time.Minute), 0)

	for _, id := range params.AllProcs() {
		if got := firstBatch[id]; len(got) != batch || got[0] != own[id] {
			t.Fatalf("replica %v proposed %q in instance %d, want its own skew command first", id, got, botLane)
		}
		if len(logs[id]) != total {
			t.Fatalf("replica %v committed %d of %d commands (applied %v, pending %d)",
				id, len(logs[id]), total, engines[id].Applied(), engines[id].Pending())
		}
		if !slices.Equal(logs[id], logs[1]) {
			t.Fatalf("replica %v and replica 1 committed different logs", id)
		}
	}
	at := make(map[types.Value]types.Instance, total)
	for _, e := range logs[1] {
		if _, dup := at[e.Cmd]; dup {
			t.Fatalf("%q committed twice", e.Cmd)
		}
		at[e.Cmd] = e.Instance
		if e.Instance == botLane {
			t.Fatalf("instance %d was to decide ⊥ but committed %q", botLane, e.Cmd)
		}
	}
	// The failed batches commit within a few turns of their lane, not the
	// ~8 turns its queue is deep: once the four skew commands are known
	// everywhere they and the eight commands behind them head the lane,
	// which is two batches; the third turn allows for one more ⊥ should
	// instances ever decide faster than the skew resolves.
	const k = 3
	for id, cmds := range firstBatch {
		for _, c := range cmds {
			if at[c] > botLane+pipeline*k {
				t.Errorf("replica %v: %q of the ⊥ batch committed only in instance %v (> %d)", id, c, at[c], botLane+pipeline*k)
			}
		}
	}
	if noops := engines[1].NoOps(); noops >= int(engines[1].Applied())/2 {
		t.Errorf("%d of %v instances committed nothing: the lanes did not converge, they limped", noops, engines[1].Applied())
	}
	t.Logf("%d commands in %v instances, %d no-ops", total, engines[1].Applied(), engines[1].NoOps())
}
