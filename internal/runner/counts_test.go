package runner_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/kv"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/types"
)

// TestOneCountPerProcess: every layer keeps its counts only in its
// telemetry cells, so an accessor and its proc="<id>" series are the same
// number, observed or not. kv-snapshot-recover power-cycles a replica
// mid-run; its rebooted incarnation re-acquires the first one's cells, so
// its accessors count the whole process, not just the second boot.
func TestOneCountPerProcess(t *testing.T) {
	s, ok := scenario.Get("kv-snapshot-recover")
	if !ok {
		t.Fatal("kv-snapshot-recover is not registered")
	}
	p, err := scenario.Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	run := func(reg *obs.Registry) *runner.KVResult {
		spec, err := p.KVSpec(1)
		if err != nil {
			t.Fatal(err)
		}
		spec.Obs = reg
		res, err := runner.RunKV(spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	reg := obs.NewRegistry()
	observed, plain := run(reg), run(nil)
	if len(observed.Boots) == 0 {
		t.Fatal("no replica rebooted: the run proves nothing")
	}
	// counts reads replica id's accessors, keyed by the series each reads.
	counts := func(res *runner.KVResult, id types.ProcID) map[string]uint64 {
		eng := res.Engines[id]
		return map[string]uint64{
			"minsync_log_instances_retired_total": uint64(eng.Retired()),
			"minsync_log_dropped_ahead_total":     eng.DroppedAhead(),
			"minsync_log_noop_instances_total":    uint64(eng.NoOps()),
			"minsync_rb_pulls_total":              eng.Relay().Pulls(),
			"minsync_sm_snapshots_total":          uint64(res.Appliers[id].Snapshots()),
			"minsync_transfer_installs_total":     uint64(res.Transfers[id]),
		}
	}
	series := reg.Snapshot().Counters
	for _, id := range observed.Correct {
		label := fmt.Sprintf("proc=%q", fmt.Sprint(id))
		got, unobserved := counts(observed, id), counts(plain, id)
		for name, v := range got {
			if c := series[obs.WithLabels(name, label)]; v != c {
				t.Errorf("replica %v: accessor of %s reads %d, the series %d", id, name, v, c)
			}
			if u := unobserved[name]; u != v {
				t.Errorf("replica %v: accessor of %s reads %d observed, %d unobserved", id, name, v, u)
			}
		}
	}
	for id := range observed.Boots {
		if got := counts(observed, id); got["minsync_sm_snapshots_total"] == 0 || got["minsync_log_instances_retired_total"] == 0 {
			t.Fatalf("rebooted replica %v took no snapshot or retired nothing: %v", id, got)
		}
	}
}

// TestDroppedDuplicatesCounter: Duplicates sums the first-message drops of
// every process, whoever applies the rule — the proto.Node the runner puts
// in front of a single-shot engine or a Byzantine behavior, or a replica's
// log engine, which counts on its proc="<id>" series.
func TestDroppedDuplicatesCounter(t *testing.T) {
	// Process 4 sends one EA_PROP2 twice to process 2 and twice to itself.
	twice := func(env proto.Env) proto.Handler {
		env.SetTimer(0, func() {
			m := proto.Message{Kind: proto.MsgEAProp2, Tag: proto.Tag{Mod: proto.ModEA, Round: 1}, Val: "x"}
			for _, to := range []types.ProcID{2, 2, 4, 4} {
				env.Send(to, m)
			}
		})
		return proto.HandlerFunc(func(types.ProcID, proto.Message) {})
	}
	params := types.Params{N: 4, T: 1, M: 2}
	topo := network.FullySynchronous(4, types.Duration(2*time.Millisecond))
	res, err := runner.Run(runner.Spec{
		Params: params, Topology: topo, Seed: 1,
		Proposals: map[types.ProcID]types.Value{1: "a", 2: "a", 3: "a"},
		Byzantine: map[types.ProcID]harness.Behavior{4: twice},
		Engine:    core.Config{TimeUnit: unit},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duplicates != 2 {
		t.Errorf("single-shot run: Duplicates = %d, want 2", res.Duplicates)
	}

	reg := obs.NewRegistry()
	spec := runner.KVSpec{
		Params: params, Topology: topo, Seed: 1,
		Commands:  []kv.Command{{Client: 1, Seq: 1, Op: kv.OpPut, Key: "k", Val: "v"}},
		Byzantine: map[types.ProcID]harness.Behavior{4: twice},
		Deadline:  types.Time(time.Minute),
		Obs:       reg,
	}
	spec.Log.Engine.TimeUnit = unit
	kres, err := runner.RunKV(spec)
	if err != nil {
		t.Fatal(err)
	}
	if kres.Duplicates != 2 {
		t.Errorf("KV run: Duplicates = %d, want 2", kres.Duplicates)
	}
	series := obs.WithLabels("minsync_dedup_dropped_total", fmt.Sprintf("proc=%q", fmt.Sprint(types.ProcID(2))))
	if got := reg.Snapshot().Counters[series]; got != 1 {
		t.Errorf("%s = %d, want 1", series, got)
	}
}
