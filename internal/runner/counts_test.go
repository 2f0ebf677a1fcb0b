package runner_test

import (
	"fmt"
	"testing"

	"repro/internal/obs"
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
