// Package repro holds the root module's smoke benchmarks: the
// replicated-log throughput sweeps, a slice of the scenario matrix, the
// design-choice ablations (bench_ablation_test.go) and micro-benchmarks of
// the simulation substrates (event scheduler, combinatorial unranking).
// They catch setup regressions and give working numbers; performance
// claims are made with benchmark/run.sh against BENCHMARK.json, and the
// paper's claims are reproduced by `minsync-sim -exp` (docs/paper-map.md).
//
// Custom metrics reported per op:
//
//	rounds/op   consensus rounds to decision
//	msgs/op     point-to-point messages to completion
//	vtime_ms/op virtual (simulated) time to decision
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/combin"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/kv"
	"repro/internal/network"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/types"
)

// Standard timing of the root benchmarks.
const (
	unit  = types.Duration(10 * time.Millisecond)
	delta = types.Duration(2 * time.Millisecond)
)

// consensusSpec builds a standard full-synchrony consensus spec.
func consensusSpec(n int, seed int64, byz func(id types.ProcID) harness.Behavior) runner.Spec {
	tf := (n - 1) / 3
	p := types.Params{N: n, T: tf, M: 2}
	props := make(map[types.ProcID]types.Value)
	byzm := make(map[types.ProcID]harness.Behavior)
	for i := 1; i <= n; i++ {
		id := types.ProcID(i)
		if byz != nil && i > n-tf {
			byzm[id] = byz(id)
			continue
		}
		v := types.Value("a")
		if i%2 == 0 {
			v = "b"
		}
		props[id] = v
	}
	return runner.Spec{
		Params:    p,
		Topology:  network.FullySynchronous(n, delta),
		Seed:      seed,
		Proposals: props,
		Byzantine: byzm,
		Engine:    core.Config{TimeUnit: unit},
	}
}

// reportRun attaches the custom metrics of one consensus run.
func reportRun(b *testing.B, rounds, msgs, vtimeMS float64) {
	b.ReportMetric(rounds, "rounds/op")
	b.ReportMetric(msgs, "msgs/op")
	b.ReportMetric(vtimeMS, "vtime_ms/op")
}

// --- replicated-log throughput ----------------------------------------------

// logThroughputSpec is the replicated-log throughput workload of
// BenchmarkLogThroughput/BenchmarkLogScaleN: `workload` distinct
// sessionless puts ordered by n full-synchrony replicas of the KV service
// with the given batch size and pipeline depth, snapshots off.
func logThroughputSpec(n, batch, pipeline, workload int, seed int64) runner.KVSpec {
	cmds := make([]kv.Command, workload)
	for i := range cmds {
		cmds[i] = kv.Command{Op: kv.OpPut, Key: fmt.Sprintf("key-%04d", i), Val: "v"}
	}
	spec := runner.KVSpec{
		Params:   types.Params{N: n, T: (n - 1) / 3},
		Topology: network.FullySynchronous(n, delta),
		Seed:     seed,
		Commands: cmds,
		Deadline: types.Time(10 * time.Minute),
	}
	spec.Log.Engine.TimeUnit = unit
	spec.Log.BatchSize = batch
	spec.Log.Pipeline = pipeline
	return spec
}

// BenchmarkLogThroughput: the replicated log under the KV service
// committing a 200-command workload, swept over batch size and pipeline
// depth. The headline metric is cmds_per_sec_v — committed commands per
// second of virtual time; instances/op and msgs_per_cmd/op expose where
// the throughput comes from (fewer consensus instances per command). With
// every lane deeper than a batch, instances/op is what lane-striping
// keeps near 200/batch; it would be pipeline× that without it.
func BenchmarkLogThroughput(b *testing.B) {
	for _, batch := range []int{8, 32} {
		for _, pipeline := range []int{1, 4} {
			b.Run(fmt.Sprintf("batch=%d/pipeline=%d", batch, pipeline), func(b *testing.B) {
				var last *runner.KVResult
				for i := 0; i < b.N; i++ {
					res, err := runner.RunKV(logThroughputSpec(4, batch, pipeline, 200, int64(i)))
					if err != nil {
						b.Fatal(err)
					}
					if !res.CoveredAll() {
						b.Fatalf("only %d/200 commands committed", res.MinCovered())
					}
					if !res.Consistent() {
						b.Fatal("logs inconsistent")
					}
					last = res
				}
				vsec := time.Duration(last.End).Seconds()
				b.ReportMetric(200/vsec, "cmds_per_sec_v")
				var insts types.Instance
				for _, id := range last.Correct {
					if a := last.Engines[id].Applied(); a > insts {
						insts = a
					}
				}
				b.ReportMetric(float64(insts), "instances/op")
				b.ReportMetric(float64(last.Messages)/200, "msgs_per_cmd/op")
			})
		}
	}
}

// BenchmarkLogScaleN: log throughput as the system grows, up to n=100
// (t=33). Message complexity grows ~n³ per instance, so the command
// workload shrinks with n to keep single ops in benchmark territory —
// cmds_per_sec_v is normalized per virtual second and msgs_per_cmd/op per
// command, so cells stay comparable. docs/rb-coalescing.md records what
// the n=100 cell measured before the relay carried its ECHO/READY
// traffic. Run large sizes with -benchtime 1x; -short skips them.
func BenchmarkLogScaleN(b *testing.B) {
	for _, c := range []struct{ n, workload int }{
		{4, 200}, {7, 200}, {16, 64}, {31, 64}, {100, 16},
	} {
		n, workload := c.n, c.workload
		if testing.Short() && n > 7 {
			continue
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var last *runner.KVResult
			for i := 0; i < b.N; i++ {
				res, err := runner.RunKV(logThroughputSpec(n, 16, 4, workload, int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				if !res.CoveredAll() {
					b.Fatalf("only %d/%d committed", res.MinCovered(), workload)
				}
				last = res
			}
			vsec := time.Duration(last.End).Seconds()
			b.ReportMetric(float64(workload)/vsec, "cmds_per_sec_v")
			b.ReportMetric(float64(last.Messages)/float64(workload), "msgs_per_cmd/op")
		})
	}
}

// BenchmarkScheduler: raw event throughput of the simulation kernel.
func BenchmarkScheduler(b *testing.B) {
	b.ReportAllocs()
	s := sim.NewScheduler(1)
	n := 0
	var spawn func()
	spawn = func() {
		n++
		if n < b.N {
			s.After(types.Duration(n%100), spawn)
		}
	}
	s.After(0, spawn)
	s.Run(0, 0)
	if n == 0 {
		b.Fatal("no events ran")
	}
}

// fsetSink keeps the F-set benchmarks' lookups from being optimized away.
var fsetSink types.ProcSet

// BenchmarkUnrank: F(r) computation cost (lexicographic unranking) at
// the middle rank of each C(n,k).
func BenchmarkUnrank(b *testing.B) {
	for _, size := range []struct{ n, k int }{{7, 5}, {13, 9}, {31, 21}} {
		b.Run(fmt.Sprintf("C(%d,%d)", size.n, size.k), func(b *testing.B) {
			plan, err := combin.NewRoundPlan(size.n, size.k)
			if err != nil {
				b.Fatal(err)
			}
			// α = C(n,k) is the bound α·n over n; F has rank α/2 in
			// block α/2.
			alpha := plan.WorstCaseRounds() / uint64(size.n)
			r := types.Round(alpha/2*uint64(size.n) + 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fsetSink = plan.FSet(r)
			}
		})
	}
}

// BenchmarkRoundPlanF: the per-round F(r) lookup the EA object makes on
// every round entry, at n=13 and at n=100, whose α = C(100,67) does not
// fit in 64 bits.
func BenchmarkRoundPlanF(b *testing.B) {
	for _, size := range []struct{ n, k int }{{13, 9}, {100, 67}} {
		b.Run(fmt.Sprintf("C(%d,%d)", size.n, size.k), func(b *testing.B) {
			plan, err := combin.NewRoundPlan(size.n, size.k)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fsetSink = plan.FSet(types.Round(i + 1))
			}
		})
	}
}

// BenchmarkScenarioMatrix: one full scenario execution per op over a
// representative slice of the registry — benign, Byzantine, adversarially
// scheduled and replicated-log cells — so consensus and log throughput
// under hostile schedules land in the perf trajectory alongside the
// microbenchmarks. Each op uses a fresh seed: the matrix explores
// executions rather than replaying one.
func BenchmarkScenarioMatrix(b *testing.B) {
	for _, name := range []string{
		"baseline-sync",
		"sync-equivocate",
		"sync-spam",
		"bisource-minimal",
		"partition-heal",
		"reorder-storm",
		"log-baseline",
		"log-deep-pipeline",
	} {
		s, ok := scenario.Get(name)
		if !ok {
			b.Fatalf("scenario %q not registered", name)
		}
		b.Run(name, func(b *testing.B) {
			var msgs, vtime float64
			for i := 0; i < b.N; i++ {
				o, err := scenario.Run(s, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				if !o.Pass {
					b.Fatalf("seed %d failed:\n%s", i+1, o.Report)
				}
				msgs += float64(o.Messages)
				vtime += float64(o.End.Milliseconds())
			}
			b.ReportMetric(msgs/float64(b.N), "msgs/op")
			b.ReportMetric(vtime/float64(b.N), "vtime_ms/op")
		})
	}
}
