// Package repro holds the repository-level benchmark harness: one
// benchmark per reproduction experiment of EXPERIMENTS.md (the paper is a
// theory paper, so the "tables and figures" are its analytical claims —
// see DESIGN.md §4 for the experiment ↔ claim mapping), plus
// micro-benchmarks of the hot substrates (wire codec, event scheduler,
// combinatorial unranking).
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
	"math/big"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/combin"
	"repro/internal/core"
	"repro/internal/ea"
	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/wire"
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
		Topology:  network.FullySynchronous(n, exp.Delta),
		Seed:      seed,
		Proposals: props,
		Byzantine: byzm,
		Engine:    core.Config{TimeUnit: exp.Unit},
	}
}

// reportRun attaches the custom metrics of one consensus run.
func reportRun(b *testing.B, rounds, msgs, vtimeMS float64) {
	b.ReportMetric(rounds, "rounds/op")
	b.ReportMetric(msgs, "msgs/op")
	b.ReportMetric(vtimeMS, "vtime_ms/op")
}

// BenchmarkE1RB: one full reliable-broadcast wave (correct sender) per op.
func BenchmarkE1RB(b *testing.B) {
	for _, n := range []int{4, 7, 10} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := types.Params{N: n, T: (n - 1) / 3, M: 1}
			var msgs uint64
			for i := 0; i < b.N; i++ {
				ok, _, sent := exp.RBWave(p, "correct", int64(i))
				if !ok {
					b.Fatal("RB wave failed")
				}
				msgs = sent
			}
			b.ReportMetric(float64(msgs), "msgs/op")
		})
	}
}

// BenchmarkE2CB: one cooperative-broadcast instance (with colluding
// Byzantine value) per op.
func BenchmarkE2CB(b *testing.B) {
	for _, n := range []int{4, 7, 10} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := types.Params{N: n, T: (n - 1) / 3, M: 2}
			for i := 0; i < b.N; i++ {
				ret, excl, _ := exp.CBWave(p, int64(i))
				if !ret || !excl {
					b.Fatal("CB wave failed")
				}
			}
		})
	}
}

// BenchmarkE3AC: one adopt-commit instance (split inputs) per op.
func BenchmarkE3AC(b *testing.B) {
	for _, n := range []int{4, 7} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := types.Params{N: n, T: (n - 1) / 3, M: 2}
			for i := 0; i < b.N; i++ {
				term, quasi, _ := exp.ACWave(p, false, int64(i))
				if !term || !quasi {
					b.Fatal("AC wave failed")
				}
			}
		})
	}
}

// BenchmarkE4EA: one EA round under the fast-path attack scenario per op
// (FastPathContinue semantics, which terminate).
func BenchmarkE4EA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		returned, _ := exp.EAScenario(ea.FastPathContinue, int64(i))
		if len(returned) != 3 {
			b.Fatal("EA round failed")
		}
	}
}

// BenchmarkE5Consensus: full consensus, mixed inputs, equivocating
// Byzantine processes, per system size.
func BenchmarkE5Consensus(b *testing.B) {
	for _, n := range []int{4, 7, 10, 13} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var last *runner.Result
			for i := 0; i < b.N; i++ {
				spec := consensusSpec(n, int64(i), func(types.ProcID) harness.Behavior {
					return adversary.Equivocator(core.Config{TimeUnit: exp.Unit}, [2]types.Value{"a", "b"})
				})
				res, err := runner.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				if !res.AllDecided() {
					b.Fatal("no decision")
				}
				last = res
			}
			reportRun(b, float64(last.MaxDecideRound()), float64(last.Messages), float64(last.MaxDecideTime())/1e6)
		})
	}
}

// BenchmarkE6Feasibility: the feasible boundary case m = MaxM per op.
func BenchmarkE6Feasibility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := consensusSpec(7, int64(i), nil)
		res, err := runner.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllDecided() {
			b.Fatal("no decision at the feasibility boundary")
		}
	}
}

// BenchmarkE7AlphaN: minimal-bisource topology under the splitter
// adversary — the α·n bound workload.
func BenchmarkE7AlphaN(b *testing.B) {
	for _, n := range []int{4, 7} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := types.Params{N: n, T: (n - 1) / 3, M: 2}
			var last *runner.Result
			for i := 0; i < b.N; i++ {
				res, err := runner.Run(exp.SplitterDuelSpec(p, int64(i), ea.RelayAnyF, types.ProcID(n)))
				if err != nil {
					b.Fatal(err)
				}
				if !res.AllDecided() {
					b.Fatal("no decision under minimal synchrony")
				}
				last = res
			}
			reportRun(b, float64(last.MaxDecideRound()), float64(last.Messages), float64(last.MaxDecideTime())/1e6)
		})
	}
}

// BenchmarkE8KSweep: the §5.4 tuning parameter k.
func BenchmarkE8KSweep(b *testing.B) {
	p := types.Params{N: 7, T: 2, M: 2}
	for k := 0; k <= p.T; k++ {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var last *runner.Result
			for i := 0; i < b.N; i++ {
				spec := consensusSpec(7, int64(i), nil)
				spec.Engine.K = k
				res, err := runner.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				if !res.AllDecided() {
					b.Fatal("no decision")
				}
				last = res
			}
			bound, _ := combin.NewRoundPlan(p.N, p.Quorum()+k)
			b.ReportMetric(float64(bound.WorstCaseRounds()), "bound_rounds")
			reportRun(b, float64(last.MaxDecideRound()), float64(last.Messages), float64(last.MaxDecideTime())/1e6)
		})
	}
}

// BenchmarkE9FastPath: the two line-4 semantics on the stall scenario.
// Literal mode leaves p4 blocked (fewer deliveries, fewer messages);
// continue mode terminates everyone.
func BenchmarkE9FastPath(b *testing.B) {
	for _, mode := range []struct {
		name string
		m    ea.FastPathMode
		want int
	}{
		{"literal", ea.FastPathReturnOnly, 2},
		{"continue", ea.FastPathContinue, 3},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var msgs uint64
			for i := 0; i < b.N; i++ {
				returned, sent := exp.EAScenario(mode.m, int64(i))
				if len(returned) != mode.want {
					b.Fatalf("returned %d, want %d", len(returned), mode.want)
				}
				msgs = sent
			}
			b.ReportMetric(float64(msgs), "msgs/op")
		})
	}
}

// BenchmarkE10Minimality: paper vs strong-relay baseline under minimal
// synchrony. The baseline runs to its round cap (no decision).
func BenchmarkE10Minimality(b *testing.B) {
	p := types.Params{N: 4, T: 1, M: 2}
	b.Run("paper", func(b *testing.B) {
		var last *runner.Result
		for i := 0; i < b.N; i++ {
			res, err := runner.Run(exp.SplitterDuelSpec(p, int64(i), ea.RelayAnyF, 4))
			if err != nil {
				b.Fatal(err)
			}
			if !res.AllDecided() {
				b.Fatal("paper algorithm must decide")
			}
			last = res
		}
		reportRun(b, float64(last.MaxDecideRound()), float64(last.Messages), float64(last.MaxDecideTime())/1e6)
	})
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spec := exp.SplitterDuelSpec(p, int64(i), ea.RelayQuorum, 4)
			spec.Engine.MaxRounds = 16 // keep the stalling run bounded
			res, err := runner.Run(spec)
			if err != nil {
				b.Fatal(err)
			}
			if res.AllDecided() {
				b.Fatal("baseline should not decide under minimal synchrony")
			}
		}
	})
}

// BenchmarkE11Messages: message complexity growth with n.
func BenchmarkE11Messages(b *testing.B) {
	for _, n := range []int{4, 7, 10, 13} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var msgs uint64
			for i := 0; i < b.N; i++ {
				res, err := runner.Run(consensusSpec(n, int64(i), nil))
				if err != nil {
					b.Fatal(err)
				}
				if !res.AllDecided() {
					b.Fatal("no decision")
				}
				msgs = res.Messages
			}
			b.ReportMetric(float64(msgs), "msgs/op")
			b.ReportMetric(float64(msgs)/float64(n*n*n), "msgs_per_n3/op")
		})
	}
}

// BenchmarkE12BotVariant: the §7 ⊥-default variant on a full split.
func BenchmarkE12BotVariant(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := runner.Spec{
			Params:    types.Params{N: 4, T: 1, M: 4},
			Topology:  network.FullySynchronous(4, exp.Delta),
			Seed:      int64(i),
			Proposals: map[types.ProcID]types.Value{1: "w", 2: "x", 3: "y", 4: "z"},
			Engine:    core.Config{TimeUnit: exp.Unit, BotMode: true},
		}
		res, err := runner.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		v, ok := res.CommonDecision()
		if !ok || v != types.BotValue {
			b.Fatalf("full split must decide ⊥, got %q (%v)", v, ok)
		}
	}
}

// BenchmarkGSTSweep: one ◇bisource run with GST = 500ms per op (the
// figure-style latency series is produced by cmd/minsync-exp -exp GST).
func BenchmarkGSTSweep(b *testing.B) {
	gst := types.Time(500 * time.Millisecond)
	var last *runner.Result
	for i := 0; i < b.N; i++ {
		topo := network.PlantBisource(4, network.BisourceSpec{
			P: 2, In: []types.ProcID{1}, Out: []types.ProcID{3}, GST: gst, Delta: exp.Delta,
		})
		spec := runner.Spec{
			Params:    types.Params{N: 4, T: 1, M: 2},
			Topology:  topo,
			Policy:    network.UniformDelay{Min: types.Duration(5 * time.Millisecond), Max: types.Duration(60 * time.Millisecond)},
			Seed:      int64(i),
			Proposals: map[types.ProcID]types.Value{1: "a", 2: "b", 3: "a"},
			Byzantine: map[types.ProcID]harness.Behavior{4: adversary.RBRelayOnly()},
			Engine:    core.Config{TimeUnit: exp.Unit, MaxRounds: 500},
		}
		res, err := runner.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllDecided() {
			b.Fatal("no decision after GST")
		}
		last = res
	}
	reportRun(b, float64(last.MaxDecideRound()), float64(last.Messages), float64(last.MaxDecideTime())/1e6)
}

// --- replicated-log throughput ----------------------------------------------

// logThroughputSpec builds a replicated-log workload of `workload`
// commands (the canonical builder lives in exp).
func logThroughputSpec(n, batch, pipeline, workload int, seed int64) runner.LogSpec {
	return exp.LogWorkloadSpec(n, batch, pipeline, workload, seed)
}

// BenchmarkLogThroughput: the replicated-log engine committing a
// 200-command workload, swept over batch size and pipeline depth. The
// headline metric is cmds_per_sec_v — committed commands per second of
// virtual time; instances/op and msgs_per_cmd/op expose where the
// throughput comes from (fewer consensus instances per command). The
// canonical cell is the live engine setting (CanonicalBatches + Coalesce)
// with every lane deeper than a batch: its instances/op is what
// lane-striping keeps near 200/32 and would be P× that without it.
func BenchmarkLogThroughput(b *testing.B) {
	for _, batch := range []int{8, 32} {
		for _, pipeline := range []int{1, 4} {
			b.Run(fmt.Sprintf("batch=%d/pipeline=%d", batch, pipeline), func(b *testing.B) {
				benchLogThroughput(b, func(seed int64) runner.LogSpec {
					return logThroughputSpec(4, batch, pipeline, 200, seed)
				})
			})
		}
	}
	b.Run("canonical/batch=32/pipeline=4", func(b *testing.B) {
		benchLogThroughput(b, func(seed int64) runner.LogSpec {
			spec := exp.CoalescedLogWorkloadSpec(4, 32, 4, 200, seed)
			spec.Log.CanonicalBatches = true
			return spec
		})
	})
}

// benchLogThroughput runs one BenchmarkLogThroughput cell: the spec of
// iteration i is specFor(i), over 200 commands.
func benchLogThroughput(b *testing.B, specFor func(seed int64) runner.LogSpec) {
	var last *runner.LogResult
	for i := 0; i < b.N; i++ {
		res, err := runner.RunLog(specFor(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllCommitted(200) {
			b.Fatalf("only %d/200 commands committed", res.MinCommitted())
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
}

// BenchmarkLogThroughputObs is BenchmarkLogThroughput with a live obs
// registry attached (per-replica log/RB/dedup bundles plus the shared
// commit-latency histogram) — identical sub-benchmark names so benchstat
// can diff the two directly after `sed s/LogThroughputObs/LogThroughput/`.
// CI's telemetry-overhead guard runs exactly that comparison and warns
// when the instrumented run regresses beyond noise (~3%).
func BenchmarkLogThroughputObs(b *testing.B) {
	for _, batch := range []int{8, 32} {
		for _, pipeline := range []int{1, 4} {
			batch, pipeline := batch, pipeline
			b.Run(fmt.Sprintf("batch=%d/pipeline=%d", batch, pipeline), func(b *testing.B) {
				reg := obs.NewRegistry()
				for i := 0; i < b.N; i++ {
					spec := logThroughputSpec(4, batch, pipeline, 200, int64(i))
					spec.Obs = reg
					res, err := runner.RunLog(spec)
					if err != nil {
						b.Fatal(err)
					}
					if !res.AllCommitted(200) {
						b.Fatalf("only %d/200 commands committed", res.MinCommitted())
					}
				}
				if obs.NewCommitLatency(reg).Count() == 0 {
					b.Fatal("registry attached but no commit latency observed")
				}
			})
		}
	}
}

// BenchmarkLogThroughputTraced is BenchmarkLogThroughput with causal
// command tracing attached (internal/xtrace: per-command spans, flight
// recorder, stage histograms) on top of a live obs registry — identical
// sub-benchmark names so benchstat can diff against the baseline after
// `sed s/LogThroughputTraced/LogThroughput/`. CI's tracing-overhead
// guard runs exactly that comparison, warn-only at ~3%.
func BenchmarkLogThroughputTraced(b *testing.B) {
	for _, batch := range []int{8, 32} {
		for _, pipeline := range []int{1, 4} {
			batch, pipeline := batch, pipeline
			b.Run(fmt.Sprintf("batch=%d/pipeline=%d", batch, pipeline), func(b *testing.B) {
				reg := obs.NewRegistry()
				spans := 0
				for i := 0; i < b.N; i++ {
					spec := logThroughputSpec(4, batch, pipeline, 200, int64(i))
					spec.Obs = reg
					spec.Trace = &runner.TraceSpec{}
					res, err := runner.RunLog(spec)
					if err != nil {
						b.Fatal(err)
					}
					if !res.AllCommitted(200) {
						b.Fatalf("only %d/200 commands committed", res.MinCommitted())
					}
					for _, d := range res.TraceDumps("bench") {
						spans += int(d.Total)
					}
				}
				if spans == 0 {
					b.Fatal("tracing attached but no spans recorded")
				}
			})
		}
	}
}

// BenchmarkLogScaleN: log throughput as the system grows, up to n=100
// (t=33). Message complexity grows ~n³ per instance, so the command
// workload shrinks with n to keep single ops in benchmark territory —
// cmds_per_sec_v is normalized per virtual second and msgs_per_cmd/op per
// command, so cells stay comparable. The n=100 cell still moves ~15M
// messages per op: run large sizes with -benchtime 1x; -short skips them.
func BenchmarkLogScaleN(b *testing.B) {
	for _, c := range []struct{ n, workload int }{
		{4, 200}, {7, 200}, {16, 64}, {31, 64}, {100, 16},
	} {
		n, workload := c.n, c.workload
		if testing.Short() && n > 7 {
			continue
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var last *runner.LogResult
			for i := 0; i < b.N; i++ {
				res, err := runner.RunLog(logThroughputSpec(n, 16, 4, workload, int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				if !res.AllCommitted(workload) {
					b.Fatalf("only %d/%d committed", res.MinCommitted(), workload)
				}
				last = res
			}
			vsec := time.Duration(last.End).Seconds()
			b.ReportMetric(float64(workload)/vsec, "cmds_per_sec_v")
			b.ReportMetric(float64(last.Messages)/float64(workload), "msgs_per_cmd/op")
		})
	}
}

// BenchmarkLogScaleNCoalesce: the large BenchmarkLogScaleN cells with the
// reliable-broadcast coalescing relay ON (log.Config.Coalesce) — the
// message-complexity fast path that batches cross-instance ECHO/READY
// traffic into vector frames and references values by hash. Compare
// msgs_per_cmd/op and deliveries/op against the same-n cells of
// BenchmarkLogScaleN for the coalescing factor. The n=31 cell runs in CI;
// n=100 is nightly territory (-short skips it).
func BenchmarkLogScaleNCoalesce(b *testing.B) {
	for _, c := range []struct{ n, workload int }{
		{31, 64}, {100, 16},
	} {
		n, workload := c.n, c.workload
		if testing.Short() && n > 31 {
			continue
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var last *runner.LogResult
			for i := 0; i < b.N; i++ {
				res, err := runner.RunLog(exp.CoalescedLogWorkloadSpec(n, 16, 4, workload, int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				if !res.AllCommitted(workload) {
					b.Fatalf("only %d/%d committed", res.MinCommitted(), workload)
				}
				last = res
			}
			vsec := time.Duration(last.End).Seconds()
			b.ReportMetric(float64(workload)/vsec, "cmds_per_sec_v")
			b.ReportMetric(float64(last.Messages)/float64(workload), "msgs_per_cmd/op")
			b.ReportMetric(float64(last.Deliveries())/float64(workload), "deliveries_per_cmd/op")
		})
	}
}

// --- substrate micro-benchmarks ---------------------------------------------

// BenchmarkWireEncode / BenchmarkWireDecode: the codec hot path.
func BenchmarkWireEncode(b *testing.B) {
	m := proto.Message{
		Kind: proto.MsgRBEcho, Tag: proto.Tag{Mod: proto.ModACEst, Round: 42},
		Origin: 7, Val: "some-consensus-proposal-value",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Encode(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecode decodes the same frame repeatedly.
func BenchmarkWireDecode(b *testing.B) {
	m := proto.Message{
		Kind: proto.MsgRBEcho, Tag: proto.Tag{Mod: proto.ModACEst, Round: 42},
		Origin: 7, Val: "some-consensus-proposal-value",
	}
	buf, err := wire.Encode(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Decode(buf); err != nil {
			b.Fatal(err)
		}
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

// BenchmarkUnrank: F(r) computation cost (lexicographic unranking).
func BenchmarkUnrank(b *testing.B) {
	for _, size := range []struct{ n, k int }{{7, 5}, {13, 9}, {31, 21}} {
		size := size
		b.Run(fmt.Sprintf("C(%d,%d)", size.n, size.k), func(b *testing.B) {
			total := combin.BigBinomial(size.n, size.k)
			rank := new(big.Int).Rsh(total, 1) // middle of the range
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := combin.Unrank(size.n, size.k, rank); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRoundPlanF: the per-round coordinator+F(r) lookup used by the
// EA object on every round entry.
func BenchmarkRoundPlanF(b *testing.B) {
	plan, err := combin.NewRoundPlan(13, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = plan.F(types.Round(i + 1))
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

// BenchmarkKVService: the full replicated-KV stack (log → applier →
// sessions) committing a 240-command workload, with and without
// snapshot-driven log compaction. The retained_insts/op metric is the
// bounded-state story: with compaction the per-instance state held at the
// end of the run is a small constant margin instead of the whole history
// (retired_insts/op shows what was freed wholesale).
func BenchmarkKVService(b *testing.B) {
	const workload = 240
	for _, compact := range []bool{false, true} {
		compact := compact
		b.Run(fmt.Sprintf("compact=%v", compact), func(b *testing.B) {
			var live, retired float64
			for i := 0; i < b.N; i++ {
				spec := exp.KVWorkloadSpec(4, workload, int64(i+1))
				if !compact {
					spec.SnapshotEvery = 0
					spec.Compact = false
				}
				res, err := runner.RunKV(spec)
				if err != nil {
					b.Fatal(err)
				}
				if !res.StatesAgree() {
					b.Fatal("state digests disagree")
				}
				eng := res.Engines[res.Correct[0]]
				live = float64(eng.Instances())
				retired = float64(eng.Retired())
			}
			b.ReportMetric(live, "retained_insts/op")
			b.ReportMetric(retired, "retired_insts/op")
		})
	}
}
