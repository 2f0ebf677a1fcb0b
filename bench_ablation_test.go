// Ablation benchmarks for the implementation's design choices: the
// fast-path semantics, the relay acceptance rule, per-channel FIFO, trace
// recording overhead, and the first-message deduplication layer under
// spam. These quantify what each choice costs or saves on the same
// consensus workload.
package repro

import (
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/ea"
	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/runner"
	"repro/internal/types"
)

// BenchmarkAblationFastPath compares the two line-4 semantics on a benign
// workload (both terminate; the question is message overhead of the extra
// timers/relays that FastPathContinue arms).
func BenchmarkAblationFastPath(b *testing.B) {
	for _, mode := range []struct {
		name string
		m    ea.FastPathMode
	}{
		{"literal", ea.FastPathReturnOnly},
		{"continue", ea.FastPathContinue},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var msgs uint64
			for i := 0; i < b.N; i++ {
				spec := consensusSpec(7, int64(i), nil)
				spec.Engine.Mode = mode.m
				res, err := runner.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				if !res.AllDecided() {
					b.Fatal("no decision")
				}
				msgs = res.Messages
			}
			b.ReportMetric(float64(msgs), "msgs/op")
		})
	}
}

// BenchmarkAblationRelayRule compares RelayAnyF vs RelayQuorum on full
// synchrony, where both decide (the liveness difference only shows under
// minimal synchrony — experiment E10).
func BenchmarkAblationRelayRule(b *testing.B) {
	for _, rule := range []struct {
		name string
		r    ea.RelayRule
	}{
		{"anyF", ea.RelayAnyF},
		{"quorum", ea.RelayQuorum},
	} {
		rule := rule
		b.Run(rule.name, func(b *testing.B) {
			var last *runner.Result
			for i := 0; i < b.N; i++ {
				spec := consensusSpec(7, int64(i), nil)
				spec.Engine.Relay = rule.r
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

// BenchmarkAblationFIFO measures the cost/effect of per-channel FIFO
// delivery (the abstract model does not require it; TCP provides it).
func BenchmarkAblationFIFO(b *testing.B) {
	for _, fifo := range []bool{false, true} {
		fifo := fifo
		name := "unordered"
		if fifo {
			name = "fifo"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := consensusSpec(7, int64(i), nil)
				spec.FIFO = fifo
				res, err := runner.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				if !res.AllDecided() {
					b.Fatal("no decision")
				}
			}
		})
	}
}

// BenchmarkAblationTraceRecording quantifies the trace log's overhead
// (benchmarks normally run trace-free; checkers need the log).
func BenchmarkAblationTraceRecording(b *testing.B) {
	for _, record := range []bool{false, true} {
		record := record
		name := "off"
		if record {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spec := consensusSpec(7, int64(i), nil)
				spec.Record = record
				res, err := runner.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				if !res.AllDecided() {
					b.Fatal("no decision")
				}
			}
		})
	}
}

// BenchmarkAblationDedupUnderSpam shows what the first-message rule
// absorbs: a spamming Byzantine process triples its EA traffic; the
// duplicates metric counts what the rule discarded.
func BenchmarkAblationDedupUnderSpam(b *testing.B) {
	var dups, msgs uint64
	for i := 0; i < b.N; i++ {
		spec := consensusSpec(7, int64(i), func(types.ProcID) harness.Behavior {
			return adversary.SpamStreams("zzz", 40)
		})
		res, err := runner.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllDecided() {
			b.Fatal("no decision under spam")
		}
		dups, msgs = res.Duplicates, res.Messages
	}
	b.ReportMetric(float64(dups), "dups_dropped/op")
	b.ReportMetric(float64(msgs), "msgs/op")
}

// BenchmarkAblationTimeUnit sweeps the EA timer unit: too small and
// timers expire before coordination lands (wasted ⊥ relays); large units
// only matter when the coordinator is faulty.
func BenchmarkAblationTimeUnit(b *testing.B) {
	for _, unit := range []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond} {
		unit := unit
		b.Run(unit.String(), func(b *testing.B) {
			var last *runner.Result
			for i := 0; i < b.N; i++ {
				spec := consensusSpec(7, int64(i), func(types.ProcID) harness.Behavior {
					return adversary.MuteCoordinator(core.Config{TimeUnit: types.Duration(unit)}, "b")
				})
				spec.Engine.TimeUnit = types.Duration(unit)
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

// BenchmarkAblationBotMode compares m-valued and ⊥-default validity on
// identical (feasible) inputs: the ⊥ machinery's extra bookkeeping should
// be negligible when it never triggers.
func BenchmarkAblationBotMode(b *testing.B) {
	for _, bot := range []bool{false, true} {
		bot := bot
		name := "m-valued"
		if bot {
			name = "bot-default"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := consensusSpec(7, int64(i), nil)
				spec.Engine.BotMode = bot
				res, err := runner.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				if !res.AllDecided() {
					b.Fatal("no decision")
				}
			}
		})
	}
}

// splitterDuelSpec is the E7/E10 configuration (internal/scenario's duel)
// at n=4 with the splitter's stream delay exposed: a minimal
// ◇⟨t+1⟩bisource at p4 (in-channel from p3, out-channel to p1, timely from
// the start), balanced inputs, and the ConsensusSplitter starving each
// process of its successor's streams.
func splitterDuelSpec(seed int64, delay time.Duration) runner.Spec {
	return runner.Spec{
		Params: types.Params{N: 4, T: 1, M: 2},
		Topology: network.PlantBisource(4, network.BisourceSpec{
			P: 4, In: []types.ProcID{3}, Out: []types.ProcID{1}, Delta: delta,
		}),
		Policy: network.UniformDelay{Min: types.Duration(time.Millisecond), Max: types.Duration(5 * time.Millisecond)},
		Adv: adversary.ConsensusSplitter{
			Target: map[types.ProcID]types.ProcID{1: 2, 2: 3, 3: 4, 4: 1}, N: 4,
			Delay:      types.Duration(delay),
			CoordDelay: types.Duration(600 * time.Second),
		},
		Seed:      seed,
		Proposals: map[types.ProcID]types.Value{1: "a", 2: "b", 3: "a", 4: "b"},
		Engine:    core.Config{TimeUnit: unit, MaxRounds: 200},
	}
}

// BenchmarkAblationSplitterStrength scales the splitter adversary's
// stream delay and measures the decision latency growth — the cost of
// asynchrony hostility with the bisource held fixed.
func BenchmarkAblationSplitterStrength(b *testing.B) {
	for _, d := range []time.Duration{100 * time.Millisecond, time.Second, 10 * time.Second} {
		d := d
		b.Run(d.String(), func(b *testing.B) {
			var last *runner.Result
			for i := 0; i < b.N; i++ {
				res, err := runner.Run(splitterDuelSpec(int64(i), d))
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
