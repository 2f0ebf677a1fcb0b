// Package minsync is the public API of this repository: a faithful,
// executable reproduction of
//
//	Bouzid, Mostéfaoui, Raynal — "Minimal Synchrony for Byzantine
//	Consensus", PODC 2015.
//
// It implements the paper's signature-free Byzantine consensus algorithm
// for asynchronous message-passing systems whose only synchrony assumption
// is an eventual ⟨t+1⟩bisource — a correct process with eventually timely
// channels from t correct processes and to t correct processes — together
// with every abstraction it is built from (Bracha reliable broadcast,
// cooperative broadcast, Byzantine adopt-commit, eventual agreement), a
// deterministic discrete-event network simulator with per-channel timing
// control, a Byzantine attack library, and trace-based checkers for every
// specification property.
//
// The quickest way in is Simulate:
//
//	res, err := minsync.Simulate(minsync.SimConfig{
//	    N: 4, T: 1, M: 2,
//	    Proposals: map[minsync.ProcID]minsync.Value{1: "a", 2: "a", 3: "b", 4: "b"},
//	    Synchrony: minsync.FullSynchrony(5 * time.Millisecond),
//	    Seed:      1,
//	})
//
// which runs one complete consensus execution on the simulator and returns
// decisions, rounds, latency, message counts and (optionally) a property
// report. SimulateKV runs many decisions: a replicated key-value service
// whose client commands are totally ordered by pipelined consensus
// instances, every correct replica assembled exactly as minsync-node
// assembles one. The scenario functions run the curated fault × network
// × workload matrix over both.
package minsync

import (
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/combin"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/types"
)

// Re-exported fundamental types.
type (
	// ProcID identifies a process (1..N).
	ProcID = types.ProcID
	// Value is a proposal value.
	Value = types.Value
	// Round is a consensus round number.
	Round = types.Round
)

// Synchrony describes the timing of the simulated network.
type Synchrony struct {
	topology func(n int) *network.Topology
	describe string
}

// FullSynchrony makes every channel timely with bound δ from time 0. Every
// correct process is then a bisource — far stronger than required.
func FullSynchrony(delta time.Duration) Synchrony {
	return Synchrony{
		topology: func(n int) *network.Topology { return network.FullySynchronous(n, delta) },
		describe: fmt.Sprintf("full synchrony δ=%v", delta),
	}
}

// EventualSynchrony makes every channel timely from gst on (the classic
// partial-synchrony model).
func EventualSynchrony(gst, delta time.Duration) Synchrony {
	return Synchrony{
		topology: func(n int) *network.Topology {
			return network.EventuallySynchronous(n, types.Time(gst), delta)
		},
		describe: fmt.Sprintf("eventual synchrony GST=%v δ=%v", gst, delta),
	}
}

// Asynchrony leaves every channel asynchronous. Consensus termination is
// then not guaranteed (FLP); combine with Deadline or MaxRounds.
func Asynchrony() Synchrony {
	return Synchrony{
		topology: network.FullyAsynchronous,
		describe: "full asynchrony",
	}
}

// Bisource plants exactly one ◇⟨len(In)+1⟩bisource at process p: timely
// channels from In into p and from p to Out, becoming reliable at gst;
// everything else stays asynchronous. With len(In) = len(Out) = t this is
// the paper's minimal synchrony assumption.
func Bisource(p ProcID, in, out []ProcID, gst, delta time.Duration) Synchrony {
	return Synchrony{
		topology: func(n int) *network.Topology {
			return network.PlantBisource(n, network.BisourceSpec{
				P: p, In: in, Out: out, GST: types.Time(gst), Delta: delta,
			})
		},
		describe: fmt.Sprintf("◇bisource at %v (in %v, out %v, GST %v, δ %v)", p, in, out, gst, delta),
	}
}

// String describes the synchrony assumption.
func (s Synchrony) String() string { return s.describe }

// FaultKind enumerates the Byzantine behavior presets — the scenario
// engine's vocabulary (see internal/adversary for semantics).
type FaultKind = scenario.FaultKind

// Byzantine behavior presets.
const (
	FaultSilent          = scenario.FaultSilent
	FaultRelayOnly       = scenario.FaultRelayOnly
	FaultCrashAt         = scenario.FaultCrashAt
	FaultEquivocate      = scenario.FaultEquivocate
	FaultMuteCoordinator = scenario.FaultMuteCoordinator
	FaultPoison          = scenario.FaultPoison
	FaultRandom          = scenario.FaultRandom
	FaultSpam            = scenario.FaultSpam
	FaultFakeDecide      = scenario.FaultFakeDecide
	FaultHashEquivocate  = scenario.FaultHashEquivocate
)

// Fault configures one Byzantine process of a Simulate or SimulateKV run. Empty fields take the scenario engine's defaults over
// the one-value pool {"byz"}: Value and Alt default to "byz", except
// FaultPoison's Alt ("poison!"), FaultSpam's Value ("spam!"),
// FaultFakeDecide's Value ("forged!") and FaultHashEquivocate's Value (a
// payload long enough to be hashed); After ≤ 0 means 40 ms.
type Fault = scenario.Fault

// byzantine materializes a config's fault presets.
func byzantine(faults map[ProcID]Fault, ecfg core.Config, seed int64) (map[types.ProcID]harness.Behavior, error) {
	byz := make(map[types.ProcID]harness.Behavior, len(faults))
	for id, f := range faults {
		b, err := f.Behavior(ecfg, []types.Value{"byz"}, seed+int64(id))
		if err != nil {
			return nil, fmt.Errorf("minsync: process %v: %w", id, err)
		}
		byz[id] = b
	}
	return byz, nil
}

// SimConfig configures one simulated consensus execution.
type SimConfig struct {
	// N, T, M are the paper's parameters: processes, fault budget, and
	// the number of distinct proposable values (n−t > m·t unless BotMode).
	N, T, M int
	// Proposals maps correct processes to proposed values. Processes not
	// listed must appear in Byzantine.
	Proposals map[ProcID]Value
	// Byzantine maps faulty processes to behaviors.
	Byzantine map[ProcID]Fault
	// Synchrony is the network timing model (zero value = FullSynchrony
	// of 5ms).
	Synchrony Synchrony
	// MinDelay/MaxDelay bound the random delays of asynchronous channels
	// (defaults 1ms / 20ms).
	MinDelay, MaxDelay time.Duration
	// Seed drives all randomness; identical configs with identical seeds
	// replay identically.
	Seed int64
	// TimeUnit scales the EA round timers (default 10ms).
	TimeUnit time.Duration
	// K is the §5.4 tuning parameter (F sets of size n−t+K; requires a
	// ⟨t+1+K⟩bisource).
	K int
	// BotMode enables the §7 ⊥-default validity variant.
	BotMode bool
	// MaxRounds caps the round loop (0 = 10× the α·n bound).
	MaxRounds Round
	// Deadline bounds virtual time (0 = run to completion).
	Deadline time.Duration
	// Check verifies all specification properties on the trace.
	Check bool
}

// SimResult reports one execution.
type SimResult struct {
	// Decisions maps every process that decided to its value.
	Decisions map[ProcID]Value
	// Agreed is the common decided value when all correct processes
	// decided the same value.
	Agreed Value
	// AllDecided reports CONS-Termination for this run.
	AllDecided bool
	// Rounds is the largest decision round among correct processes.
	Rounds Round
	// Latency is the virtual time from start to the last correct decision.
	Latency time.Duration
	// Messages is the total point-to-point message count.
	Messages uint64
	// Stalled lists processes that hit the MaxRounds cap.
	Stalled []ProcID
	// Report is the property-check report (nil unless Check).
	Report *check.Report
}

// timing resolves the network and timer knobs every simulated run shares,
// defaults applied: the topology (FullSynchrony of 5ms), the delay policy
// of asynchronous channels (uniform 1ms–20ms) and the EA time unit
// (10ms).
func timing(n int, s Synchrony, minDelay, maxDelay, unit time.Duration) (*network.Topology, network.DelayPolicy, time.Duration) {
	if s.topology == nil {
		s = FullSynchrony(5 * time.Millisecond)
	}
	if minDelay <= 0 {
		minDelay = time.Millisecond
	}
	if maxDelay <= 0 {
		maxDelay = 20 * time.Millisecond
	}
	if unit <= 0 {
		unit = 10 * time.Millisecond
	}
	return s.topology(n), network.UniformDelay{Min: minDelay, Max: maxDelay}, unit
}

// Simulate runs one consensus execution on the discrete-event simulator.
func Simulate(cfg SimConfig) (*SimResult, error) {
	topo, policy, unit := timing(cfg.N, cfg.Synchrony, cfg.MinDelay, cfg.MaxDelay, cfg.TimeUnit)
	ecfg := core.Config{
		K:         cfg.K,
		TimeUnit:  unit,
		BotMode:   cfg.BotMode,
		MaxRounds: cfg.MaxRounds,
	}
	byz, err := byzantine(cfg.Byzantine, ecfg, cfg.Seed)
	if err != nil {
		return nil, err
	}
	spec := runner.Spec{
		Params:    types.Params{N: cfg.N, T: cfg.T, M: cfg.M},
		Topology:  topo,
		Policy:    policy,
		Seed:      cfg.Seed,
		Record:    cfg.Check,
		Proposals: cfg.Proposals,
		Byzantine: byz,
		Engine:    ecfg,
		Deadline:  types.Time(cfg.Deadline),
	}
	res, err := runner.Run(spec)
	if err != nil {
		return nil, fmt.Errorf("minsync: %w", err)
	}
	out := &SimResult{
		Decisions:  res.Decisions,
		AllDecided: res.AllDecided(),
		Rounds:     res.MaxDecideRound(),
		Latency:    time.Duration(res.MaxDecideTime()),
		Messages:   res.Messages,
		Stalled:    res.Stalled,
	}
	if v, ok := res.CommonDecision(); ok {
		out.Agreed = v
	}
	if cfg.Check {
		g := check.Ground{
			Correct:           res.Correct,
			Proposals:         cfg.Proposals,
			BotMode:           cfg.BotMode,
			ExpectTermination: false,
		}
		out.Report = check.All(res.Log, g)
	}
	return out, nil
}

// MaxM returns the largest feasible m for (n, t): ⌊(n−(t+1))/t⌋ (§2.3).
func MaxM(n, t int) int { return types.Params{N: n, T: t}.MaxM() }

// WorstCaseRounds returns the §5.4 bound α·n on the rounds needed once the
// (t+1+k)-bisource behaves synchronously, α = C(n, n−t+k), saturated at
// MaxUint64.
func WorstCaseRounds(n, t, k int) (uint64, error) {
	p := types.Params{N: n, T: t, M: 1}
	if err := p.Validate(true); err != nil {
		return 0, err
	}
	if k < 0 || k > t {
		return 0, fmt.Errorf("minsync: k must be in [0, t]")
	}
	plan, err := combin.NewRoundPlan(n, n-t+k)
	if err != nil {
		return 0, err
	}
	return plan.WorstCaseRounds(), nil
}
