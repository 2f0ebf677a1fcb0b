package minsync

import (
	"fmt"
	"time"

	"repro/internal/log"
	"repro/internal/network"
	"repro/internal/runner"
	"repro/internal/types"
)

// Instance is a 0-based consensus-instance number of the replicated log.
type Instance = types.Instance

// LogEntry is one committed command of a replicated-log run.
type LogEntry = log.Entry

// LogConfig configures one simulated replicated-log execution: a stream
// of commands totally ordered by a pipeline of consensus instances (each
// one full execution of the paper's algorithm in its §7 ⊥-validity
// variant), with client-command batching.
//
// The client model is the classic BFT one: every command is submitted to
// every correct replica (clients broadcast requests), and the engines
// deduplicate on commit, so overlapping batches are safe.
type LogConfig struct {
	// N, T are the paper's resilience parameters (t < n/3). The m-valued
	// feasibility bound does not apply: log instances run the ⊥-default
	// validity variant.
	N, T int
	// Commands is the client workload, submitted to every correct
	// process. Commands must be pairwise distinct.
	Commands []Value
	// SubmitEvery staggers the workload: command k is submitted at time
	// k·SubmitEvery (0 = everything at time 0).
	SubmitEvery time.Duration
	// BatchSize caps commands per proposed batch (default 16).
	BatchSize int
	// Pipeline is the window of consensus instances that may be in flight
	// (default 4); an instance inside it starts only when there is a
	// command to order or a peer opened it. It is also the number of
	// content-hashed lanes the pending commands are striped over, one
	// lane per in-flight instance, so all replicas must agree on it.
	Pipeline int
	// Byzantine maps faulty processes to behaviors. The stock single-shot
	// attackers direct their protocol traffic at instance 0; FaultSilent
	// affects every instance.
	Byzantine map[ProcID]Fault
	// Synchrony is the network timing model (zero value = FullSynchrony
	// of 5ms).
	Synchrony Synchrony
	// MinDelay/MaxDelay bound the random delays of asynchronous channels
	// (defaults 1ms / 20ms).
	MinDelay, MaxDelay time.Duration
	// Seed drives all randomness.
	Seed int64
	// TimeUnit scales the EA round timers of every instance (default 10ms).
	TimeUnit time.Duration
	// K is the §5.4 tuning parameter.
	K int
	// MaxRounds caps each instance's round loop (0 = 10× the α·n bound).
	MaxRounds Round
	// Deadline bounds virtual time (0 = run to completion).
	Deadline time.Duration
}

// LogResult reports one replicated-log execution.
type LogResult struct {
	// Entries is the committed log of the lowest-ID correct process (the
	// common log when Consistent && AllCommitted).
	Entries []LogEntry
	// PerProcess maps every correct process to its committed command
	// sequence.
	PerProcess map[ProcID][]LogEntry
	// AllCommitted reports whether every correct process committed the
	// whole workload.
	AllCommitted bool
	// Consistent reports pairwise prefix-consistency of the correct logs
	// (the total-order safety property).
	Consistent bool
	// MinCommitted is the smallest commit count among correct processes.
	MinCommitted int
	// Instances is the largest number of applied instances among correct
	// processes; NoOps counts applied instances that committed nothing
	// new at the reference process.
	Instances int
	NoOps     int
	// Messages is the total point-to-point message count.
	Messages uint64
	// Latency is the virtual time from start until the run stopped.
	Latency time.Duration
	// CommandsPerSec is the committed-command throughput in virtual time
	// (0 if nothing committed).
	CommandsPerSec float64
}

// SimulateLog runs one replicated-log execution on the discrete-event
// simulator: the multi-decision counterpart of Simulate.
func SimulateLog(cfg LogConfig) (*LogResult, error) {
	p := types.Params{N: cfg.N, T: cfg.T, M: 1}
	if cfg.Synchrony.topology == nil {
		cfg.Synchrony = FullSynchrony(5 * time.Millisecond)
	}
	if cfg.TimeUnit <= 0 {
		cfg.TimeUnit = 10 * time.Millisecond
	}
	if cfg.MinDelay <= 0 {
		cfg.MinDelay = time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 20 * time.Millisecond
	}
	if len(cfg.Commands) == 0 {
		return nil, fmt.Errorf("minsync: no commands")
	}
	ecfg := logEngineConfig(cfg)
	byz, err := byzantine(cfg.Byzantine, ecfg.Engine, cfg.Seed)
	if err != nil {
		return nil, err
	}
	spec := runner.LogSpec{
		Params:      p,
		Topology:    cfg.Synchrony.topology(cfg.N),
		Policy:      network.UniformDelay{Min: cfg.MinDelay, Max: cfg.MaxDelay},
		Seed:        cfg.Seed,
		Commands:    cfg.Commands,
		SubmitEvery: cfg.SubmitEvery,
		Byzantine:   byz,
		Log:         ecfg,
		Deadline:    types.Time(cfg.Deadline),
	}
	res, err := runner.RunLog(spec)
	if err != nil {
		return nil, fmt.Errorf("minsync: %w", err)
	}
	out := &LogResult{
		PerProcess:   res.Logs,
		AllCommitted: res.AllCommitted(len(cfg.Commands)),
		Consistent:   res.Consistent(),
		MinCommitted: res.MinCommitted(),
		Messages:     res.Messages,
		Latency:      time.Duration(res.End),
	}
	if len(res.Correct) > 0 {
		ref := res.Correct[0]
		out.Entries = res.Logs[ref]
		if eng := res.Engines[ref]; eng != nil {
			out.NoOps = eng.NoOps()
		}
	}
	for _, id := range res.Correct {
		if eng := res.Engines[id]; eng != nil && int(eng.Applied()) > out.Instances {
			out.Instances = int(eng.Applied())
		}
	}
	if out.Latency > 0 {
		out.CommandsPerSec = float64(out.MinCommitted) / out.Latency.Seconds()
	}
	return out, nil
}

// logEngineConfig maps the public knobs onto the internal log config.
func logEngineConfig(cfg LogConfig) log.Config {
	lc := log.Config{
		BatchSize: cfg.BatchSize,
		Pipeline:  cfg.Pipeline,
	}
	lc.Engine.TimeUnit = cfg.TimeUnit
	lc.Engine.K = cfg.K
	lc.Engine.MaxRounds = cfg.MaxRounds
	return lc
}
