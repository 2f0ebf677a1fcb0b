// Package runner orchestrates complete executions on the simulation
// harness. Run places one single-shot core.Engine per correct process;
// RunKV places one replica of the KV service per correct process, built
// by replica.New — the assembly minsync-node runs. Both place the
// requested Byzantine behaviors, run the world to completion (or deadline
// / event budget), and collect what the run did into a Result or
// KVResult. Tests, benchmarks, the scenario engine and the public minsync
// API all run through it.
package runner

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/types"
)

// Spec describes one consensus execution.
type Spec struct {
	// Params are the (n, t, m) resilience parameters.
	Params types.Params
	// Topology is the synchrony matrix (nil = fully asynchronous — note
	// that termination is then not guaranteed; use a deadline).
	Topology *network.Topology
	// Policy draws async-channel delays (nil = uniform 1–20 ms).
	Policy network.DelayPolicy
	// Adv optionally adversarially overrides async delays.
	Adv network.Adversary
	// FIFO enforces per-channel ordering.
	FIFO bool
	// Seed drives all randomness.
	Seed int64
	// Record keeps the trace log (needed by the invariant checkers).
	Record bool
	// Proposals maps each correct process to its proposed value. Every
	// process 1..N must appear in exactly one of Proposals or Byzantine.
	Proposals map[types.ProcID]types.Value
	// Byzantine maps faulty processes to their behaviors.
	Byzantine map[types.ProcID]harness.Behavior
	// Engine carries the protocol knobs (K, TimeUnit, Mode, Relay,
	// BotMode, MaxRounds). Env and OnDecide are set by the runner.
	Engine core.Config
	// Deadline bounds virtual time (0 = run to drain).
	Deadline types.Time
	// MaxEvents bounds the number of simulation events (0 = unlimited).
	MaxEvents uint64
	// ProposeAt schedules process i's Propose at ProposeAt[i] (default 0).
	ProposeAt map[types.ProcID]types.Duration
	// Obs, if non-nil, attaches live telemetry: per-process RB and dedup
	// bundles labeled proc="<id>". Passive — observed runs are
	// trace-identical to unobserved ones.
	Obs *obs.Registry
}

// Result is the outcome of one execution.
type Result struct {
	// Decisions holds the decided value of every process that decided.
	Decisions map[types.ProcID]types.Value
	// DecideTime and DecideRound record when/at which round each decided.
	DecideTime  map[types.ProcID]types.Time
	DecideRound map[types.ProcID]types.Round
	// Stalled lists correct processes that hit the MaxRounds cap.
	Stalled []types.ProcID
	// Correct lists the correct processes of the run, ascending.
	Correct []types.ProcID
	Totals
	// Engines gives access to per-process engine state (introspection).
	Engines map[types.ProcID]*core.Engine
}

// Totals are the world-level counters every kind of run reports.
type Totals struct {
	// Messages is the total point-to-point message count; Dropped is the
	// number of those the network dropped (partitions, adversary drops).
	Messages, Dropped uint64
	// Duplicates counts messages dropped by the first-message rule.
	Duplicates uint64
	// End is the virtual time when the run stopped; Stop says why.
	End  types.Time
	Stop sim.StopReason
	// Events is the number of simulation events executed.
	Events uint64
	// Compactions counts event-heap compaction passes (canceled-timer
	// reclamation in the kernel; see sim.Scheduler).
	Compactions uint64
	// Log is the trace (nil unless Spec.Record).
	Log *trace.Log

	dedups []*obs.DedupMetrics // every process's first-message tally, summed into Duplicates
}

// run drives the world to completion (or deadline / event budget) and
// reads the counters.
func (t *Totals) run(w *harness.World, deadline types.Time, maxEvents uint64) {
	t.Stop = w.Run(deadline, maxEvents)
	t.End = w.Sched.Now()
	t.Events = w.Sched.Executed
	t.Compactions = w.Sched.Compactions
	t.Messages = w.Net.Sent()
	t.Dropped = w.Net.Dropped()
	for _, d := range t.dedups {
		t.Duplicates += d.DroppedDuplicates.Value()
	}
	t.Log = w.Log
}

// firstMessage returns process id's first-message tally, registered in
// reg when reg is non-nil, and counts it into Duplicates.
func (t *Totals) firstMessage(reg *obs.Registry, id types.ProcID) *obs.DedupMetrics {
	d := obs.NewDedupMetrics(reg, procLabel(id))
	t.dedups = append(t.dedups, d)
	return d
}

// Deliveries returns the number of messages the network actually
// delivered (sent minus dropped) — the per-run message-volume figure the
// coalescing work targets.
func (t *Totals) Deliveries() uint64 { return t.Messages - t.Dropped }

// procLabel renders the per-replica label body shared by every runner
// bundle, e.g. `proc="2"`.
func procLabel(id types.ProcID) string {
	return fmt.Sprintf("proc=%q", fmt.Sprint(id))
}

// newWorld validates the resilience parameters, builds the world and
// places its processes in ascending id order: Byzantine ones from byz,
// each behind a proto.Node counting into t's private cells, every other
// through place. It returns the correct ids. The single
// ascending pass is load-bearing: a behavior may arm timers while it is
// built and same-instant events fire in arming order, so how correct and
// Byzantine construction interleave is part of the seed's schedule.
func newWorld(cfg harness.Config, t *Totals, byz map[types.ProcID]harness.Behavior, place func(w *harness.World, id types.ProcID) error) (*harness.World, []types.ProcID, error) {
	p := cfg.Params
	if err := p.Validate(cfg.BotOK); err != nil {
		return nil, nil, fmt.Errorf("runner: %w", err)
	}
	if len(byz) > p.T {
		return nil, nil, fmt.Errorf("runner: %d Byzantine processes exceed t=%d", len(byz), p.T)
	}
	w, err := harness.New(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("runner: %w", err)
	}
	var correct []types.ProcID
	for _, id := range p.AllProcs() {
		if b, ok := byz[id]; ok {
			d := t.firstMessage(nil, id)
			err = w.SetBehavior(id, func(env proto.Env) proto.Handler { return proto.NewNode(b(env), d) })
		} else {
			correct = append(correct, id)
			err = place(w, id)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("runner: process %v: %w", id, err)
		}
	}
	return w, correct, nil
}

// AllDecided reports whether every correct process decided.
func (r *Result) AllDecided() bool {
	for _, id := range r.Correct {
		if _, ok := r.Decisions[id]; !ok {
			return false
		}
	}
	return len(r.Correct) > 0
}

// CommonDecision returns the unique decided value if all correct processes
// decided and agree.
func (r *Result) CommonDecision() (types.Value, bool) {
	if !r.AllDecided() {
		return "", false
	}
	ref := r.Decisions[r.Correct[0]]
	for _, id := range r.Correct[1:] {
		if r.Decisions[id] != ref {
			return "", false
		}
	}
	return ref, true
}

// MaxDecideRound returns the largest decision round among correct
// processes (0 if none decided).
func (r *Result) MaxDecideRound() types.Round {
	var max types.Round
	for _, id := range r.Correct {
		if rd, ok := r.DecideRound[id]; ok && rd > max {
			max = rd
		}
	}
	return max
}

// MaxDecideTime returns the latest decision instant among correct
// processes (0 if none decided).
func (r *Result) MaxDecideTime() types.Time {
	var max types.Time
	for _, id := range r.Correct {
		if dt, ok := r.DecideTime[id]; ok && dt > max {
			max = dt
		}
	}
	return max
}

// Run executes the spec.
func Run(spec Spec) (*Result, error) {
	for _, id := range spec.Params.AllProcs() {
		_, isC := spec.Proposals[id]
		_, isB := spec.Byzantine[id]
		if isC == isB {
			return nil, fmt.Errorf("runner: process %v must be exactly one of correct/Byzantine", id)
		}
	}
	res := &Result{
		Decisions:   make(map[types.ProcID]types.Value),
		DecideTime:  make(map[types.ProcID]types.Time),
		DecideRound: make(map[types.ProcID]types.Round),
		Engines:     make(map[types.ProcID]*core.Engine),
	}
	w, correct, err := newWorld(harness.Config{
		Params:   spec.Params,
		Topology: spec.Topology,
		Policy:   spec.Policy,
		Adv:      spec.Adv,
		FIFO:     spec.FIFO,
		Seed:     spec.Seed,
		Record:   spec.Record,
		BotOK:    spec.Engine.BotMode,
	}, &res.Totals, spec.Byzantine, func(w *harness.World, id types.ProcID) error {
		v := spec.Proposals[id]
		var engErr error
		err := w.SetBehavior(id, func(env proto.Env) proto.Handler {
			cfg := spec.Engine
			cfg.Env = env
			cfg.RBMetrics = obs.NewRBMetrics(spec.Obs, procLabel(id))
			cfg.OnDecide = func(dv types.Value) {
				res.Decisions[id] = dv
				res.DecideTime[id] = env.Now()
				res.DecideRound[id] = res.Engines[id].DecidedRound()
			}
			eng, err := core.New(cfg)
			if err != nil {
				engErr = err
				return silent
			}
			res.Engines[id] = eng
			env.SetTimer(spec.ProposeAt[id], func() {
				if err := eng.Propose(v); err != nil {
					engErr = err
				}
			})
			return proto.NewNode(eng, res.firstMessage(spec.Obs, id))
		})
		if err == nil {
			err = engErr
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Correct = correct
	res.run(w, spec.Deadline, spec.MaxEvents)
	for id, eng := range res.Engines {
		if eng.Stalled() {
			res.Stalled = append(res.Stalled, id)
		}
	}
	return res, nil
}

// silent is the handler of a correct process whose construction failed:
// the run is about to be abandoned with that error.
var silent = proto.HandlerFunc(func(types.ProcID, proto.Message) {})
