package runner

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/log"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/types"
	"repro/internal/xtrace"
)

// LogSpec describes one replicated-log execution on the simulator: every
// correct process runs a log.Engine and the same command workload is
// submitted to all of them (the PBFT-style client-broadcast model — see
// the internal/log package doc).
type LogSpec struct {
	// Params are the (n, t, m) resilience parameters (m is ignored: log
	// instances run the ⊥-validity variant).
	Params types.Params
	// Topology is the synchrony matrix (nil = fully asynchronous).
	Topology *network.Topology
	// Policy draws async-channel delays (nil = uniform 1–20 ms).
	Policy network.DelayPolicy
	// Adv optionally adversarially overrides async delays.
	Adv network.Adversary
	// FIFO enforces per-channel ordering.
	FIFO bool
	// Seed drives all randomness.
	Seed int64
	// Record keeps the trace log (scenario digests and timeliness
	// analysis need it; throughput runs leave it off).
	Record bool
	// Commands is the client workload, submitted to every correct
	// process. Commands must be distinct (the log deduplicates by
	// content).
	Commands []types.Value
	// SubmitEvery staggers the workload: command k is submitted at time
	// k·SubmitEvery (0 = everything at time 0).
	SubmitEvery types.Duration
	// Byzantine maps faulty processes to behaviors. Note that the stock
	// single-shot adversaries attack instance 0 only (their messages
	// carry instance 0); Silent and network-level adversaries affect the
	// whole log.
	Byzantine map[types.ProcID]harness.Behavior
	// Log carries the engine knobs (Engine, BatchSize, Pipeline,
	// MaxLead). Env, Target and OnCommit are set by the runner.
	Log log.Config
	// Obs, if non-nil, attaches live telemetry: per-replica log, RB and
	// dedup bundles (labeled proc="<id>") plus one shared end-to-end
	// commit-latency histogram (obs.CommitLatencyName; submission →
	// first local commit, virtual-time nanoseconds). Observation is
	// passive — an observed run produces a byte-identical trace to an
	// unobserved one (the scenario determinism test pins this).
	Obs *obs.Registry
	// Trace, if non-nil, attaches causal command tracing: one
	// xtrace.Tracer with a bounded flight recorder per correct replica,
	// plus the shared stage-latency histogram bundle when Obs is also
	// set. Passive like Obs — a traced run is schedule-identical to an
	// untraced one (the scenario determinism test pins this).
	Trace *TraceSpec
	// Target is the commit count at which engines stop opening new
	// instances (default len(Commands)).
	Target int
	// Deadline bounds virtual time (0 = run to drain).
	Deadline types.Time
	// MaxEvents bounds the number of simulation events (0 = unlimited).
	MaxEvents uint64
}

// LogResult is the outcome of one replicated-log execution.
type LogResult struct {
	// Logs holds every correct process's committed command log.
	Logs map[types.ProcID][]log.Entry
	// Correct lists the correct processes, ascending.
	Correct []types.ProcID
	Totals
	// Dropped is the number of sent messages the network dropped
	// (partitions, adversary drops); Messages − Dropped is the delivery
	// count.
	Dropped uint64
	// CommitLatency is the shared commit-latency histogram (nil unless
	// Spec.Obs).
	CommitLatency *obs.Histogram
	// Engines gives access to per-process log engines (introspection).
	Engines map[types.ProcID]*log.Engine
	// Tracers holds each correct replica's causal tracer (nil unless
	// Spec.Trace); Stages the shared stage-latency bundle (nil unless
	// Spec.Trace and Spec.Obs).
	Tracers map[types.ProcID]*xtrace.Tracer
	Stages  *obs.StageMetrics
}

// TraceSpec configures causal tracing (see LogSpec.Trace / KVSpec.Trace).
type TraceSpec struct {
	// RecorderCap bounds each replica's flight-recorder ring (default
	// 4096 spans).
	RecorderCap int
}

// cap returns the effective recorder capacity.
func (t *TraceSpec) cap() int {
	if t == nil || t.RecorderCap <= 0 {
		return 4096
	}
	return t.RecorderCap
}

// newTracer builds replica id's causal tracer on the virtual clock and
// records it in the result (nil when tracing is off). The first one also
// registers the stage-latency bundle all of them share.
func (r *LogResult) newTracer(spec *TraceSpec, reg *obs.Registry, id types.ProcID, env proto.Env) *xtrace.Tracer {
	if spec == nil {
		return nil
	}
	if r.Tracers == nil {
		r.Tracers = make(map[types.ProcID]*xtrace.Tracer)
		r.Stages = obs.NewStageMetrics(reg, "")
	}
	r.Tracers[id] = xtrace.New(xtrace.Config{
		Proc:     id,
		Now:      env.Now,
		Recorder: xtrace.NewRecorder(spec.cap()),
		Stages:   r.Stages,
	})
	return r.Tracers[id]
}

// TraceDumps captures every correct replica's flight recorder, in
// replica order, labeled with the given run name. Nil without tracing.
func (r *LogResult) TraceDumps(label string) []*xtrace.Dump {
	if r.Tracers == nil {
		return nil
	}
	var dumps []*xtrace.Dump
	for _, id := range r.Correct {
		if t := r.Tracers[id]; t != nil {
			dumps = append(dumps, t.Dump(label))
		}
	}
	return dumps
}

// AllCommitted reports whether every correct process committed at least
// target commands.
func (r *LogResult) AllCommitted(target int) bool {
	for _, id := range r.Correct {
		if len(r.Logs[id]) < target {
			return false
		}
	}
	return len(r.Correct) > 0
}

// Consistent reports whether all correct logs agree wherever they
// overlap (the total-order safety property: no two processes commit
// different commands at the same index). Alignment is by Entry.Index,
// not slice position: a replica that joined through snapshot state
// transfer commits only a suffix of the log locally, and positional
// comparison would misread that shift as divergence.
func (r *LogResult) Consistent() bool {
	for i, a := range r.Correct {
		for _, b := range r.Correct[i+1:] {
			la, lb := r.Logs[a], r.Logs[b]
			if len(la) == 0 || len(lb) == 0 {
				continue
			}
			// Each log is index-contiguous; shift to the common range.
			lo := la[0].Index
			if lb[0].Index > lo {
				lo = lb[0].Index
			}
			hi := la[len(la)-1].Index
			if top := lb[len(lb)-1].Index; top < hi {
				hi = top
			}
			for k := lo; k <= hi; k++ {
				ea, eb := la[k-la[0].Index], lb[k-lb[0].Index]
				if ea.Cmd != eb.Cmd || ea.Instance != eb.Instance {
					return false
				}
			}
		}
	}
	return len(r.Correct) > 0
}

// Deliveries returns the number of messages the network actually
// delivered (sent minus dropped) — the per-run message-volume figure the
// coalescing work targets.
func (r *LogResult) Deliveries() uint64 { return r.Messages - r.Dropped }

// MinCommitted returns the smallest committed count among correct
// processes.
func (r *LogResult) MinCommitted() int {
	min := -1
	for _, id := range r.Correct {
		if n := len(r.Logs[id]); min < 0 || n < min {
			min = n
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// procLabel renders the per-replica label body shared by every runner
// bundle, e.g. `proc="2"`.
func procLabel(id types.ProcID) string {
	return fmt.Sprintf("proc=%q", fmt.Sprint(id))
}

// wireNode connects process id's dedup dispatcher — it exists only once
// SetBehavior succeeded — to its telemetry bundle and, for a log engine,
// as the Retirer, so Compact retires message-dedup sub-maps in the same
// stroke as the engine's own per-instance state.
func wireNode(w *harness.World, id types.ProcID, reg *obs.Registry, eng *log.Engine) {
	n := w.Node(id)
	n.SetMetrics(obs.NewDedupMetrics(reg, procLabel(id)))
	if eng != nil {
		eng.SetRetirer(n)
	}
}

// RunLog executes the spec.
func RunLog(spec LogSpec) (*LogResult, error) {
	seen := make(map[types.Value]bool, len(spec.Commands))
	for _, c := range spec.Commands {
		if c == types.BotValue {
			return nil, fmt.Errorf("runner: workload contains the reserved ⊥ value")
		}
		if seen[c] {
			return nil, fmt.Errorf("runner: duplicate command %q", c)
		}
		seen[c] = true
	}
	if spec.Target <= 0 {
		spec.Target = len(spec.Commands)
	}
	res := &LogResult{
		Logs:          make(map[types.ProcID][]log.Entry),
		Engines:       make(map[types.ProcID]*log.Engine),
		CommitLatency: obs.NewCommitLatency(spec.Obs),
	}
	var submitAt map[types.Value]types.Time
	if spec.Obs != nil {
		submitAt = make(map[types.Value]types.Time, len(spec.Commands))
		for k, c := range spec.Commands {
			submitAt[c] = types.Time(types.Duration(k) * spec.SubmitEvery)
		}
	}
	w, correct, err := newWorld(harness.Config{
		Params:   spec.Params,
		Topology: spec.Topology,
		Policy:   spec.Policy,
		Adv:      spec.Adv,
		FIFO:     spec.FIFO,
		Seed:     spec.Seed,
		Record:   spec.Record,
		BotOK:    true,
	}, spec.Byzantine, func(w *harness.World, id types.ProcID) error {
		var engErr error
		err := w.SetBehavior(id, func(env proto.Env) proto.Handler {
			cfg := spec.Log
			cfg.Env = env
			cfg.Target = spec.Target
			cfg.Tracer = res.newTracer(spec.Trace, spec.Obs, id, env)
			var latSeen map[types.Value]struct{}
			if spec.Obs != nil {
				labels := procLabel(id)
				cfg.Metrics = obs.NewLogMetrics(spec.Obs, labels)
				cfg.Engine.RBMetrics = obs.NewRBMetrics(spec.Obs, labels)
				latSeen = make(map[types.Value]struct{}, len(spec.Commands))
			}
			cfg.OnCommit = func(e log.Entry) {
				res.Logs[id] = append(res.Logs[id], e)
				if res.CommitLatency != nil {
					// This replica's FIRST commit of each workload command
					// only: compaction can let a forgotten duplicate commit
					// again much later, which isn't a client-visible latency.
					if at, ok := submitAt[e.Cmd]; ok {
						if _, dup := latSeen[e.Cmd]; !dup {
							latSeen[e.Cmd] = struct{}{}
							res.CommitLatency.Observe(int64(env.Now() - at))
						}
					}
				}
			}
			eng, err := log.New(cfg)
			if err != nil {
				engErr = err
				return silent
			}
			res.Engines[id] = eng
			for k, c := range spec.Commands {
				env.SetTimer(types.Duration(k)*spec.SubmitEvery, func() { _ = eng.Submit(c) })
			}
			env.SetTimer(0, func() {
				if err := eng.Start(); err != nil {
					engErr = err
				}
			})
			return eng
		})
		if err == nil {
			err = engErr
		}
		if err == nil {
			wireNode(w, id, spec.Obs, res.Engines[id])
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Correct = correct
	res.run(w, spec.Deadline, spec.MaxEvents)
	res.Dropped = w.Net.Dropped()
	if err := res.engineErr(); err != nil {
		return nil, err
	}
	return res, nil
}

// engineErr surfaces the first correct replica whose engine poisoned
// itself during the run.
func (r *LogResult) engineErr() error {
	for _, id := range r.Correct {
		if eng := r.Engines[id]; eng != nil && eng.Err() != nil {
			return fmt.Errorf("runner: log engine %v: %w", id, eng.Err())
		}
	}
	return nil
}
