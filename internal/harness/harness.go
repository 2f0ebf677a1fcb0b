// Package harness assembles simulated worlds: a deterministic scheduler, a
// network with the desired synchrony topology, and one protocol node per
// process. Tests, benchmarks, examples and the scenario engine all build
// their runs through this package.
//
// The harness is protocol-agnostic: each process is given a Behavior
// factory producing a proto.Handler, so correct consensus engines and
// Byzantine attack behaviors plug in uniformly. It hands every delivery
// straight to the handler: a handler that relies on the first-message
// rule and does not apply it itself comes wrapped in a proto.Node from
// its caller.
package harness

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/types"
)

// Behavior builds the handler of one process given its environment.
type Behavior func(env proto.Env) proto.Handler

// Config describes a world.
type Config struct {
	// Params are the (n, t, m) resilience parameters; Params.N processes
	// are created, with IDs 1..N.
	Params types.Params
	// Topology is the channel timing matrix; nil = fully asynchronous.
	Topology *network.Topology
	// Policy draws async delays; nil = uniform 1–20 ms.
	Policy network.DelayPolicy
	// Adv optionally overrides per-message delays on async channels.
	Adv network.Adversary
	// FIFO enforces per-channel ordering.
	FIFO bool
	// Seed drives all randomness of the run.
	Seed int64
	// Record enables the in-memory trace log (checkers need it;
	// benchmarks usually leave it off).
	Record bool
	// BotOK skips the m-valued feasibility validation (⊥-variant runs).
	BotOK bool
}

// World is an assembled simulation.
type World struct {
	Sched  *sim.Scheduler
	Net    *network.Network
	Log    *trace.Log // nil unless Config.Record
	Params types.Params

	handlers []proto.Handler // by ID; nil = silent or powered off
	envs     map[types.ProcID]*env
	gens     []uint64       // power-cycle generation by ID, bumped by Kill
	pool     proto.MsgPool  // outbound message boxes; world is single-threaded
	procs    []types.ProcID // 1..N, cached so Broadcast never re-materializes it
}

// New builds the world. Processes are added with SetBehavior before Run.
func New(cfg Config) (*World, error) {
	if err := cfg.Params.Validate(cfg.BotOK); err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	if cfg.Topology == nil {
		cfg.Topology = network.FullyAsynchronous(cfg.Params.N)
	}
	if cfg.Topology.N() != cfg.Params.N {
		return nil, fmt.Errorf("harness: topology has %d processes, params say %d", cfg.Topology.N(), cfg.Params.N)
	}
	w := &World{
		Sched:    sim.NewScheduler(cfg.Seed),
		Params:   cfg.Params,
		handlers: make([]proto.Handler, cfg.Params.N+1),
		envs:     make(map[types.ProcID]*env, cfg.Params.N),
		gens:     make([]uint64, cfg.Params.N+1),
		procs:    cfg.Params.AllProcs(),
	}
	if cfg.Record {
		w.Log = trace.NewLog()
	}
	nw, err := network.New(w.Sched, network.Config{
		Topology: cfg.Topology,
		Policy:   cfg.Policy,
		Adv:      cfg.Adv,
		FIFO:     cfg.FIFO,
		Trace:    w.Log,
	}, w.receive)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	w.Net = nw
	for _, id := range cfg.Params.AllProcs() {
		w.envs[id] = &env{world: w, id: id}
	}
	return w, nil
}

// SetBehavior installs the handler for process id. It must be called for
// every process before Run; processes without a behavior are silent
// (modeling a crashed-from-start Byzantine process).
//
// Calling it again after Kill models a restart: the behavior factory is
// handed a FRESH environment bound to the current power generation, and
// the handler it builds replaces the dead one (a restarted process lost
// its first-message bookkeeping along with everything else volatile).
func (w *World) SetBehavior(id types.ProcID, b Behavior) error {
	if _, ok := w.envs[id]; !ok {
		return fmt.Errorf("harness: no process %v", id)
	}
	e := &env{world: w, id: id, gen: w.gens[id]}
	w.envs[id] = e
	w.handlers[id] = b(e)
	return nil
}

// Kill powers process id off mid-run. Its handler is removed, so
// inbound messages drop silently; its environment generation is bumped,
// so every send, broadcast and timer callback belonging to the dead
// incarnation is fenced (armed timers still occupy the schedule but
// their callbacks no-op — the incarnation's pending work dies with it,
// exactly like in-flight goroutines at a power cut). Volatile protocol
// state is unrecoverable afterwards; a subsequent SetBehavior boots a
// fresh incarnation, typically from a durable store.
func (w *World) Kill(id types.ProcID) {
	if _, ok := w.envs[id]; !ok {
		return
	}
	w.gens[id]++
	w.handlers[id] = nil
	if w.Log != nil {
		w.Log.Emit(trace.Event{At: w.Sched.Now(), Kind: trace.KindCrash, Proc: id})
	}
}

// Env returns the environment of process id (tests use it to inject
// events or read the clock).
func (w *World) Env(id types.ProcID) proto.Env { return w.envs[id] }

// receive is the network's delivery callback. Pooled message boxes are
// recycled here — handlers only ever see a value copy, so nothing can
// retain the box.
func (w *World) receive(to, from types.ProcID, payload any) {
	var m proto.Message
	switch p := payload.(type) {
	case *proto.Message:
		m = *p
		w.pool.Put(p)
	case proto.Message:
		m = p
	default:
		// Non-protocol payloads are dropped; the network cannot corrupt
		// messages, so this only happens on harness misuse.
		return
	}
	h := w.handlers[to]
	if h == nil {
		return // silent process: drops everything
	}
	h.OnMessage(from, m)
}

// Run drives the simulation (see sim.Scheduler.Run).
func (w *World) Run(deadline types.Time, maxEvents uint64) sim.StopReason {
	return w.Sched.Run(deadline, maxEvents)
}

// env implements proto.Env on top of the world. Each SetBehavior call
// binds a fresh env to the process's CURRENT power generation; Kill bumps
// the generation, so a dead incarnation's env (captured in its timers and
// protocol closures) fails the live check forever after.
//
// It deliberately does not implement proto.IdleNotifier: a step costs no
// virtual time, so the world is "out of input" after every delivery, and
// a relay flushing that often stops coalescing (measured: sim-batch
// rb.entries_per_frame 3.29 → 1.05, sim.msgs_per_cmd 44.9 → 109.8).
type env struct {
	world *World
	id    types.ProcID
	gen   uint64
}

var _ proto.Env = (*env)(nil)

// Live reports whether this env belongs to the process's current
// incarnation (false after Kill until the env is rebuilt by SetBehavior).
// It makes env the sim.Owner of the timers it arms.
func (e *env) Live() bool { return e.world.gens[e.id] == e.gen }

func (e *env) ID() types.ProcID     { return e.id }
func (e *env) Params() types.Params { return e.world.Params }
func (e *env) Now() types.Time      { return e.world.Sched.Now() }

func (e *env) Send(to types.ProcID, m proto.Message) {
	if !e.Live() {
		return
	}
	e.world.Net.Send(e.id, to, e.world.pool.Get(m))
}

func (e *env) Broadcast(m proto.Message) {
	if !e.Live() {
		return
	}
	for _, p := range e.world.procs {
		e.world.Net.Send(e.id, p, e.world.pool.Get(m))
	}
}

func (e *env) SetTimer(d types.Duration, fn func()) (cancel func()) {
	if !e.Live() {
		return func() {}
	}
	return e.world.Sched.AfterFor(d, e, fn).Cancel
}

func (e *env) Trace() trace.Sink {
	if e.world.Log != nil {
		return e.world.Log
	}
	return trace.Discard{}
}
