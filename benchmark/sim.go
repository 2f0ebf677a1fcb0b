package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"syscall"
	"time"

	"repro/internal/adversary"
	"repro/internal/harness"
	"repro/internal/kv"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/types"
)

const (
	simWorkload = "sim-batch"
	// simCommands distinct sessioned commands are submitted at t=0, so
	// every batch is full and every relay vector deep.
	simCommands = 2000
	simSessions = 8
	simN, simT  = 7, 2
	// simSetupRuns world constructions are timed for setup_s (median).
	simSetupRuns = 31
)

// Metrics that only one kind of workload can measure are reported as 0
// by the other kind: every traced run prints every per-layer metric.
var (
	simOnlyMetrics = []string{
		"sim.events_per_s", "sim.msgs_per_cmd", "sim.deliveries_per_cmd",
		"sim.instances", "sim.allocs_per_cmd", "sim.vtime_s",
	}
	liveOnlyMetrics = []string{
		"stage.admit_wait_ms", "stage.respond_ms", "client.http_overhead_ms",
		"idle.instances_per_s", "idle.cpu_cores",
		"netx.frames_per_cmd", "netx.bytes_per_cmd", "rt.posts_per_cmd",
		"store.wal_bytes_per_cmd", "httpapi.local_read_p50_us",
		"txpool.shed_frac", "client.retries_per_cmd", "client.commit_p99_ms",
	}
)

// simCommandsFor generates the workload: simCommands distinct puts and
// gets from simSessions sessions, keys drawn by the seed from each
// session's 128 keys, 64-byte values.
func simCommandsFor(seed int64) []kv.Command {
	rng := rand.New(rand.NewSource(seed))
	cmds := make([]kv.Command, simCommands)
	seqs := make([]uint64, simSessions+1)
	for i := range cmds {
		s := i%simSessions + 1
		seqs[s]++
		c := kv.Command{Client: uint64(s), Seq: seqs[s], Key: fmt.Sprintf("s%d-k%03d", s, rng.Intn(sessionKeys))}
		if i%4 == 1 {
			c.Op = kv.OpGet
		} else {
			c.Op = kv.OpPut
			c.Val = fmt.Sprintf("%016x%016x%016x%016x", rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64())
		}
		cmds[i] = c
	}
	return cmds
}

// simSpec is the paper's minimal-synchrony setting under the live
// engine knobs: n=7, t=2, process 7 silent from the start, process 1 a
// planted ⟨t+1⟩bisource (timely channels to and from processes 2 and 3,
// δ = 2 ms) and every other channel asynchronous with uniform 1–20 ms
// delay.
func simSpec(seed int64, reg *obs.Registry) runner.KVSpec {
	spec := runner.KVSpec{
		Params: types.Params{N: simN, T: simT},
		Topology: network.PlantBisource(simN, network.BisourceSpec{
			P: 1, In: []types.ProcID{2, 3}, Out: []types.ProcID{2, 3},
			Delta: types.Duration(2 * time.Millisecond),
		}),
		Seed:          seed,
		Commands:      simCommandsFor(seed),
		Byzantine:     map[types.ProcID]harness.Behavior{simN: adversary.Silent()},
		SnapshotEvery: 16,
		Compact:       true,
		Durable:       true, // write-ahead discipline on, over store.Memory
		Obs:           reg,
		Deadline:      types.Time(time.Hour),
	}
	spec.Log.Engine.TimeUnit = types.Duration(50 * time.Millisecond)
	spec.Log.BatchSize = 32
	spec.Log.Pipeline = 4
	spec.Log.Coalesce = true
	spec.Log.CanonicalBatches = true
	return spec
}

// fineLatencyBounds replaces the registry's 1-2-5 ladder for the commit
// latency histogram: 0.02 % steps from 1 ms to 1 h (75 k buckets), so
// that a quantile read from it is the virtual commit instant of the batch
// holding that rank, not an interpolation across a bucket many batches
// share. Registered before RunKV, which then finds and reuses the cell.
func fineLatencyBounds() []int64 {
	var out []int64
	for b := 1e6; b < 3.6e12; b *= 1.0002 {
		out = append(out, int64(b))
	}
	return out
}

// simRun is one execution of the workload on the deterministic kernel.
type simRun struct {
	res      *runner.KVResult
	reg      *obs.Registry
	wallS    float64
	mallocs  uint64
	problems []string
}

func runSim(seed int64, traced bool) (*simRun, error) {
	reg := obs.NewRegistry()
	reg.Histogram(obs.CommitLatencyName, fineLatencyBounds())
	spec := simSpec(seed, reg)
	if traced {
		spec.Trace = &runner.TraceSpec{}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	res, err := runner.RunKV(spec)
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	run := &simRun{res: res, reg: reg, wallS: wall.Seconds(), mallocs: m1.Mallocs - m0.Mallocs}

	// The repository's own LOG-*/KV-*/KV-Durable checks, unmodified.
	check := func(ok bool, format string, args ...any) {
		if !ok {
			run.problems = append(run.problems, fmt.Sprintf("seed %d: ", seed)+fmt.Sprintf(format, args...))
		}
	}
	check(res.CoveredAll(), "KV-Termination: only %d/%d distinct commands committed everywhere (stop: %v)", res.MinCovered(), res.Distinct, res.Stop)
	check(res.Consistent(), "LOG-Consistency: correct logs are not prefix-consistent")
	check(res.StatesAgree(), "KV-StateAgreement: correct replicas hold different state digests")
	check(res.SnapshotsAgree(), "KV-SnapshotAgreement: snapshot digests differ at a common index")
	d := res.ReferenceDivergence()
	check(d == "", "KV-ReferenceReplay: %s", d)
	d = res.DurablePrefix()
	check(d == "", "KV-Durable: %s", d)
	check(res.Engines[1].Retired() > 0, "KV-Compaction: no instance state was retired")
	return run, nil
}

func selfCPUms() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// simSetupS times world construction: RunKV stopped after its first
// event has built the world, every replica's stack and the submit
// timers, and run nothing else.
func simSetupS(seed int64) (float64, error) {
	var times []float64
	for i := 0; i < simSetupRuns; i++ {
		spec := simSpec(seed, nil)
		spec.MaxEvents = 1
		start := time.Now()
		if _, err := runner.RunKV(spec); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), nil
}

// simEndToEnd is the plain pass. Seeds seed, seed+1, … are executed until
// the window is used up; the wall-clock metrics are medians over those
// executions (one slow execution — a GC cycle, a descheduling — does not
// move them). The virtual-time commit latencies come from the first seed
// alone, so they repeat exactly for a given --seed whatever the machine's
// speed.
func simEndToEnd(seed int64, seconds int) (*result, error) {
	setup, err := simSetupS(seed)
	if err != nil {
		return nil, err
	}
	var first *simRun
	var problems []string
	var walls []float64
	failed, total := 0, 0.0
	for k := int64(0); total < float64(seconds); k++ {
		run, err := runSim(seed+k, false)
		if err != nil {
			return nil, err
		}
		walls = append(walls, run.wallS)
		total += run.wallS
		if first == nil {
			first = run
		}
		failed += run.res.Distinct - run.res.MinCovered()
		problems = append(problems, run.problems...)
	}
	rss, err := procPeakRSSmb(os.Getpid())
	if err != nil {
		return nil, err
	}
	res := newResult(len(walls)*simCommands, failed, problems)
	h := first.res.CommitLatency
	res.note("sim-batch: n=%d t=%d, process %d silent, planted <t+1>bisource at process 1 (delta 2ms), other links uniform 1-20ms; %d seeds x %d commands in %.2fs wall",
		simN, simT, simN, len(walls), simCommands, total)
	res.note("virtual-time commit latency from seed %d: %d samples (submit -> first local commit, every correct replica); highest percentile with >= 10 samples beyond it: p%g",
		seed, h.Count(), topPercentile(int(h.Count())))
	res.set("setup_s", setup)
	res.set("cmds_per_s", simCommands/median(walls))
	res.set("commit_p50_ms", h.Quantile(0.50)/1e6)
	res.set("commit_p95_ms", h.Quantile(0.95)/1e6)
	res.set("peak_rss_mb", rss)
	return res, nil
}

// simPerLayer is the traced pass: plain and traced executions of the
// same seeds alternate until the window is used up. Counts come from the
// first plain execution and repeat exactly for a given --seed.
func simPerLayer(env *benchEnv, seed int64, seconds int) (*result, error) {
	var first, firstTraced *simRun
	var problems []string
	runs, failed := 0, 0
	var events, plainWall, tracedWall float64
	var cpus []float64
	for k := int64(0); plainWall+tracedWall < float64(seconds); k++ {
		cpu0 := selfCPUms()
		plain, err := runSim(seed+k, false)
		if err != nil {
			return nil, err
		}
		cpus = append(cpus, selfCPUms()-cpu0)
		traced, err := runSim(seed+k, true)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first, firstTraced = plain, traced
		}
		runs += 2
		events += float64(plain.res.Events)
		plainWall += plain.wallS
		tracedWall += traced.wallS
		failed += 2*plain.res.Distinct - plain.res.MinCovered() - traced.res.MinCovered()
		problems = append(append(problems, plain.problems...), traced.problems...)
	}
	r := first.res
	if r.MinCovered() == 0 {
		return nil, fmt.Errorf("no command committed: %v", problems)
	}
	res := newResult(runs*simCommands, failed, problems)
	cmds := float64(r.MinCovered())
	eng := r.Engines[1]
	applied, noops := float64(eng.Applied()), float64(eng.NoOps())
	relay := eng.Relay()
	counters := first.reg.Snapshot().Counters

	res.set("cpu_ms_per_cmd", median(cpus)/simCommands)
	res.set("sim.events_per_s", events/plainWall)
	res.set("sim.msgs_per_cmd", float64(r.Messages)/cmds)
	res.set("sim.deliveries_per_cmd", float64(r.Deliveries())/cmds)
	res.set("sim.instances", applied)
	res.set("sim.allocs_per_cmd", float64(first.mallocs)/cmds)
	res.set("sim.vtime_s", time.Duration(r.End).Seconds())
	res.set("log.instances_per_cmd", applied/cmds)
	res.set("log.noop_frac", ratio(noops, applied))
	res.set("log.cmds_per_batch", ratio(float64(eng.Committed()), applied-noops))
	res.set("rb.entries_per_frame", ratio(float64(relay.EntriesOut()), float64(relay.FramesOut())))
	res.set("rb.pulls_per_cmd", float64(relay.Pulls())/cmds)
	res.set("sm.snapshots_per_cmd", float64(r.Appliers[1].Snapshots())/cmds)
	res.set("sm.snapshot_bytes_per_cmd", float64(counters[obs.WithLabels("minsync_sm_snapshot_bytes_total", fmt.Sprintf("proc=%q", fmt.Sprint(types.ProcID(1))))])/cmds)
	// Stage latencies in virtual time, all correct replicas pooled. The
	// simulator submits straight to the log, so the two edge stages do
	// not exist here.
	st := firstTraced.res.Stages
	for name, h := range map[string]*obs.Histogram{"batch_wait": st.BatchWait, "consensus": st.Consensus, "apply": st.Apply} {
		res.set("stage."+name+"_ms", ratio(float64(h.Sum()), float64(h.Count()))/1e6)
	}
	res.set("trace.overhead_frac", tracedWall/plainWall-1)
	res.note("sim-batch traced pass: %d executions (plain and traced alternating) in %.2fs wall; counts from seed %d; trace.overhead_frac is traced wall / plain wall - 1",
		runs, plainWall+tracedWall, seed)
	for _, name := range liveOnlyMetrics {
		res.set(name, 0)
	}
	if err := layerHarness(env, res); err != nil {
		return nil, err
	}
	return res, nil
}
