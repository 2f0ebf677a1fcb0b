package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// liveSpec is one live workload's cluster shape.
type liveSpec struct {
	n, started int
	durable    bool
}

var liveWorkloads = map[string]liveSpec{
	"live-volatile": {n: 4, started: 4},
	"live-durable":  {n: 4, started: 4, durable: true},
	// Replica 4 never exists: every RB/CB/AC threshold is met by exactly
	// n−t processes and rounds it would coordinate run into their timer.
	"live-degraded": {n: 4, started: 3},
}

const (
	// warmUp lets connections, the relay and the Go runtime settle before
	// the window opens. Together with the boot it keeps the boot→load gap
	// far below the idle hazard (see README, known hazards).
	warmUp = 500 * time.Millisecond
	// quietWindow is the idle measurement after the load stops.
	quietWindow = 3 * time.Second
	// measuredBoots clusters share the plain pass's window.
	measuredBoots = 5
)

// passOpts selects what one boot of a cluster does.
type passOpts struct {
	traced  bool          // nodes run with -metrics and -trace-dir
	measure time.Duration // measured window
	quiet   time.Duration // idle window after the load (0 = none)
}

// livePass is everything one boot produced.
type livePass struct {
	setupS    float64       // first replica spawned → first command acknowledged
	stats     []*phaseStats // measured window, one per session
	wallS     float64       // measured window, first request → last reply
	cpuMS     float64       // all replicas, over the measured window
	peakRSSmb float64       // largest replica VmHWM
	delta     promSample    // replica 1's /metrics over the measured window (traced only)
	walBytes  int64         // replica 1's data-dir growth over the measured window
	idleInstS float64       // replica 1's applied instances per second, quiet window (traced only)
	idleCores float64       // all replicas' CPU cores used, quiet window
	attempted int
	failed    int
	problems  []string // output-check failures
}

// commitMS is the latency of every correctly acknowledged ordered
// command of the measured window, ascending.
func (p *livePass) commitMS() []float64 {
	var all []float64
	for _, st := range p.stats {
		all = append(all, st.commitMS...)
	}
	sort.Float64s(all)
	return all
}

// runLivePass boots one cluster, drives it, checks its outputs and tears
// it down. An error means the harness could not do its job; wrong
// outputs are reported in the pass, not as an error.
func runLivePass(env *benchEnv, spec liveSpec, seed int64, o passOpts) (*livePass, error) {
	dir, err := os.MkdirTemp(env.runDir, "cluster-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	c, err := startCluster(clusterSpec{
		bin: env.nodeBin, dir: dir, n: spec.n, started: spec.started,
		durable: spec.durable, traced: o.traced,
	})
	if err != nil {
		return nil, err
	}
	defer c.stop()

	// Session i talks to replica i only.
	sessions := make([]*session, liveSessions)
	for i := range sessions {
		sessions[i] = newSession(i+1, seed, c.replicas[i])
		defer sessions[i].close()
	}
	p := &livePass{}
	record := func(sts []*phaseStats) {
		for _, st := range sts {
			p.attempted += st.attempted
			p.failed += st.failed
			p.problems = append(p.problems, st.problems...)
		}
	}

	first := &phaseStats{}
	sessions[0].step(first)
	p.setupS = time.Since(c.spawned).Seconds()
	record([]*phaseStats{first})
	if first.failed > 0 {
		return nil, fmt.Errorf("first command was never acknowledged: %v\n%s", first.problems, c.replicas[0].logTail())
	}

	record(runPhase(sessions, time.Now().Add(warmUp)))
	if err := c.checkAlive("before the measured window"); err != nil {
		return nil, err
	}

	r1 := c.replicas[0]
	var scrape0 promSample
	if o.traced {
		if scrape0, err = r1.scrape(); err != nil {
			return nil, err
		}
	}
	wal0, err := r1.dataDirBytes()
	if err != nil {
		return nil, err
	}
	cpu0, err := c.cpuMS()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	p.stats = runPhase(sessions, t0.Add(o.measure))
	p.wallS = time.Since(t0).Seconds()
	cpu1, err := c.cpuMS()
	if err != nil {
		return nil, err
	}
	p.cpuMS = cpu1 - cpu0
	wal1, err := r1.dataDirBytes()
	if err != nil {
		return nil, err
	}
	p.walBytes = wal1 - wal0
	if o.traced {
		scrape1, err := r1.scrape()
		if err != nil {
			return nil, err
		}
		p.delta = scrape1.sub(scrape0)
	}
	record(p.stats)

	if o.quiet > 0 {
		inst0, err := r1.statusNumber("applied_instances")
		if err != nil {
			return nil, err
		}
		q0 := time.Now()
		time.Sleep(o.quiet)
		inst1, err := r1.statusNumber("applied_instances")
		if err != nil {
			return nil, err
		}
		cpu2, err := c.cpuMS()
		if err != nil {
			return nil, err
		}
		quietS := time.Since(q0).Seconds()
		p.idleInstS = (inst1 - inst0) / quietS
		p.idleCores = (cpu2 - cpu1) / 1000 / quietS
	}

	p.problems = append(p.problems, checkReplicasAgree(c, sessions)...)
	if p.peakRSSmb, err = c.peakRSSmb(); err != nil {
		return nil, err
	}
	return p, c.checkAlive("after the workload")
}

// checkReplicasAgree is the end-of-workload output check: every started
// replica reports the same applied_entries, and returns, for every key a
// session wrote, that session's last acknowledged value.
func checkReplicasAgree(c *cluster, sessions []*session) []string {
	var problems []string
	// Replicas apply a commit at slightly different instants; give the
	// slowest a moment to catch up before calling it divergence.
	deadline := time.Now().Add(5 * time.Second)
	for {
		applied := make([]float64, len(c.replicas))
		equal := true
		for i, r := range c.replicas {
			v, err := r.statusNumber("applied_entries")
			if err != nil {
				return append(problems, err.Error())
			}
			applied[i] = v
			equal = equal && v == applied[0]
		}
		if equal {
			break
		}
		if time.Now().After(deadline) {
			return append(problems, fmt.Sprintf("replicas did not converge: applied_entries %v", applied))
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, s := range sessions {
		keys := make([]string, 0, len(s.model))
		for k := range s.model {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			for _, r := range c.replicas {
				got, err := readKey(statusClient, r, k)
				if err != nil {
					problems = append(problems, fmt.Sprintf("replica %d read %s: %v", r.id, k, err))
				} else if got != s.model[k] {
					problems = append(problems, fmt.Sprintf("replica %d holds %s = %q, session %d last put %q", r.id, k, got, s.id, s.model[k]))
				}
				if len(problems) >= 10 {
					return problems
				}
			}
		}
	}
	return problems
}

// liveEndToEnd is the plain (--trace 0) run of a live workload, with
// -metrics and -trace-dir off. The window is split over measuredBoots
// clusters booted one after the other and their samples are pooled: a
// cluster keeps, for its whole life, whatever phase its replicas' relay
// flush grids and round timers happened to start in, and that phase moves
// a single boot's latency by more than any bound (see README, noise).
func liveEndToEnd(env *benchEnv, spec liveSpec, seed int64, seconds int) (*result, error) {
	window := time.Duration(seconds) * time.Second / measuredBoots
	var setups, rss, lat []float64
	var problems, perBoot []string
	attempted, failed := 0, 0
	wallS := 0.0
	for b := 0; b < measuredBoots; b++ {
		p, err := runLivePass(env, spec, seed*measuredBoots+int64(b), passOpts{measure: window})
		if err != nil {
			return nil, err
		}
		setups = append(setups, p.setupS)
		rss = append(rss, p.peakRSSmb)
		boot := p.commitMS()
		lat = append(lat, boot...)
		perBoot = append(perBoot, fmt.Sprintf("%.1f/s p50 %.1fms", float64(len(boot))/p.wallS, percentile(boot, 50)))
		wallS += p.wallS
		attempted += p.attempted
		failed += p.failed
		problems = append(problems, p.problems...)
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no ordered command was acknowledged: %v", problems)
	}
	sort.Float64s(lat)
	res := newResult(attempted, failed, problems)
	res.note("ordered commands acknowledged: %d in %.2fs over %d boots by %d closed-loop sessions; highest percentile with >= 10 samples beyond it: p%g",
		len(lat), wallS, measuredBoots, liveSessions, topPercentile(len(lat)))
	res.note("per boot: %s", strings.Join(perBoot, ", "))
	res.set("setup_s", median(setups))
	res.set("cmds_per_s", float64(len(lat))/wallS)
	res.set("commit_p50_ms", percentile(lat, 50))
	res.set("commit_p95_ms", percentile(lat, 95))
	res.set("peak_rss_mb", median(rss))
	return res, nil
}

// livePerLayer is the traced (--trace 1) run of a live workload: a short
// plain cluster for the tracing-overhead base, then a cluster with
// -metrics and -trace-dir measured as deltas at replica 1, then a quiet
// window on the same cluster.
func livePerLayer(env *benchEnv, spec liveSpec, seed int64, seconds int) (*result, error) {
	total := time.Duration(seconds) * time.Second
	plain, err := runLivePass(env, spec, seed, passOpts{measure: total / 3})
	if err != nil {
		return nil, err
	}
	p, err := runLivePass(env, spec, seed, passOpts{traced: true, measure: total - total/3, quiet: quietWindow})
	if err != nil {
		return nil, err
	}
	plainLat, lat := plain.commitMS(), p.commitMS()
	if len(plainLat) == 0 || len(lat) == 0 {
		return nil, fmt.Errorf("no ordered command was acknowledged: %v %v", plain.problems, p.problems)
	}
	res := newResult(plain.attempted+p.attempted, plain.failed+p.failed, append(plain.problems, p.problems...))
	cmds := float64(len(lat))
	d := p.delta

	// Stage means at replica 1, against the client-side span of the
	// session that talks to replica 1.
	stageSum := 0.0
	for _, stage := range []string{"admit_wait", "batch_wait", "consensus", "apply", "respond"} {
		label := fmt.Sprintf(`stage="%s"`, stage)
		ms := ratio(d.sum("minsync_stage_latency_ns_sum", label), d.sum("minsync_stage_latency_ns_count", label)) / 1e6
		res.set("stage."+stage+"_ms", ms)
		stageSum += ms
	}
	clientMean := mean(p.stats[0].commitMS)
	res.set("client.http_overhead_ms", clientMean-stageSum)
	res.note("traced pass: %d ordered commands in %.2fs; session 1 mean client latency %.3f ms = stages %.3f ms + http overhead %.3f ms",
		len(lat), p.wallS, clientMean, stageSum, clientMean-stageSum)

	instances := d.sum("minsync_log_applied_instances")
	noops := d.sum("minsync_log_noop_instances_total")
	res.set("log.instances_per_cmd", instances/cmds)
	res.set("log.noop_frac", ratio(noops, instances))
	res.set("log.cmds_per_batch", ratio(d.sum("minsync_log_committed_total"), instances-noops))
	res.set("cpu_ms_per_cmd", p.cpuMS/cmds)
	res.set("idle.instances_per_s", p.idleInstS)
	res.set("idle.cpu_cores", p.idleCores)
	res.set("rb.entries_per_frame", ratio(d.sum("minsync_rb_frame_entries_sum"), d.sum("minsync_rb_frame_entries_count")))
	res.set("rb.pulls_per_cmd", d.sum("minsync_rb_pulls_total")/cmds)
	res.set("netx.frames_per_cmd", d.sum("minsync_wire_frames_total")/cmds)
	res.set("netx.bytes_per_cmd", d.sum("minsync_wire_bytes_total")/cmds)
	res.set("rt.posts_per_cmd", d.sum("minsync_rt_posted_total")/cmds)
	res.set("store.wal_bytes_per_cmd", float64(p.walBytes)/cmds)
	res.set("sm.snapshots_per_cmd", d.sum("minsync_sm_snapshots_total")/cmds)
	res.set("sm.snapshot_bytes_per_cmd", d.sum("minsync_sm_snapshot_bytes_total")/cmds)
	shed := d.sum("minsync_pool_shed_total")
	res.set("txpool.shed_frac", ratio(shed, shed+d.sum("minsync_pool_admitted_total")))

	var localReads []float64
	retries := 0
	for _, st := range p.stats {
		localReads = append(localReads, st.localReadUS...)
		retries += st.retries
	}
	res.set("httpapi.local_read_p50_us", median(localReads))
	res.set("client.retries_per_cmd", float64(retries)/cmds)
	res.set("client.commit_p99_ms", percentile(lat, 99))
	res.set("trace.overhead_frac", percentile(lat, 50)/percentile(plainLat, 50)-1)

	for _, name := range simOnlyMetrics {
		res.set(name, 0)
	}
	if err := layerHarness(env, res); err != nil {
		return nil, err
	}
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
