// Command benchmark is the repository's benchmark: it builds
// cmd/minsync-node, runs a workload against it (or against the
// deterministic simulator), checks the outputs and prints every metric
// named in BENCHMARK.json with its unit. See README.md in this directory
// for the workloads, the metric glossary and how the metrics interact.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh --workload live-volatile --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --seed 1               # every workload, both passes
//	bash benchmark/run.sh --seed 1 -repeat 10    # spread of every metric against its bound
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// benchSpec is BENCHMARK.json: the one place workload names, metric
// names, units and bounds are fixed. The program computes values by
// name and takes everything else from here.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// defs returns the metrics a pass reports: the end-to-end ones for the
// plain pass (0), the per-layer ones for the traced pass (1).
func (s *benchSpec) defs(pass int) []metricDef {
	if pass == 0 {
		return s.EndToEnd
	}
	return s.PerLayer
}

func loadBenchSpec() (*benchSpec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// benchEnv is what every workload needs from the harness.
type benchEnv struct {
	nodeBin string // built cmd/minsync-node
	runDir  string // scratch directory of this run, removed on exit
}

// result is one run of one workload: the values by metric name, the
// failure accounting, and what the output checks found.
type result struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
	notes             []string
}

func newResult(attempted, failed int, problems []string) *result {
	return &result{attempted: attempted, failed: failed, problems: problems, values: make(map[string]float64)}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// correct: no operation failed and every output check passed.
func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// report prints the human-readable block and, as the last line, the one
// JSON object the driver reads. Every metric of defs must have been
// computed and nothing else may have been: the lists in BENCHMARK.json
// and the code cannot drift apart silently.
func (r *result) report(workload string, defs []metricDef) error {
	type metricValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, make(map[string]metricValue)}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s is in BENCHMARK.json but was not measured", workload, d.Name)
		}
		out.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	if len(r.values) != len(defs) {
		for name := range r.values {
			if _, ok := out.Metrics[name]; !ok {
				return fmt.Errorf("%s: metric %s was measured but is not in BENCHMARK.json", workload, name)
			}
		}
	}
	for _, n := range r.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Printf("# PROBLEM: %s\n", p)
	}
	for _, d := range defs {
		fmt.Printf("%-14s %-28s %14.4f %s\n", workload, d.Name, r.values[d.Name], d.Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runWorkload runs one pass of one workload: --trace 0 is the plain pass
// that yields the end-to-end metrics, --trace 1 the traced pass that
// yields the per-layer ones.
func runWorkload(env *benchEnv, name string, seed int64, seconds, trace int) (*result, error) {
	if spec, ok := liveWorkloads[name]; ok {
		if trace == 0 {
			return liveEndToEnd(env, spec, seed, seconds)
		}
		return livePerLayer(env, spec, seed, seconds)
	}
	if name == simWorkload {
		if trace == 0 {
			return simEndToEnd(seed, seconds)
		}
		return simPerLayer(env, seed, seconds)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// buildNode builds cmd/minsync-node from the checkout the benchmark runs
// in. Build time is reported, never part of setup_s.
func buildNode(outDir string) (string, error) {
	bin := filepath.Join(outDir, "minsync-node")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/minsync-node")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build cmd/minsync-node: %w", err)
	}
	fmt.Printf("# build_s %.3f (cmd/minsync-node; excluded from setup_s)\n", time.Since(start).Seconds())
	return bin, nil
}

func main() {
	// Replicas are spawned with Pdeathsig, which follows the spawning
	// thread: pin main to the one thread that lives as long as the process.
	runtime.LockOSThread()
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "run one workload (default: every workload of BENCHMARK.json)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds  = flag.Int("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", -1, "0 = plain pass (end-to-end metrics), 1 = traced pass (per-layer metrics), -1 = both")
		repeat   = flag.Int("repeat", 0, "run N times with seeds seed..seed+N-1 and report each metric's spread against its bound")
	)
	flag.Parse()
	spec, err := loadBenchSpec()
	if err != nil {
		return fail(err)
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	var workloads []string
	for _, w := range spec.Workloads {
		if *workload == "" || *workload == w.Name {
			workloads = append(workloads, w.Name)
		}
	}
	if len(workloads) == 0 {
		return fail(fmt.Errorf("workload %q is not in BENCHMARK.json", *workload))
	}
	// One workload, one pass, once: this process measures it. Anything
	// more is a series of such runs, each in a process of its own — the
	// driver starts one process per run, and a run must not inherit the
	// heap, the caches or the peak RSS of the run before it.
	if *workload != "" && *trace >= 0 && *repeat == 0 {
		return runOne(spec, *workload, *seed, *seconds, *trace)
	}
	passes := []int{0, 1}
	if *trace >= 0 {
		passes = []int{*trace}
	}
	return runSeries(spec, workloads, passes, *seed, *seconds, *repeat)
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	return 1
}

// runOne is what the driver invokes: one pass of one workload, with the
// JSON result as the last line of standard output. An incorrect run is
// reported there, not through the exit code.
func runOne(spec *benchSpec, workload string, seed int64, seconds, pass int) int {
	buildDir, err := filepath.Abs(".bench_build")
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return fail(err)
	}
	env := &benchEnv{}
	if env.runDir, err = os.MkdirTemp(buildDir, "run-"); err != nil {
		return fail(err)
	}
	cleanup := func() {
		stopAllClusters()
		os.RemoveAll(env.runDir)
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	printEnvironment(env.runDir)
	if env.nodeBin, err = buildNode(buildDir); err != nil {
		return fail(err)
	}
	res, err := runWorkload(env, workload, seed, seconds, pass)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", workload, err))
	}
	if err := res.report(workload, spec.defs(pass)); err != nil {
		return fail(err)
	}
	return 0
}

// runOutput is the JSON line of one run, as the driver reads it.
type runOutput struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChild runs one pass of one workload in a fresh process and returns
// its output and the parsed last line.
func runChild(ctx context.Context, workload string, seed int64, seconds, pass int) (string, *runOutput, error) {
	self, err := os.Executable()
	if err != nil {
		return "", nil, err
	}
	cmd := exec.CommandContext(ctx, self, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(pass))
	// On interrupt the child gets the chance to kill its replicas.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return string(stdout), nil, fmt.Errorf("%s seed %d pass %d: %w", workload, seed, pass, err)
	}
	text := strings.TrimRight(string(stdout), "\n")
	var out runOutput
	if err := json.Unmarshal([]byte(text[strings.LastIndexByte(text, '\n')+1:]), &out); err != nil {
		return text, nil, fmt.Errorf("%s seed %d pass %d: last line is not a result: %w", workload, seed, pass, err)
	}
	return text, &out, nil
}

// runSeries runs the chosen workloads and passes max(repeat, 1) times,
// seeds seed, seed+1, …, one process per run.
//
// Without -repeat it is the by-hand suite: every run's report is printed
// and an incorrect run fails the suite.
//
// With -repeat it is the acceptance check of the benchmark itself and the
// tool for parent/change comparisons: it prints, per workload and metric,
// quartiles, median and interquartile spread over the runs, and fails
// when an end-to-end metric's spread exceeds its bound (setup_s is
// reported but exempt, as in the driver's rule) or a run was incorrect.
func runSeries(spec *benchSpec, workloads []string, passes []int, seed int64, seconds, repeat int) int {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	type key struct{ workload, metric string }
	values := make(map[key][]float64)
	code := 0
	for i := 0; i < max(repeat, 1); i++ {
		for _, w := range workloads {
			for _, pass := range passes {
				text, out, err := runChild(ctx, w, seed+int64(i), seconds, pass)
				if repeat == 0 || err != nil {
					fmt.Println(text)
				}
				if err != nil {
					return fail(err)
				}
				if !out.Correct {
					fmt.Printf("# %s seed %d pass %d INCORRECT: %d of %d ops failed\n", w, seed+int64(i), pass, out.Failed, out.Attempted)
					code = 1
				}
				for name, m := range out.Metrics {
					values[key{w, name}] = append(values[key{w, name}], m.Value)
				}
				if repeat > 0 {
					fmt.Fprintf(os.Stderr, "repeat %d/%d %s pass %d done\n", i+1, repeat, w, pass)
				}
			}
		}
	}
	if repeat < 2 {
		return code
	}
	fmt.Printf("%-14s %-28s %-6s %12s %12s %12s %8s %6s\n", "workload", "metric", "unit", "q1", "median", "q3", "spread", "bound")
	for _, w := range workloads {
		for _, pass := range passes {
			for _, d := range spec.defs(pass) {
				v := values[key{w, d.Name}]
				q1, q3 := quartiles(v)
				sp := spread(v)
				verdict := ""
				if pass == 0 {
					verdict = fmt.Sprintf("%6.3f", d.Bound)
					if sp > d.Bound && d.Name != "setup_s" {
						verdict += "  SPREAD EXCEEDS BOUND"
						code = 1
					}
				}
				fmt.Printf("%-14s %-28s %-6s %12.4f %12.4f %12.4f %8.4f %s\n", w, d.Name, d.Unit, q1, median(v), q3, sp, verdict)
				if pass == 0 {
					fmt.Printf("#   every run: %.4g\n", v)
				}
			}
		}
	}
	return code
}

// printEnvironment records what every run should be read against.
func printEnvironment(dataDir string) {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	fmt.Printf("# environment: nproc=%d GOMAXPROCS=%d go=%s kernel=%s data-dir-fs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), strings.TrimSpace(string(kernel)), fsType(dataDir))
	fmt.Printf("# live workloads: TCP loopback, no injected message delay — latency is timers plus processor time\n")
}

// fsType names the filesystem holding path (where -data-dir lands).
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	known := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs", 0x65735546: "fuse",
	}
	if name, ok := known[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
