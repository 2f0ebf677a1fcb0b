// Command minsync-sim runs named compositions from the scenario registry
// — fault assignment × network schedule × workload — on the simulator and
// prints one machine-readable pass/fail row per (scenario, seed) cell.
// `-scenario all` sweeps the whole registry concurrently; `-scenario
// random` samples the cross-product from the seed. One-off hand-assembled
// executions go through the library instead (minsync.Simulate, examples/).
//
// `-exp <id>|all` runs the paper's claim experiments instead (E5–E12 and
// the GST sweep; docs/paper-map.md has the claims → experiments table):
// each prints its claim, a measurement table over the seeds (three from
// -seed on, unless -seeds lists them) and a PASS/FAIL verdict.
//
// It exits 1 when any property violation or failed experiment is found, 2
// on a usage error.
//
// Examples:
//
//	minsync-sim -scenario all -seed 1
//	minsync-sim -scenario all -seeds 1,2,3,4,5
//	minsync-sim -scenario bisource-splitter -seed 7 -v
//	minsync-sim -scenario random -seed 99
//	minsync-sim -scenario log-baseline -deadline 1ms    # forced violation, exit 1
//	minsync-sim -exp all
//	minsync-sim -exp E7 -seeds 1,2,3,4,5
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/scenario"
	"repro/internal/xtrace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

type flags struct {
	scenario    string
	exp         string
	seed        int64
	seeds       string
	workers     int
	verbose     bool
	metricsDump string
	traceDump   string
	deadline    time.Duration
}

// run parses args, executes the requested cells with the result table on
// out (diagnostics go to stderr) and returns the process exit code.
func run(args []string, out io.Writer) int {
	var f flags
	fs := flag.NewFlagSet("minsync-sim", flag.ContinueOnError)
	fs.StringVar(&f.scenario, "scenario", "", "registry name, 'all', or 'random' (this or -exp is required)")
	fs.StringVar(&f.exp, "exp", "", "claim experiment id (E5..E12, GST) or 'all'")
	fs.Int64Var(&f.seed, "seed", 1, "random seed (identical seeds replay identically)")
	fs.StringVar(&f.seeds, "seeds", "", "comma list of seeds (overrides -seed)")
	fs.IntVar(&f.workers, "workers", runtime.NumCPU(), "concurrent scenario executions")
	fs.BoolVar(&f.verbose, "v", false, "print per-scenario reports")
	fs.StringVar(&f.metricsDump, "metrics-dump", "", "write one Prometheus metric snapshot per cell into this directory")
	fs.StringVar(&f.traceDump, "trace-dump", "", "attach causal tracing and write per-replica flight-recorder dumps for FAILING cells into this directory (merge with minsync-trace)")
	fs.DurationVar(&f.deadline, "deadline", 0, "virtual time budget (0 = the scenario's own)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (f.scenario == "") == (f.exp == "") {
		fs.Usage()
		return 2
	}
	seeds := []int64{f.seed}
	if f.exp != "" {
		seeds = append(seeds, f.seed+1, f.seed+2)
	}
	if f.seeds != "" {
		seeds = seeds[:0]
		for _, part := range splitNonEmpty(f.seeds) {
			s, err := strconv.ParseInt(part, 10, 64)
			if err != nil {
				log.Printf("bad seed %q: %v", part, err)
				return 2
			}
			seeds = append(seeds, s)
		}
		if len(seeds) == 0 {
			// A sweep of nothing would pass: CI's greps count rows.
			log.Printf("-seeds %q lists no seed", f.seeds)
			return 2
		}
	}
	if f.exp != "" {
		return runExperiments(f, seeds, out)
	}
	return runCells(f, seeds, out)
}

// runExperiments runs the requested claim experiments over the seeds and
// prints each one's claim, table and verdict. Exit code 1 on any FAIL.
func runExperiments(f flags, seeds []int64, out io.Writer) int {
	var ids []string
	ran, failed := 0, 0
	for _, e := range scenario.Experiments() {
		ids = append(ids, e.ID)
		if !strings.EqualFold(f.exp, "all") && !strings.EqualFold(f.exp, e.ID) {
			continue
		}
		ran++
		res := e.Run(seeds, f.deadline)
		fmt.Fprintln(out, res)
		if !res.Pass {
			failed++
		}
	}
	switch {
	case ran == 0:
		log.Printf("unknown experiment %q; available: %s (or 'all')", f.exp, strings.Join(ids, ", "))
		return 2
	case failed > 0:
		log.Printf("%d experiment(s) FAILED", failed)
		return 1
	}
	return 0
}

// runCells executes the requested scenario cells and prints the
// machine-readable table. Exit code 1 on any violation or error.
func runCells(f flags, seeds []int64, out io.Writer) int {
	var specs []scenario.Spec
	switch f.scenario {
	case "all":
		specs = scenario.All()
	case "random":
		// One spec sampled from the first seed, swept across all seeds.
		specs = []scenario.Spec{scenario.Random(seeds[0])}
	default:
		s, ok := scenario.Get(f.scenario)
		if !ok {
			log.Printf("unknown scenario %q; available:\n  %s\n  (or 'all' / 'random')",
				f.scenario, strings.Join(scenario.Names(), "\n  "))
			return 2
		}
		specs = []scenario.Spec{s}
	}
	return runSpecs(f, specs, seeds, out)
}

// runSpecs runs specs × seeds and prints the table.
func runSpecs(f flags, specs []scenario.Spec, seeds []int64, out io.Writer) int {
	if f.deadline > 0 {
		// Deadline override — also the documented way to *inject* a
		// violation and watch the exit code: truncating a scenario that
		// expects termination fails its CONS/KV-Termination check.
		for i := range specs {
			specs[i].Deadline = f.deadline
		}
	}

	run := scenario.RunMatrix
	if f.metricsDump != "" {
		// Every cell counts into a registry of its own; telemetry is
		// passive, so dumping it changes no outcome or trace digest.
		if err := os.MkdirAll(f.metricsDump, 0o755); err != nil {
			log.Print(err)
			return 2
		}
	}
	if f.traceDump != "" {
		// Causal tracing is passive like telemetry: each cell additionally
		// carries per-replica flight-recorder dumps.
		run = scenario.RunMatrixTraced
		if err := os.MkdirAll(f.traceDump, 0o755); err != nil {
			log.Print(err)
			return 2
		}
	}
	results := run(specs, seeds, f.workers)
	if f.metricsDump != "" {
		if err := dumpMetrics(f.metricsDump, results); err != nil {
			log.Print(err)
			return 2
		}
	}
	if f.traceDump != "" {
		if err := dumpTraces(f.traceDump, results); err != nil {
			log.Print(err)
			return 2
		}
	}
	fmt.Fprintln(out, scenario.TableHeader)
	failures := 0
	for _, r := range results {
		if r.Err != nil {
			failures++
			fmt.Fprintf(out, "%s\t%d\t-\tERROR\t-\t-\t-\t-\t-\t%v\n", r.Spec.Name, r.Seed, r.Err)
			continue
		}
		fmt.Fprintln(out, r.Outcome.String())
		if !r.Outcome.Pass {
			failures++
			if f.verbose {
				fmt.Fprintln(out, indent(r.Outcome.Report.String()))
			}
		} else if f.verbose {
			fmt.Fprintf(out, "  # %s: bisource-seen=%v stalled=%d\n",
				r.Spec.Name, r.Outcome.BisourceSeen, r.Outcome.Stalled)
		}
	}
	fmt.Fprintf(out, "# %d/%d cells passed (%d scenarios × %d seeds)\n",
		len(results)-failures, len(results), len(specs), len(seeds))
	if failures > 0 {
		return 1
	}
	return 0
}

// dumpMetrics writes one Prometheus text-exposition file per observed
// matrix cell: <dir>/<scenario>_seed<seed>.prom.
func dumpMetrics(dir string, results []scenario.MatrixResult) error {
	for _, r := range results {
		if r.Metrics == nil {
			continue // cell errored before running
		}
		var buf strings.Builder
		if err := r.Metrics.WritePrometheus(&buf); err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s_seed%d.prom", r.Spec.Name, r.Seed))
		if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// dumpTraces writes the flight-recorder dumps of every FAILING traced
// cell: <dir>/<scenario>_seed<seed>_p<proc>.trace.json. Passing cells
// are skipped — the recorder is a forensic tool, and a full-matrix dump
// would bury the interesting cells (consensus-only workloads carry no
// commands and produce no dumps either way).
func dumpTraces(dir string, results []scenario.MatrixResult) error {
	wrote := 0
	for _, r := range results {
		if r.Err != nil || r.Outcome == nil || r.Outcome.Pass || len(r.Outcome.Trace) == 0 {
			continue
		}
		prefix := fmt.Sprintf("%s_seed%d", r.Spec.Name, r.Seed)
		paths, err := xtrace.WriteDumps(dir, prefix, r.Outcome.Trace)
		if err != nil {
			return err
		}
		wrote += len(paths)
		fmt.Fprintf(os.Stderr, "# flight recorder: %s → %d dump(s) in %s\n", prefix, len(paths), dir)
	}
	if wrote == 0 {
		fmt.Fprintf(os.Stderr, "# flight recorder: no failing traced cells, nothing dumped\n")
	}
	return nil
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ")
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
