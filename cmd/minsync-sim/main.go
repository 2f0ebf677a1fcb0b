// Command minsync-sim runs named compositions from the scenario registry
// — fault assignment × network schedule × workload — on the simulator and
// prints one machine-readable pass/fail row per (scenario, seed) cell.
// `-scenario all` sweeps the whole registry concurrently; `-scenario
// random` samples the cross-product from the seed. One-off hand-assembled
// executions go through the library instead (minsync.Simulate, examples/).
//
// It exits 1 when any property violation (or stale digest expectation) is
// found, 2 on a usage error.
//
// Examples:
//
//	minsync-sim -scenario all -seed 1
//	minsync-sim -scenario all -seeds 1,2,3,4,5
//	minsync-sim -scenario bisource-splitter -seed 7 -v
//	minsync-sim -scenario random -seed 99
//	minsync-sim -scenario log-baseline -deadline 1ms    # forced violation, exit 1
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

	"repro/internal/xtrace"
	"repro/minsync"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

type flags struct {
	scenario    string
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
	fs.StringVar(&f.scenario, "scenario", "", "registry name, 'all', or 'random' (required)")
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
	if f.scenario == "" {
		fs.Usage()
		return 2
	}
	return runCells(f, out)
}

// runCells executes the requested scenario cells and prints the
// machine-readable table. Exit code 1 on any violation or error.
func runCells(f flags, out io.Writer) int {
	seeds := []int64{f.seed}
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
	}
	var specs []minsync.Scenario
	switch f.scenario {
	case "all":
		specs = minsync.AllScenarios()
	case "random":
		// One spec sampled from the first seed, swept across all seeds.
		specs = []minsync.Scenario{minsync.RandomScenario(seeds[0])}
	default:
		s, ok := minsync.GetScenario(f.scenario)
		if !ok {
			log.Printf("unknown scenario %q; available:\n  %s\n  (or 'all' / 'random')",
				f.scenario, strings.Join(minsync.Scenarios(), "\n  "))
			return 2
		}
		specs = []minsync.Scenario{s}
	}
	if f.deadline > 0 {
		// Deadline override — also the documented way to *inject* a
		// violation and watch the exit code: truncating a scenario that
		// expects termination fails its CONS/LOG-Termination check.
		for i := range specs {
			specs[i].Deadline = f.deadline
		}
	}

	run := minsync.RunScenarioMatrix
	if f.metricsDump != "" {
		// Telemetry is passive: observed cells produce the same outcomes
		// and trace digests, plus one metric registry per cell to dump.
		run = minsync.RunScenarioMatrixObserved
		if err := os.MkdirAll(f.metricsDump, 0o755); err != nil {
			log.Print(err)
			return 2
		}
	}
	if f.traceDump != "" {
		// Causal tracing is passive like telemetry (and implies it): each
		// cell additionally carries per-replica flight-recorder dumps.
		run = minsync.RunScenarioMatrixTraced
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
	fmt.Fprintln(out, minsync.ScenarioTableHeader)
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
func dumpMetrics(dir string, results []minsync.ScenarioMatrixResult) error {
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
func dumpTraces(dir string, results []minsync.ScenarioMatrixResult) error {
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
