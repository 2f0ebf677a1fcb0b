// minsync-bench holds the two developer utilities that outlived the old
// perf-trajectory harness (performance claims are made with
// `bash benchmark/run.sh` against BENCHMARK.json, nowhere else):
//
//	minsync-bench -digests        # dump the scenario digest table
//	minsync-bench -load http://h1:8081,http://h2:8082 [-clients 64] [-ops 32]
//
// The -digests mode prints "name<TAB>seed<TAB>sha256" for every curated
// scenario at seeds 1 and 7 — the source of truth for the golden-digest
// regression fixtures (internal/scenario/golden_test.go and
// bench/golden_digests.tsv).
//
// The -load mode drives a LIVE cluster's HTTP/JSON edge (see load.go): a
// pass/fail load generator for scripts/load-smoke.sh and the e2e tests,
// which also reports commands/sec and wall-clock latency quantiles.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/scenario"
)

func main() {
	digests := flag.Bool("digests", false, "print the scenario digest table and exit")
	load := flag.String("load", "", "sustained-load mode: comma list of live replica HTTP base URLs")
	label := flag.String("label", "load", "load mode: label embedded in the report file name")
	out := flag.String("out", ".", "load mode: directory for BENCH_<label>.json")
	clients := flag.Int("clients", 64, "load mode: concurrent client sessions")
	ops := flag.Int("ops", 32, "load mode: commands per client session")
	reqTimeout := flag.Duration("req-timeout", 10*time.Second, "load mode: per-command commit timeout")
	flag.Parse()

	var err error
	switch {
	case *digests:
		err = dumpDigests()
	case *load != "":
		err = runLoadMode(*load, *clients, *ops, *reqTimeout, *label, *out)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "minsync-bench:", err)
		os.Exit(1)
	}
}

// dumpDigests prints the digest table for every curated scenario.
func dumpDigests() error {
	for _, s := range scenario.All() {
		p, err := scenario.Prepare(s)
		if err != nil {
			return err
		}
		for _, seed := range []int64{1, 7} {
			o, err := p.Run(seed)
			if err != nil {
				return fmt.Errorf("%s seed=%d: %w", s.Name, seed, err)
			}
			fmt.Printf("%s\t%d\t%s\n", s.Name, seed, o.Digest)
		}
	}
	return nil
}
