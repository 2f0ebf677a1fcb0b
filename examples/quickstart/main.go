// Command quickstart is the smallest end-to-end use of the library: run
// one simulated Byzantine consensus instance (n = 4, t = 1) with mixed
// proposals and a silent faulty process, print who decided what, and
// verify every specification property on the trace.
package main

import (
	"fmt"
	"log"
	"maps"
	"slices"
	"time"

	"repro/minsync"
)

func main() {
	res, err := minsync.Simulate(minsync.SimConfig{
		// n = 4 processes, at most t = 1 Byzantine, proposals drawn from
		// m = 2 distinct values (the paper's feasibility bound for 4/1).
		N: 4, T: 1, M: 2,
		// Three correct processes propose...
		Proposals: map[minsync.ProcID]minsync.Value{
			1: "commit-tx-42",
			2: "commit-tx-42",
			3: "abort-tx-42",
		},
		// ...and p4 is Byzantine (here: crashed from the start).
		Byzantine: map[minsync.ProcID]minsync.Fault{
			4: {Kind: minsync.FaultSilent},
		},
		// Full synchrony: every channel timely within 5ms. (Run the
		// minimal-synchrony example to see the ◇⟨t+1⟩bisource setting.)
		Synchrony: minsync.FullSynchrony(5 * time.Millisecond),
		Seed:      2025,
		Check:     true,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== quickstart: m-valued Byzantine consensus (n=4, t=1) ===")
	for _, id := range slices.Sorted(maps.Keys(res.Decisions)) {
		fmt.Printf("  %v decided %q\n", id, res.Decisions[id])
	}
	fmt.Printf("agreed value : %q\n", res.Agreed)
	fmt.Printf("rounds       : %d\n", res.Rounds)
	fmt.Printf("latency      : %v (virtual)\n", res.Latency)
	fmt.Printf("messages     : %d point-to-point sends\n", res.Messages)
	fmt.Printf("properties   : %s\n", res.Report)
}
