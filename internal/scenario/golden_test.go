package scenario

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestGoldenDigests pins the SHA-256 trace digest of every
// (scenario, seed) row of bench/golden_digests.tsv — the whole curated
// registry at seeds 1 and 7. The file is the only copy of the table;
// after an intended schedule change re-record it with
//
//	go run ./cmd/minsync-sim -scenario all -seeds 1,7 | sed '1d;/^#/d' | cut -f1,2,10 > bench/golden_digests.tsv
//
// in a commit that changes nothing else.
//
// Any kernel, network, trace or scenario change that perturbs the schedule
// — event ordering, RNG draw order, trace encoding — fails this test
// loudly. That is the point: determinism is the refactor contract, and
// "same seed ⇒ same digest" must survive every storage/layout change.
//
// Re-recorded once when digestTrace switched from hashing rendered text
// lines to the binary per-event tuple encoding (see digestTrace in
// run.go). The event *schedules* were verified byte-identical across
// that switch — every pre-switch row was green immediately before the
// encoding change landed — so the drift is purely the hash input
// format, not the kernel.
//
// Re-recorded a second time, log and KV rows only, when internal/log
// lost its FIFO/eager/loose mode: every log/KV scenario now runs the one
// engine production runs (canonical lane-striped batches, demand-driven
// starts, the coalescing relay), so those schedules moved on purpose.
// The consensus-workload rows stayed byte-identical across that change,
// and the argument that the new rows are right is not this file but the
// unmodified LOG-*/KV-* property blocks passing on them (430/430 cells
// at seeds 1–10).
//
// Re-recorded a third time, the four kv-lag-transfer and
// kv-lag-transfer-n7 rows only, when snapshot transfer lost its
// one-frame inline form: those rejoins now fetch a manifest and then
// chunks, one round trip more. The other 82 rows stayed byte-identical,
// and KV-Transfer passes on all 430 cells at seeds 1–10.
//
// Re-recorded a fourth time, all 86 rows, when DECIDE became one
// amplified plain message and a committer began entering the next round
// only once a peer names it: every schedule moved. The transfer scenarios
// lost their entry-count stop rule in the same change. All 430 cells at
// seeds 1–10 and every claim experiment pass with the checkers unmodified.
func TestGoldenDigests(t *testing.T) {
	table, err := os.ReadFile("../../bench/golden_digests.tsv")
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSuffix(string(table), "\n"), "\n")
	if want := 2 * len(All()); len(rows) != want {
		t.Errorf("%d rows for %d registered scenarios, want %d (seeds 1 and 7 each)", len(rows), len(All()), want)
	}
	for _, row := range rows {
		f := strings.Split(row, "\t")
		if len(f) != 3 {
			t.Fatalf("malformed row %q", row)
		}
		name, digest := f[0], f[2]
		seed, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			t.Fatalf("row %q: %v", row, err)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s, ok := Get(name)
			if !ok {
				t.Fatalf("scenario %q not registered", name)
			}
			o, err := Run(s, seed)
			if err != nil {
				t.Fatal(err)
			}
			if o.Digest != digest {
				t.Errorf("digest drifted for (%s, seed %d):\n  got  %s\n  want %s\nthe kernel refactor contract is byte-identical schedules — see the test comment",
					name, seed, o.Digest, digest)
			}
		})
	}
}
