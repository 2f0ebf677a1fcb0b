package scenario

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestObservedDigestsUnchanged pins the telemetry contract: attaching a
// registry (RunObserved) is PASSIVE. The instrumented layers only add to
// pre-registered atomic cells — they never schedule events, branch
// protocol behavior, or touch the RNG — so an observed cell's digest is
// byte-identical to the unobserved one across every workload family.
func TestObservedDigestsUnchanged(t *testing.T) {
	cases := []struct {
		name string
		seed int64
	}{
		{"baseline-sync", 1},   // consensus
		{"sync-random-byz", 1}, // consensus + Byzantine
		{"log-baseline", 1},    // KV, snapshots off
		{"kv-sessions", 7},     // KV + sessions/retries
		{"kv-lag-transfer", 1}, // KV + compaction + transfer
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s, ok := Get(tc.name)
			if !ok {
				t.Fatalf("scenario %q not registered", tc.name)
			}
			p, err := Prepare(s)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := p.Run(tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			observed, err := p.RunObserved(tc.seed, reg)
			if err != nil {
				t.Fatal(err)
			}
			if observed.Digest != plain.Digest {
				t.Fatalf("observation perturbed the schedule:\n  plain    %s\n  observed %s",
					plain.Digest, observed.Digest)
			}
			if observed.Events != plain.Events || observed.Messages != plain.Messages {
				t.Fatalf("observation changed event/message counts: %d/%d vs %d/%d",
					observed.Events, observed.Messages, plain.Events, plain.Messages)
			}
			// And it actually observed something: every cell has at least
			// one live RB counter (all workloads ride reliable broadcast).
			snap := reg.Snapshot()
			live := false
			for name, v := range snap.Counters {
				if strings.HasPrefix(name, "minsync_rb_") && v > 0 {
					live = true
					break
				}
			}
			if !live {
				t.Fatal("registry attached but no RB series counted")
			}
		})
	}
}
