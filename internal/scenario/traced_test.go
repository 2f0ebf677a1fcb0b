package scenario

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/xtrace"
)

// TestTracedDigestsUnchanged pins the xtrace contract: attaching causal
// tracing (RunTraced) is PASSIVE, exactly like telemetry. Tracers never
// emit into the digest-hashed trace log, never schedule events and
// never branch protocol behavior, so a traced cell's digest is
// byte-identical to the untraced one across KV workloads
// (consensus workloads run untraced by definition — no commands).
func TestTracedDigestsUnchanged(t *testing.T) {
	cases := []struct {
		name string
		seed int64
	}{
		{"log-baseline", 1},      // KV, snapshots off
		{"log-deep-pipeline", 2}, // deep pipeline
		{"kv-sessions", 7},       // KV + sessions/retries
		{"kv-lag-transfer", 1},   // KV + compaction + transfer
		{"rb-coalesce-async", 1}, // coalesced relay path
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s, ok := Get(tc.name)
			if !ok {
				t.Skipf("scenario %q not registered", tc.name)
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
			traced, err := p.RunTraced(tc.seed, reg)
			if err != nil {
				t.Fatal(err)
			}
			if traced.Digest != plain.Digest {
				t.Fatalf("tracing perturbed the schedule:\n  plain  %s\n  traced %s",
					plain.Digest, traced.Digest)
			}
			if traced.Events != plain.Events || traced.Messages != plain.Messages {
				t.Fatalf("tracing changed event/message counts: %d/%d vs %d/%d",
					traced.Events, traced.Messages, plain.Events, plain.Messages)
			}
			// And it actually traced something: every replica dumped
			// spans covering at least the consensus stage.
			if len(traced.Trace) == 0 {
				t.Fatal("tracing attached but no flight-recorder dumps returned")
			}
			sawConsensus := false
			for _, d := range traced.Trace {
				if d.Total == 0 {
					t.Fatalf("replica %d recorded no spans", d.Proc)
				}
				for _, sp := range d.Spans {
					if sp.Stage == xtrace.StageConsensus {
						sawConsensus = true
					}
					if sp.Proc != d.Proc {
						t.Fatalf("span %d stamped proc %d inside replica %d's dump", sp.ID, sp.Proc, d.Proc)
					}
				}
			}
			if !sawConsensus {
				t.Fatal("no consensus-stage span in any dump")
			}
			// The stage histograms flowed into the registry.
			if h := reg.Histogram(obs.WithLabels(obs.StageLatencyName, `stage="consensus"`), nil); h.Count() == 0 {
				t.Fatal("consensus stage histogram empty")
			}
		})
	}
}

// TestTracedDumpsMerge pins the artifact path end-to-end: a traced run's
// dumps merge into a valid Chrome trace-event document with events from
// every replica.
func TestTracedDumpsMerge(t *testing.T) {
	s, ok := Get("kv-sessions")
	if !ok {
		t.Fatal("scenario kv-sessions not registered")
	}
	p, err := Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	o, err := p.RunTraced(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := xtrace.MergeChromeTrace(o.Trace)
	if err != nil {
		t.Fatal(err)
	}
	n, err := xtrace.ValidateChromeTrace(data)
	if err != nil {
		t.Fatalf("merged document invalid: %v", err)
	}
	if n == 0 {
		t.Fatal("merged document empty")
	}
}
