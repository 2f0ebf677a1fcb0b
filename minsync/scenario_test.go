package minsync_test

import (
	"strings"
	"testing"

	"repro/minsync"
)

// TestRunScenarioByName exercises the public scenario entry points:
// registry lookup, execution, reproducibility and the random sampler.
func TestRunScenarioByName(t *testing.T) {
	names := minsync.Scenarios()
	if len(names) < 20 {
		t.Fatalf("registry has %d scenarios, want ≥ 20", len(names))
	}
	a, err := minsync.RunScenario("bisource-minimal", 42)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Pass {
		t.Fatalf("bisource-minimal failed:\n%s", a.Report)
	}
	b, err := minsync.RunScenario("bisource-minimal", 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Error("same seed produced different digests")
	}
	if _, err := minsync.RunScenario("no-such-scenario", 1); err == nil {
		t.Error("unknown scenario name did not error")
	}
	r, err := minsync.RunScenario("random", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(r.Name, "random-") {
		t.Errorf("random scenario named %q", r.Name)
	}
}

// TestRunScenarioMatrix smoke-tests the public concurrent matrix runner.
func TestRunScenarioMatrix(t *testing.T) {
	s1, s2 := minsync.RandomScenario(1), minsync.RandomScenario(2)
	results := minsync.RunScenarioMatrix([]minsync.Scenario{s1, s2}, []int64{1, 2}, 4)
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s seed %d: %v", r.Spec.Name, r.Seed, r.Err)
		}
		if !r.Outcome.Pass {
			t.Errorf("%s seed %d failed:\n%s", r.Spec.Name, r.Seed, r.Outcome.Report)
		}
	}
}
