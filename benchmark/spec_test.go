package main

import (
	"os"
	"testing"
)

// BENCHMARK.json is the catalogue the program reports against; this pins
// the parts of it the code depends on.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("benchmark")
	spec, err := loadBenchSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, live := liveWorkloads[w.Name]; !live && w.Name != simWorkload {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	if len(spec.Workloads) != len(liveWorkloads)+1 {
		t.Errorf("%d workloads listed, %d implemented", len(spec.Workloads), len(liveWorkloads)+1)
	}
	names := make(map[string]bool)
	hasSetup := false
	for _, d := range spec.EndToEnd {
		if names[d.Name] {
			t.Errorf("metric %q listed twice", d.Name)
		}
		names[d.Name] = true
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s (s, lower) among the end-to-end metrics")
	}
	perLayer := make(map[string]bool)
	for _, d := range spec.PerLayer {
		if names[d.Name] {
			t.Errorf("metric %q listed twice", d.Name)
		}
		names[d.Name] = true
		perLayer[d.Name] = true
	}
	// The placeholders each kind of workload prints for the other kind's
	// metrics must be real per-layer names.
	for _, n := range append(append([]string(nil), simOnlyMetrics...), liveOnlyMetrics...) {
		if !perLayer[n] {
			t.Errorf("placeholder metric %q is not a per-layer metric", n)
		}
	}
}
