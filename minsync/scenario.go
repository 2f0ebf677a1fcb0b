package minsync

import (
	"fmt"

	"repro/internal/scenario"
)

// Scenario is one declarative fault × network × workload composition
// from the scenario engine (see internal/scenario).
type Scenario = scenario.Spec

// ScenarioOutcome reports one scenario execution: pass/fail, the full
// property report, run statistics and a SHA-256 trace digest that is
// identical across runs with the same seed.
type ScenarioOutcome = scenario.Outcome

// ScenarioMatrixResult pairs one (scenario, seed) matrix cell with its
// outcome or error.
type ScenarioMatrixResult = scenario.MatrixResult

// Scenarios returns the names of the curated scenario registry, sorted.
func Scenarios() []string { return scenario.Names() }

// RandomScenario samples the fault × network × workload cross-product
// deterministically from seed.
func RandomScenario(seed int64) Scenario { return scenario.Random(seed) }

// RunScenario executes one scenario under the given seed. The name
// "random" samples RandomScenario(seed); any other name must be in the
// curated registry. Identical (name, seed) pairs reproduce identical
// outcomes, trace digest included.
func RunScenario(name string, seed int64) (*ScenarioOutcome, error) {
	var s Scenario
	if name == "random" {
		s = scenario.Random(seed)
	} else {
		var ok bool
		if s, ok = scenario.Get(name); !ok {
			return nil, fmt.Errorf("minsync: unknown scenario %q (see Scenarios())", name)
		}
	}
	return scenario.Run(s, seed)
}

// RunScenarioMatrix executes every (scenario, seed) cell concurrently on
// up to workers goroutines (≤ 0 = 4) and returns the results in cell
// order. Cells are fully independent simulations, so the matrix
// parallelizes without perturbing per-cell determinism.
func RunScenarioMatrix(specs []Scenario, seeds []int64, workers int) []ScenarioMatrixResult {
	return scenario.RunMatrix(specs, seeds, workers)
}
