package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/minsync"
)

// TestRunExitCodes pins the binary's contract with CI: 0 on a passing
// cell, 1 on a property violation (a -deadline too short for a scenario
// that expects termination is the documented way to inject one), 2 on a
// usage error — which includes a seed list that names no seed (a sweep
// of nothing must not be green) — and the same for -exp. A cell that
// would run forever is a violation too, not a hang.
func TestRunExitCodes(t *testing.T) {
	tests := []struct {
		name string
		args []string
		code int
		row  string // prefix of the cell's table row, "" when none is printed
	}{
		{"passing scenario", []string{"-scenario", "log-baseline"}, 0, "log-baseline\t1\tlog\tPASS\t0\t"},
		{"forced violation", []string{"-scenario", "log-baseline", "-deadline", "1ms"}, 1, "log-baseline\t1\tlog\tFAIL\t"},
		{"unknown scenario", []string{"-scenario", "no-such-scenario"}, 2, ""},
		{"no scenario", nil, 2, ""},
		{"bad seed list", []string{"-scenario", "log-baseline", "-seeds", "1,x"}, 2, ""},
		{"empty seed list", []string{"-scenario", "baseline-sync", "-seeds", ","}, 2, ""},
		{"empty seed list, random", []string{"-scenario", "random", "-seeds", ","}, 2, ""},
		{"passing experiment", []string{"-exp", "e7", "-seeds", "1"}, 0, "| 4 | 1 | 16 "},
		{"failing experiment", []string{"-exp", "E7", "-deadline", "1ms"}, 1, "| 4 | 1 | 16 "},
		{"unknown experiment", []string{"-exp", "E99"}, 2, ""},
		{"experiment and scenario", []string{"-exp", "E7", "-scenario", "log-baseline"}, 2, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out bytes.Buffer
			if code := run(tt.args, &out); code != tt.code {
				t.Fatalf("run(%q) = %d, want %d\n%s", tt.args, code, tt.code, out.String())
			}
			if tt.row == "" {
				if out.Len() != 0 {
					t.Errorf("usage error wrote to the table stream:\n%s", out.String())
				}
				return
			}
			if !strings.Contains(out.String(), "\n"+tt.row) {
				t.Errorf("no row starting %q in:\n%s", tt.row, out.String())
			}
		})
	}
	// A world that never drains on its own must end at the default
	// deadline and report the missing termination — exit 1 — rather than
	// spin. kv-partition-heal cut 2|2 with GST and heal 10 min away is
	// such a world by construction: neither side holds the n−t = 3
	// processes an instance needs, and nothing crosses the cut before the
	// 60 s deadline. No registered scenario fails by itself, so this cell
	// enters below the name lookup.
	t.Run("cell that never drains", func(t *testing.T) {
		stuck, ok := minsync.GetScenario("kv-partition-heal")
		if !ok {
			t.Fatal("kv-partition-heal not registered")
		}
		if stuck.N != 4 || stuck.Net.PartitionCut != 2 {
			t.Fatalf("kv-partition-heal is no longer n=4 cut 2|2: %+v", stuck.Net)
		}
		stuck.Net.GST = 10 * time.Minute
		stuck.Net.HealAt = 10 * time.Minute
		var out bytes.Buffer
		if code := runSpecs(flags{workers: 1, verbose: true}, []minsync.Scenario{stuck}, []int64{1}, &out); code != 1 {
			t.Fatalf("exit code %d, want 1\n%s", code, out.String())
		}
		for _, want := range []string{"\nkv-partition-heal\t1\tkv\tFAIL\t", "\t1m0s\t", "KV-Termination"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("no %q in:\n%s", want, out.String())
			}
		}
	})
}
