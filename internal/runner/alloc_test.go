package runner

import "testing"

// smallWorld is a fixed-seed n=4 KV world of 64 sessioned commands with
// snapshots every 16 entries, compaction and the write-ahead discipline
// over store.Memory: every path a delivered frame and a snapshot take,
// at a size CI runs in milliseconds.
func smallWorld() KVSpec {
	spec := kvSpec(4, 64, 1)
	spec.SnapshotEvery = 16
	spec.Compact = true
	spec.Durable = true
	return spec
}

// BenchmarkSmallWorld runs smallWorld end to end per op.
func BenchmarkSmallWorld(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		res, err := RunKV(smallWorld())
		if err != nil {
			b.Fatal(err)
		}
		if !res.CoveredAll() {
			b.Fatalf("only %d/%d commands committed everywhere", res.MinCovered(), res.Distinct)
		}
	}
}

// maxAllocsPerCommand bounds TestSmallWorldAllocsPerCommand: the 92.5
// allocations per committed command the world made when the bound was
// set, plus 10 % slack. (Before F sets were computed in uint64, timers
// lost their wrapping closure and rb records came a row at a time, it
// made 126.8.)
const maxAllocsPerCommand = 102

// TestSmallWorldAllocsPerCommand guards the allocation count of a
// delivered frame and a snapshot: it fails if smallWorld allocates more
// per committed command than maxAllocsPerCommand. The world is
// deterministic, so its count moves only when the code does.
func TestSmallWorldAllocsPerCommand(t *testing.T) {
	specs := []KVSpec{smallWorld(), smallWorld()} // AllocsPerRun(1) runs twice
	var res *KVResult
	allocs := testing.AllocsPerRun(1, func() {
		var err error
		if res, err = RunKV(specs[0]); err != nil {
			t.Fatal(err)
		}
		specs = specs[1:]
	})
	if !res.CoveredAll() {
		t.Fatalf("only %d/%d commands committed everywhere", res.MinCovered(), res.Distinct)
	}
	per := allocs / float64(res.MinCovered())
	t.Logf("%.1f allocations per committed command", per)
	if per > maxAllocsPerCommand {
		t.Fatalf("%.1f allocations per committed command, above the guard's %d", per, maxAllocsPerCommand)
	}
}
