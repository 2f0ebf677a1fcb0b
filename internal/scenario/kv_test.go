package scenario

import (
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/trace"
)

// kvGoldenScenarios is the curated slice used by the session-semantics
// and snapshot-agreement tests: three different compositions (clean
// mixed workload, retry-heavy sessions, crash-recovery) so the
// properties are exercised under more than one schedule.
var kvGoldenScenarios = []string{"kv-mixed", "kv-sessions", "kv-snapshot-recover"}

// runKVSpec executes a curated KV scenario and returns the raw runner
// result (the scenario Outcome compresses it to pass/fail; these tests
// assert on the underlying state). It builds the spec through the same
// KVSpec helper the scenario engine uses, so the tests exercise the
// exact configuration that runs in production sweeps.
func runKVSpec(t *testing.T, name string, seed int64) *runner.KVResult {
	t.Helper()
	s, ok := Get(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	p, err := Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := p.KVSpec(seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.RunKV(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestKVSnapshotDigestsIdenticalAcrossReplicas: in every curated KV
// scenario, all correct replicas produce byte-identical snapshots at
// every common snapshot index, across multiple seeds.
func TestKVSnapshotDigestsIdenticalAcrossReplicas(t *testing.T) {
	for _, name := range kvGoldenScenarios {
		for _, seed := range []int64{1, 3, 7} {
			res := runKVSpec(t, name, seed)
			byIndex := make(map[int]map[[32]byte]bool)
			snapshots := 0
			for _, id := range res.Correct {
				for _, s := range res.SnapshotLog[id] {
					if byIndex[s.Index] == nil {
						byIndex[s.Index] = make(map[[32]byte]bool)
					}
					byIndex[s.Index][s.Digest] = true
					snapshots++
				}
			}
			if snapshots == 0 {
				t.Fatalf("%s seed %d: no snapshots taken", name, seed)
			}
			for idx, digests := range byIndex {
				if len(digests) != 1 {
					t.Errorf("%s seed %d: %d distinct digests at snapshot index %d",
						name, seed, len(digests), idx)
				}
			}
			if !res.StatesAgree() {
				t.Errorf("%s seed %d: final state digests disagree", name, seed)
			}
		}
	}
}

// TestKVSessionSemantics: the retry-heavy scenario must show duplicate
// suppression, the out-of-order injections must be rejected as stale, and
// the suppression counters must be identical on every correct replica
// (they are part of the state, hence of the digests).
func TestKVSessionSemantics(t *testing.T) {
	for _, seed := range []int64{1, 2, 7} {
		res := runKVSpec(t, "kv-sessions", seed)
		ref := res.Stores[res.Correct[0]]
		if ref.Duplicates() == 0 {
			t.Errorf("seed %d: no duplicate-command suppression", seed)
		}
		if ref.Stales() == 0 {
			t.Errorf("seed %d: no out-of-order rejection", seed)
		}
		for _, id := range res.Correct[1:] {
			s := res.Stores[id]
			if s.Duplicates() != ref.Duplicates() || s.Stales() != ref.Stales() || s.Applies() != ref.Applies() {
				t.Errorf("seed %d: replica %v counters (%d,%d,%d) differ from reference (%d,%d,%d)",
					seed, id, s.Applies(), s.Duplicates(), s.Stales(),
					ref.Applies(), ref.Duplicates(), ref.Stales())
			}
		}
		// NOTE deliberately absent: no assertion that retry payloads never
		// enter state. Exactly-once guarantees ONE of the copies applies,
		// not WHICH — if consensus orders a re-encoded retry before its
		// original, the retry's payload is the legitimate value and the
		// original becomes the cache-hit duplicate (see the kvCommands
		// comment). State agreement plus the counter equality above are
		// the actual guarantees.
	}
}

// TestKVCompactionScenarioBoundsState: the long-run scenario must retire
// most of its per-instance state on every correct replica.
func TestKVCompactionScenarioBoundsState(t *testing.T) {
	res := runKVSpec(t, "kv-long-compaction", 1)
	for _, id := range res.Correct {
		eng := res.Engines[id]
		total := int(eng.Applied())
		if eng.Retired() == 0 {
			t.Fatalf("replica %v retired nothing over %d instances", id, total)
		}
		if live := eng.Instances(); live*2 > total {
			t.Errorf("replica %v still holds %d of %d instances — compaction not bounding state", id, live, total)
		}
		if eng.EntriesBase() == 0 {
			t.Errorf("replica %v trimmed no entries", id)
		}
	}
}

// TestLagTransferScenariosSweep is the acceptance sweep of the snapshot
// state-transfer scenarios: seeds 1–7 must pass every checked property,
// with the severed replica converging to the common state digest VIA
// TRANSFER (install counter > 0) while replay was impossible by
// construction (MaxLead pressure observed, peers compacted).
func TestLagTransferScenariosSweep(t *testing.T) {
	for _, name := range []string{"kv-lag-transfer", "kv-lag-transfer-n7"} {
		s, ok := Get(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		p, err := Prepare(s)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 7; seed++ {
			o, err := p.Run(seed)
			if err != nil {
				t.Fatal(err)
			}
			if !o.Pass {
				t.Fatalf("%s seed %d failed:\n%v", name, seed, o.Report.Violations)
			}
			res := runKVSpec(t, name, seed)
			if res.Transfers[1] == 0 {
				t.Fatalf("%s seed %d: severed replica installed no snapshot", name, seed)
			}
			if res.Engines[1].DroppedAhead() == 0 {
				t.Fatalf("%s seed %d: no MaxLead pressure — replay was not impossible", name, seed)
			}
			compacted := false
			for _, id := range res.Correct[1:] {
				if res.Engines[id].Retired() > 0 {
					compacted = true
				}
			}
			if !compacted {
				t.Fatalf("%s seed %d: peers never compacted", name, seed)
			}
		}
	}
}

// TestLagTransferDeterministic: same (scenario, seed) ⇒ same digest,
// transfer traffic included.
func TestLagTransferDeterministic(t *testing.T) {
	s, _ := Get("kv-lag-transfer")
	a, err := Run(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("digest not reproducible:\n  %s\n  %s", a.Digest, b.Digest)
	}
}

// TestCrashRestartScenariosSweep: across seeds 1..7, the power-cycled
// replica of the durable crash-restart scenarios reboots from its own
// disk image (non-trivial boundary, no boot error) and reconverges
// WITHOUT a single peer snapshot transfer — the DECIDEs of instances
// decided after the reboot carry it across the blackout, and
// the armed transfer layer stays idle on both ends.
func TestCrashRestartScenariosSweep(t *testing.T) {
	for _, name := range []string{"kv-crash-restart", "kv-crash-restart-n7"} {
		s, ok := Get(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		p, err := Prepare(s)
		if err != nil {
			t.Fatal(err)
		}
		victim := s.CorrectProcs()[0]
		for seed := int64(1); seed <= 7; seed++ {
			o, err := p.Run(seed)
			if err != nil {
				t.Fatal(err)
			}
			if !o.Pass {
				t.Fatalf("%s seed %d failed:\n%v", name, seed, o.Report.Violations)
			}
			res := runKVSpec(t, name, seed)
			if berr := res.BootErrs[victim]; berr != nil {
				t.Fatalf("%s seed %d: reboot from disk failed: %v", name, seed, berr)
			}
			st, ok := res.Boots[victim]
			if !ok {
				t.Fatalf("%s seed %d: victim never rebooted", name, seed)
			}
			if st.Boundary <= 0 {
				t.Fatalf("%s seed %d: reboot recovered nothing (boundary %v)", name, seed, st.Boundary)
			}
			if !st.HadSnapshot && st.Replayed == 0 {
				t.Fatalf("%s seed %d: boot restored neither snapshot nor WAL entries", name, seed)
			}
			if n := res.Transfers[victim]; n != 0 {
				t.Fatalf("%s seed %d: victim installed %d peer snapshots — recovery was not disk-local", name, seed, n)
			}
			for _, id := range res.Correct {
				if n := res.TransferServed[id]; n != 0 {
					t.Fatalf("%s seed %d: %v served %d snapshots to the rebooted replica", name, seed, id, n)
				}
			}
			if d := res.DurablePrefix(); d != "" {
				t.Fatalf("%s seed %d: durable prefix invariant: %s", name, seed, d)
			}
		}
	}
}

// TestCrashInstantSweep moves the power cycle of both crash-restart
// scenarios across 100–200 ms in 10 ms steps (seed 1). Some instants leave
// the rebooted replica past the peers' compaction floor, so it must
// install a peer snapshot: KV-CrashRestart's zero-transfer clause then
// reports that, and the log below is the table to pick a registry instant
// from. Everything else must hold at every instant — log order, replay,
// state agreement, termination — and the run must drain well inside a
// second of virtual time rather than spin to the 60 s cap.
func TestCrashInstantSweep(t *testing.T) {
	guarded := []string{"LOG-", "KV-ReferenceReplay", "KV-StateAgreement", "KV-Termination"}
	for _, name := range []string{"kv-crash-restart", "kv-crash-restart-n7"} {
		s, ok := Get(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		for at := 100 * time.Millisecond; at <= 200*time.Millisecond; at += 10 * time.Millisecond {
			s.Work.CrashRestartAt = at
			o, err := Run(s, 1)
			if err != nil {
				t.Fatal(err)
			}
			leaned := 0
			for _, v := range o.Report.Violations {
				if strings.HasPrefix(v, "KV-CrashRestart") {
					leaned++
				}
				for _, g := range guarded {
					if strings.HasPrefix(v, g) {
						t.Errorf("%s crash at %v: %s", name, at, v)
					}
				}
			}
			t.Logf("%s crash at %v: end %v, %d KV-CrashRestart report(s)", name, at, o.End, leaned)
			if o.End >= time.Second {
				t.Errorf("%s crash at %v: ran to %v of virtual time", name, at, o.End)
			}
		}
	}
}

// TestChunkLossScenarioSweep: across seeds 1..7 of transfer-chunk-loss,
// the severed replica completes a multi-chunk snapshot download while
// the adversary destroys every 2nd chunk frame, via the retry path's
// range re-requests. The scenario's own property blocks
// are the assertions: KV-Transfer (a snapshot was installed, under
// MaxLead pressure, and the states converged) and KV-ChunkLoss (the drop
// counter proves the loss episode actually bit).
func TestChunkLossScenarioSweep(t *testing.T) {
	s, ok := Get("transfer-chunk-loss")
	if !ok {
		t.Fatal("scenario transfer-chunk-loss not registered")
	}
	p, err := Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 7; seed++ {
		o, err := p.Run(seed)
		if err != nil {
			t.Fatal(err)
		}
		if !o.Pass {
			t.Fatalf("seed %d failed:\n%v", seed, o.Report.Violations)
		}
		for _, family := range []string{"kv-transfer", "kv-chunk-loss"} {
			if o.Report.Checked[family] == 0 {
				t.Fatalf("seed %d: property %s was not evaluated", seed, family)
			}
		}
	}
}

// TestDurableScenariosDeterministic: the new durable/chunk scenarios
// reproduce bit-identical digests for a repeated seed (disk state and
// chunk retries included).
func TestDurableScenariosDeterministic(t *testing.T) {
	for _, name := range []string{"kv-crash-restart", "transfer-chunk-loss"} {
		s, _ := Get(name)
		a, err := Run(s, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(s, 3)
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest != b.Digest {
			t.Fatalf("%s digest not reproducible:\n  %s\n  %s", name, a.Digest, b.Digest)
		}
	}
}

// TestKVIdleBurst: kv-idle-burst submits one command every 500 ms while
// a Byzantine process names instances 0..63 during the first 640 ms. The
// correct replicas must join every named instance (each needs their n−t
// proposals to terminate) and open one more per later command — and
// nothing else: for the 400 ms before each of the last three commands
// the trace is empty, not one message or timer of any process. A cluster
// that kept its window full would apply hundreds of instances here.
func TestKVIdleBurst(t *testing.T) {
	const named = 64 // adversary.HashEquivocation frames in Fault.Behavior
	for _, seed := range []int64{1, 3, 7} {
		res := runKVSpec(t, "kv-idle-burst", seed)
		if !res.CoveredAll() || !res.Consistent() || !res.StatesAgree() {
			t.Fatalf("seed %d: covered=%v consistent=%v states=%v", seed, res.Covered, res.Consistent(), res.StatesAgree())
		}
		cmds := res.Distinct
		for _, id := range res.Correct {
			eng := res.Engines[id]
			if a := int(eng.Applied()); a < named || a > named+cmds {
				t.Errorf("seed %d: replica %v applied %d instances, want the %d named plus at most one per command (%d)",
					seed, id, a, named, cmds)
			}
			if eng.InFlight() != 0 || eng.Pending() != 0 {
				t.Errorf("seed %d: replica %v ended with %d in flight, %d pending", seed, id, eng.InFlight(), eng.Pending())
			}
		}
		noise := 0
		res.Log.ForEach(func(ev trace.Event) {
			at := time.Duration(ev.At)
			for k := cmds - 3; k < cmds; k++ {
				submit := time.Duration(k) * 500 * time.Millisecond
				if at >= submit-400*time.Millisecond && at < submit {
					if noise++; noise == 1 {
						t.Errorf("seed %d: %v at %v, inside the idle gap before command %d", seed, ev.Kind, at, k)
					}
				}
			}
		})
		if noise > 1 {
			t.Errorf("seed %d: %d events inside the idle gaps", seed, noise)
		}
	}
}
