package minsync

import (
	"fmt"
	"testing"
	"time"
)

func kvTestWorkload(n int) []KVCommand {
	cmds := make([]KVCommand, 0, n)
	seqs := map[uint64]uint64{}
	for i := 0; i < n; i++ {
		client := uint64(i%2 + 1)
		seqs[client]++
		c := KVCommand{Op: KVPut, Client: client, Seq: seqs[client],
			Key: fmt.Sprintf("k%d", i%5), Val: fmt.Sprintf("v%d", i)}
		if i%4 == 3 {
			c.Op, c.Val = KVGet, ""
		}
		cmds = append(cmds, c)
	}
	return cmds
}

func TestSimulateKV(t *testing.T) {
	res, err := SimulateKV(KVConfig{
		N: 4, T: 1,
		Commands:      kvTestWorkload(30),
		BatchSize:     4,
		Pipeline:      2,
		SnapshotEvery: 8,
		Compact:       true,
		CompactKeep:   1,
		Byzantine:     map[ProcID]Fault{4: {Kind: FaultSilent}},
		Synchrony:     FullSynchrony(3 * time.Millisecond),
		Seed:          42,
		Deadline:      10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCommitted || !res.Consistent || !res.StatesAgree {
		t.Fatalf("degraded: %+v", res)
	}
	if res.Keys == 0 || res.Sessions != 2 {
		t.Fatalf("keys=%d sessions=%d", res.Keys, res.Sessions)
	}
	if res.Snapshots == 0 || res.RetiredInstances == 0 {
		t.Fatalf("snapshots=%d retired=%d", res.Snapshots, res.RetiredInstances)
	}
	if len(res.StateDigest) != 64 {
		t.Fatalf("digest %q", res.StateDigest)
	}
	if _, ok := res.Get("k0"); !ok {
		t.Fatal("k0 missing from final state")
	}
}

// TestSimulateKVOrdering: every correct replica commits the whole
// workload in one order, and batching pays — far fewer consensus
// instances than commands.
func TestSimulateKVOrdering(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  KVConfig
	}{
		{"batching", KVConfig{Commands: kvTestWorkload(50), BatchSize: 10, Pipeline: 2, Seed: 1}},
		{"staggered submissions", KVConfig{Commands: kvTestWorkload(30), SubmitEvery: 2 * time.Millisecond, Seed: 9}},
		{"silent replica", KVConfig{Commands: kvTestWorkload(24), Byzantine: map[ProcID]Fault{4: {Kind: FaultSilent}}, Seed: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.N, cfg.T = 4, 1
			cfg.Synchrony = FullSynchrony(2 * time.Millisecond)
			cfg.Deadline = 5 * time.Minute
			res, err := SimulateKV(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllCommitted || !res.Consistent || !res.StatesAgree {
				t.Fatalf("committed=%d/%d consistent=%v states=%v",
					res.MinCommitted, len(cfg.Commands), res.Consistent, res.StatesAgree)
			}
			// Without compaction every instance ever started is still live.
			if res.LiveInstances >= len(cfg.Commands)/2 {
				t.Fatalf("used %d instances for %d commands", res.LiveInstances, len(cfg.Commands))
			}
		})
	}
}

func TestSimulateKVRejectsEmptyWorkload(t *testing.T) {
	if _, err := SimulateKV(KVConfig{N: 4, T: 1}); err == nil {
		t.Fatal("empty workload accepted")
	}
}

// TestSimulateKVTransferDrainsWithRetry: a byte-identical client retry
// commits once, so a stop rule that counts raw entries never fires and
// the run lasts until its deadline. Distinct-command coverage drains.
func TestSimulateKVTransferDrainsWithRetry(t *testing.T) {
	cmds := kvTestWorkload(12)
	cmds = append(cmds, cmds[5])
	res, err := SimulateKV(KVConfig{
		N: 4, T: 1,
		Commands:      cmds,
		SnapshotEvery: 4,
		Transfer:      true,
		Seed:          1,
		Deadline:      30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCommitted || !res.StatesAgree {
		t.Fatalf("degraded: %+v", res)
	}
	if res.Latency >= time.Second {
		t.Fatalf("run lasted %v of virtual time: it never drained", res.Latency)
	}
}

func TestSimulateKVDeterministic(t *testing.T) {
	run := func() string {
		res, err := SimulateKV(KVConfig{
			N: 4, T: 1,
			Commands:      kvTestWorkload(20),
			SnapshotEvery: 6,
			Compact:       true,
			Seed:          7,
			Deadline:      10 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.StateDigest
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("digests differ across identical runs: %s vs %s", a, b)
	}
}
