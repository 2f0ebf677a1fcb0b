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
