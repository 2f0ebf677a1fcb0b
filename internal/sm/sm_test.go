package sm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/kv"
	"repro/internal/log"
	"repro/internal/store"
	"repro/internal/types"
)

// feed pushes n entries through the applier, batching `perInst` entries
// per instance (mimicking the log engine's OnCommit/OnApply cadence).
func feed(t testing.TB, a *Applier, start, n, perInst int, inst0 types.Instance) types.Instance {
	t.Helper()
	inst := inst0
	inBatch := 0
	for i := 0; i < n; i++ {
		cmd := kv.Command{Op: kv.OpPut, Client: 1, Seq: uint64(start + i + 1),
			Key: fmt.Sprintf("k%d", (start+i)%7), Val: fmt.Sprintf("v%d", start+i)}
		a.OnCommit(log.Entry{Index: start + i, Instance: inst, Cmd: cmd.Encode()})
		if inBatch++; inBatch == perInst {
			a.OnApply(inst, inBatch)
			inst++
			inBatch = 0
		}
	}
	if inBatch > 0 {
		a.OnApply(inst, inBatch)
		inst++
	}
	return inst
}

func TestApplierSnapshotCadence(t *testing.T) {
	var snaps []Snapshot
	store := kv.NewStore()
	a, err := New(Config{
		Machine:       store,
		SnapshotEvery: 10,
		OnSnapshot:    func(s Snapshot) { snaps = append(snaps, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, a, 0, 35, 4, 0) // 9 instances, snapshot at instance boundaries ≥ 10 entries
	if a.Applied() != 35 {
		t.Fatalf("applied = %d", a.Applied())
	}
	// Boundaries fall at the first instance end crossing each multiple of
	// 10 applied entries: 12, 24, then the final short batch at 35.
	if len(snaps) != 3 {
		t.Fatalf("snapshots = %d, want 3 (%v)", len(snaps), snaps)
	}
	for i, want := range []int{12, 24, 35} {
		if snaps[i].Index != want {
			t.Errorf("snapshot %d at index %d, want %d", i, snaps[i].Index, want)
		}
	}
	for _, s := range snaps {
		idx, inst, _, err := DecodeSnapshot(s.Data)
		if err != nil {
			t.Fatal(err)
		}
		if idx != s.Index || inst != s.Instance {
			t.Errorf("header (%d,%v) != snapshot (%d,%v)", idx, inst, s.Index, s.Instance)
		}
	}
}

// TestSnapshotDigestsMatchAcrossReplicas: two appliers fed the same
// entries through different instance batching produce byte-identical
// machine state; snapshots at the same entry index have equal digests.
func TestSnapshotDigestsMatchAcrossReplicas(t *testing.T) {
	run := func(perInst, every int) (*Applier, []Snapshot) {
		var snaps []Snapshot
		a, err := New(Config{
			Machine:       kv.NewStore(),
			SnapshotEvery: every,
			OnSnapshot:    func(s Snapshot) { snaps = append(snaps, s) },
		})
		if err != nil {
			t.Fatal(err)
		}
		feed(t, a, 0, 40, perInst, 0)
		return a, snaps
	}
	a1, s1 := run(4, 8)
	a2, s2 := run(4, 8)
	if a1.StateDigest() != a2.StateDigest() {
		t.Fatal("same input, different state digests")
	}
	if len(s1) != len(s2) {
		t.Fatalf("snapshot counts differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i].Digest != s2[i].Digest || s1[i].Index != s2[i].Index {
			t.Fatalf("snapshot %d differs: %+v vs %+v", i, s1[i], s2[i])
		}
	}
}

func TestApplierPanicsOnGap(t *testing.T) {
	a, _ := New(Config{Machine: kv.NewStore()})
	defer func() {
		if recover() == nil {
			t.Fatal("index gap not detected")
		}
	}()
	a.OnCommit(log.Entry{Index: 3, Instance: 0, Cmd: kv.Command{Op: kv.OpPut, Key: "k"}.Encode()})
}

// Crash recovery is Boot from the replica's own store (the in-place
// Applier.Recover the simulator once used is gone); these drive it at the
// applier level, internal/replica and the crash-restart runs end to end.

// resumeRec is a BootControl that records the Resume call.
type resumeRec struct {
	boundary types.Instance
	base     int
	retained []log.Entry
}

func (r *resumeRec) Resume(b types.Instance, base int, retained []log.Entry) error {
	r.boundary, r.base, r.retained = b, base, retained
	return nil
}

func TestRecoverFromSnapshotPlusSuffix(t *testing.T) {
	disk := store.NewMemory()
	a, err := New(Config{Machine: kv.NewStore(), SnapshotEvery: 10, Persist: disk})
	if err != nil {
		t.Fatal(err)
	}
	frontier := feed(t, a, 0, 30, 3, 0)
	snap, ok := a.Latest()
	if !ok || snap.Index >= 30 {
		t.Fatalf("want a snapshot with a suffix behind it, got %+v ok=%v", snap, ok)
	}

	// The crash loses the machine; the disk alone must rebuild its exact
	// bytes: stamped snapshot, then only the entries past it.
	b, _ := New(Config{Machine: kv.NewStore(), SnapshotEvery: 10, Persist: disk})
	var eng resumeRec
	st, err := Boot(disk, b, &eng)
	if err != nil {
		t.Fatal(err)
	}
	if b.StateDigest() != a.StateDigest() || b.Applied() != 30 {
		t.Fatalf("recovered state differs from pre-crash state (applied=%d)", b.Applied())
	}
	if !st.HadSnapshot || st.SnapIndex != snap.Index || st.Replayed != 30-snap.Index || b.Boots() != 1 || b.Installs() != 0 {
		t.Fatalf("boot stats %+v, snapshot at %d, boots=%d installs=%d", st, snap.Index, b.Boots(), b.Installs())
	}
	if eng.boundary != frontier || eng.base+len(eng.retained) != 30 {
		t.Fatalf("engine resumed at %v with entries [%d,%d), want %v and 30", eng.boundary, eng.base, eng.base+len(eng.retained), frontier)
	}
}

func TestRecoverWithoutSnapshotFullReplay(t *testing.T) {
	disk := store.NewMemory()
	a, _ := New(Config{Machine: kv.NewStore(), Persist: disk}) // snapshots disabled
	feed(t, a, 0, 12, 1, 0)
	b, _ := New(Config{Machine: kv.NewStore(), Persist: disk})
	var eng resumeRec
	st, err := Boot(disk, b, &eng)
	if err != nil {
		t.Fatal(err)
	}
	if st.HadSnapshot || st.Replayed != 12 || eng.base != 0 || len(eng.retained) != 12 {
		t.Fatalf("boot stats %+v, resumed entries [%d,%d)", st, eng.base, eng.base+len(eng.retained))
	}
	if b.StateDigest() != a.StateDigest() {
		t.Fatal("full replay diverged")
	}
}

func TestRecoverDetectsGapInRetained(t *testing.T) {
	disk := store.NewMemory()
	for _, i := range []int{0, 1, 3, 4} { // the write-ahead log lost entry 2
		_ = disk.AppendEntry(log.Entry{Index: i, Instance: types.Instance(i),
			Cmd: kv.Command{Op: kv.OpPut, Key: "k", Val: "v"}.Encode()})
		_ = disk.MarkApplied(types.Instance(i + 1))
	}
	a, _ := New(Config{Machine: kv.NewStore(), Persist: disk})
	// The replay must refuse, not skip — and the half-replayed machine is
	// not one to keep applying to.
	if _, err := Boot(disk, a, &resumeRec{}); err == nil {
		t.Fatal("gap in the durable entries not detected")
	}
	if a.Err() == nil {
		t.Fatal("failed boot did not poison the applier")
	}
}

// nondetMachine snapshots differently every time — Boot must refuse it.
type nondetMachine struct {
	kv.Store
	n int
}

func (m *nondetMachine) AppendSnapshot(dst []byte) []byte {
	m.n++
	return binary.LittleEndian.AppendUint64(m.Store.AppendSnapshot(dst), uint64(m.n))
}

func (m *nondetMachine) Restore(b []byte) error {
	if len(b) < 8 {
		return fmt.Errorf("short")
	}
	return m.Store.Restore(b[:len(b)-8])
}

func TestRecoverDetectsNondeterminism(t *testing.T) {
	disk := store.NewMemory()
	a, _ := New(Config{Machine: &nondetMachine{Store: *kv.NewStore()}, SnapshotEvery: 1, Persist: disk})
	a.OnCommit(log.Entry{Index: 0, Instance: 0, Cmd: kv.Command{Op: kv.OpPut, Key: "k", Val: "v"}.Encode()})
	a.OnApply(0, 1)
	if _, ok := a.Latest(); !ok {
		t.Fatal("no snapshot")
	}
	// n differs from the crashed incarnation's, as any hidden input would.
	b, _ := New(Config{Machine: &nondetMachine{Store: *kv.NewStore(), n: 7}, SnapshotEvery: 1, Persist: disk})
	if _, err := Boot(disk, b, &resumeRec{}); err == nil {
		t.Fatal("nondeterministic machine not detected")
	}
	// The failed boot touched live state, so the applier is poisoned: it
	// must refuse further entries instead of silently forking.
	if b.Err() == nil {
		t.Fatal("failed recovery did not poison the applier")
	}
	before := b.Applied()
	b.OnCommit(log.Entry{Index: before, Instance: 1, Cmd: kv.Command{Op: kv.OpPut, Key: "k2", Val: "v"}.Encode()})
	if b.Applied() != before {
		t.Fatal("poisoned applier applied an entry")
	}
}

func TestSnapshotCodec(t *testing.T) {
	data := append(appendSnapHeader(nil, 42, 7), "machine-bytes"...)
	idx, inst, m, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 42 || inst != 7 || !bytes.Equal(m, []byte("machine-bytes")) {
		t.Fatalf("decode: %d %v %q", idx, inst, m)
	}
	for _, bad := range [][]byte{nil, {snapMagic}, []byte("XXXXXXXXXXXXXXXXXXXX")} {
		if _, _, _, err := DecodeSnapshot(bad); err == nil {
			t.Errorf("malformed snapshot %q accepted", bad)
		}
	}
}

// TestRefreshEveryIdleBoundary: with RefreshEvery set, an applier that
// stops receiving entries but keeps crossing instance boundaries (the
// idle cluster churning ⊥ no-ops) re-stamps its snapshot on a fixed
// instance cadence, keeping a fresh boundary on offer for transfer.
// Without it the boundary goes stale forever — the idle-rejoin gap.
func TestRefreshEveryIdleBoundary(t *testing.T) {
	run := func(refresh types.Instance) (*Applier, []Snapshot) {
		var snaps []Snapshot
		a, err := New(Config{
			Machine:       kv.NewStore(),
			SnapshotEvery: 10,
			RefreshEvery:  refresh,
			OnSnapshot:    func(s Snapshot) { snaps = append(snaps, s) },
		})
		if err != nil {
			t.Fatal(err)
		}
		// 3 entries land in instance 0 — below the entry cadence — then
		// the cluster idles: instances 1..19 apply zero entries each.
		next := feed(t, a, 0, 3, 3, 0)
		for i := next; i < 20; i++ {
			a.OnApply(i, 0)
		}
		return a, snaps
	}

	// Baseline: no refresh, no entry-cadence trigger ⇒ boundary never moves.
	if _, snaps := run(0); len(snaps) != 0 {
		t.Fatalf("refresh off: %d snapshots, want 0", len(snaps))
	}

	a1, s1 := run(5)
	// Refresh boundaries: first at instance 5 (no snapshot yet, i+1 ≥ 5),
	// then every 5 instances past the previous boundary: 10, 15, 20.
	wantInst := []types.Instance{5, 10, 15, 20}
	if len(s1) != len(wantInst) {
		t.Fatalf("refresh on: %d snapshots, want %d (%v)", len(s1), len(wantInst), s1)
	}
	for i, want := range wantInst {
		if s1[i].Instance != want {
			t.Errorf("snapshot %d at instance %v, want %v", i, s1[i].Instance, want)
		}
		if s1[i].Index != 3 {
			t.Errorf("snapshot %d at index %d, want 3 (idle refresh must not invent entries)", i, s1[i].Index)
		}
	}

	// Determinism: a second applier over the same applied sequence
	// re-stamps byte-identical snapshots at identical boundaries, so
	// transfer's t+1 corroboration accepts refreshed payloads.
	_, s2 := run(5)
	for i := range s1 {
		if s1[i].Digest != s2[i].Digest || s1[i].Instance != s2[i].Instance {
			t.Fatalf("refresh snapshot %d diverges across replicas: %+v vs %+v", i, s1[i], s2[i])
		}
	}

	// Entry cadence still wins once traffic resumes: 10 more entries in
	// one instance trip the SnapshotEvery path at the next boundary.
	feed(t, a1, 3, 10, 10, 20)
	last, ok := a1.Latest()
	if !ok || last.Index != 13 || last.Instance != 21 {
		t.Fatalf("entry-cadence snapshot after refresh = (%d,%v), want (13,21)", last.Index, last.Instance)
	}
}
