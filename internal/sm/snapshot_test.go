package sm

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/kv"
	"repro/internal/log"
	"repro/internal/store"
	"repro/internal/types"
)

// snapshotApplier builds a durable applier over a store of about a
// thousand 64-byte values, snapshots off, whose RetainedEntries is a
// fixed 16-entry window.
func snapshotApplier(tb testing.TB, disk store.Persister) (*Applier, []log.Entry) {
	tb.Helper()
	retained := make([]log.Entry, 16)
	for k := range retained {
		retained[k] = log.Entry{Index: 984 + k, Instance: types.Instance(984 + k), Cmd: types.Value(fmt.Sprintf("retained-%02d", k))}
	}
	a, err := New(Config{Machine: kv.NewStore(), Persist: disk, RetainedEntries: func() []log.Entry { return retained }})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		cmd := kv.Command{Op: kv.OpPut, Client: uint64(i%8 + 1), Seq: uint64(i/8 + 1),
			Key: fmt.Sprintf("key-%04d", i), Val: fmt.Sprintf("%064d", i)}
		a.OnCommit(log.Entry{Index: i, Instance: types.Instance(i), Cmd: cmd.Encode()})
		a.OnApply(types.Instance(i), 1)
	}
	return a, retained
}

// TestSnapshotBuildsOnePayload: a steady-state snapshot allocates about
// its payload once — the machine encodes straight into the transfer
// payload, and the durable stamp and the serve cache share it — and that
// payload is byte for byte the EncodeTransfer bytes t+1 corroboration
// compares, in the stamp and behind a served manifest alike.
func TestSnapshotBuildsOnePayload(t *testing.T) {
	disk := store.NewMemory()
	a, retained := snapshotApplier(t, disk)
	a.takeSnapshot(1000) // the first sizes the reservation of the next
	const runs = 10
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k := types.Instance(1); k <= runs; k++ {
		a.takeSnapshot(1000 + k)
	}
	runtime.ReadMemStats(&m1)
	snap, payload, _ := a.LatestTransfer()
	if perSnap := (m1.TotalAlloc - m0.TotalAlloc) / runs; float64(perSnap) > 1.25*float64(len(payload)) {
		t.Fatalf("a snapshot allocated %d bytes for a payload of %d", perSnap, len(payload))
	}

	want := EncodeTransfer(snap, retained)
	if !bytes.Equal(payload, want) {
		t.Fatal("the applier's payload is not EncodeTransfer(snapshot, retained)")
	}
	if !bytes.Equal(payload[transferDataAt:transferDataAt+len(snap.Data)], snap.Data) || &payload[transferDataAt] != &snap.Data[0] {
		t.Fatal("Snapshot.Data is not a view into the payload")
	}
	rec, err := disk.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.SnapPayload, want) || rec.SnapIndex != snap.Index || rec.SnapInstance != snap.Instance {
		t.Fatal("the durable stamp differs from EncodeTransfer(snapshot, retained)")
	}
	peer := newXferPeer(t, a)
	mf, err := DecodeManifest([]byte(peer.respond(t).Val))
	if err != nil {
		t.Fatal(err)
	}
	if mf.Payload != sha256.Sum256(want) || !bytes.Equal(peer.tr.chunkCache.payload, want) {
		t.Fatal("the served manifest's payload differs from EncodeTransfer(snapshot, retained)")
	}
}

// BenchmarkTakeSnapshot: one snapshot of a durable applier over a
// thousand-key store, stamped into store.Memory.
func BenchmarkTakeSnapshot(b *testing.B) {
	a, _ := snapshotApplier(b, store.NewMemory())
	inst := types.Instance(1000)
	b.ReportAllocs()
	for b.Loop() {
		a.takeSnapshot(inst)
		inst++
	}
}
