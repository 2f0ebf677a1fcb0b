package store_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/log"
	"repro/internal/store"
	"repro/internal/store/storetest"
	"repro/internal/types"
)

// TestMemoryContract runs the persistence contract against the
// in-memory store. Reopen hands back the same instance — the "medium"
// is the process heap, which is exactly what a simulated crash-restart
// reuses.
func TestMemoryContract(t *testing.T) {
	storetest.Contract(t, func(t *testing.T) *storetest.Harness {
		m := store.NewMemory()
		return &storetest.Harness{
			P:      m,
			Reopen: func() store.Persister { return m },
		}
	})
}

// TestFileContract runs the persistence contract against the
// append-only-file store, including the torn-tail case: Tear appends a
// partial CRC frame to the WAL, modeling a crash mid-write.
func TestFileContract(t *testing.T) {
	storetest.Contract(t, func(t *testing.T) *storetest.Harness {
		dir := t.TempDir()
		f, err := store.OpenFile(dir)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		h := &storetest.Harness{P: f}
		h.Reopen = func() store.Persister {
			// No graceful close: a crash does not flush or unlock.
			nf, err := store.OpenFile(dir)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			h.P = nf
			return nf
		}
		h.Tear = func() {
			w, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatalf("tear: %v", err)
			}
			// A plausible record head (type + a length promising more
			// bytes than follow) with half a payload: the classic
			// power-cut shape.
			if _, err := w.Write([]byte{1, 0xff, 0x00, 0x00, 0x00, 'h', 'a', 'l', 'f'}); err != nil {
				t.Fatalf("tear write: %v", err)
			}
			w.Close()
		}
		return h
	})
}

// TestFileTornCRC covers the second torn shape: a complete-looking frame
// whose CRC does not match (payload bytes lost to a partial sector
// write). Recovery must keep everything before it and truncate it away.
func TestFileTornCRC(t *testing.T) {
	dir := t.TempDir()
	f, err := store.OpenFile(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := f.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	e := log.Entry{Index: 0, Instance: 0, Cmd: types.Value("survivor")}
	if err := f.AppendEntry(e); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Append a full frame, then flip a payload byte so the CRC fails.
	path := filepath.Join(dir, "wal.log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	tail := []byte{1, 24, 0, 0, 0}
	tail = append(tail, make([]byte, 24+4)...) // zero payload + zero CRC: mismatch
	if err := os.WriteFile(path, append(raw, tail...), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	nf, err := store.OpenFile(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	rec, err := nf.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(rec.Entries) != 1 || rec.Entries[0].Cmd != e.Cmd {
		t.Fatalf("recovered %v, want the one intact entry", rec.Entries)
	}
	// The bad frame must be gone from disk after repair.
	repaired, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read repaired: %v", err)
	}
	if len(repaired) != len(raw) {
		t.Fatalf("repaired WAL is %d bytes, want %d (bad frame truncated)", len(repaired), len(raw))
	}
}

// TestFileSnapshotFallback: a corrupt newest snapshot file must not
// mask an older intact one — recovery falls back instead of failing.
func TestFileSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	f, err := store.OpenFile(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := f.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if err := f.StampSnapshot(3, 2, []byte("good-old")); err != nil {
		t.Fatalf("stamp: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Fabricate a newer snapshot file with a bad CRC (a rename that beat
	// the data to disk).
	bad := filepath.Join(dir, "snap-00000000000000000009-00000000000000000005")
	if err := os.WriteFile(bad, []byte("corrupt-no-valid-crc"), 0o644); err != nil {
		t.Fatalf("write bad snap: %v", err)
	}
	nf, err := store.OpenFile(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	rec, err := nf.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if string(rec.SnapPayload) != "good-old" || rec.SnapIndex != 3 {
		t.Fatalf("recovered snapshot (%q, %d), want the intact older one",
			rec.SnapPayload, rec.SnapIndex)
	}
}

// TestFileRewrite drives the WAL rewrite both ways a live replica
// reaches it — a long stretch of boundary marks that seal no entries,
// and a truncated prefix of that many entries — and checks that the
// compact WAL it leaves recovers the same entries and boundary after a
// close and reopen, appends made after the rewrite included.
func TestFileRewrite(t *testing.T) {
	const slack = 4096 // the store's rewriteSlack
	entry := func(i int) log.Entry {
		return log.Entry{Index: i, Instance: types.Instance(i / 4), Cmd: types.Value(fmt.Sprintf("cmd-%05d", i))}
	}
	walSize := func(t *testing.T, dir string) int64 {
		t.Helper()
		st, err := os.Stat(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	// run opens a fresh store, lets fill write into it up to and
	// including the call that must rewrite the WAL, appends past the
	// rewrite, then reopens the directory and compares what it recovers.
	run := func(t *testing.T, fill func(f *store.File) (next int, boundary types.Instance), wantFirst int) {
		dir := t.TempDir()
		f, err := store.OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Recover(); err != nil {
			t.Fatal(err)
		}
		next, boundary := fill(f)
		// A rewritten WAL holds the live entries and one boundary record,
		// each under 64 bytes; before the rewrite it held thousands more.
		if size := walSize(t, dir); size > int64(next-wantFirst+1)*64 {
			t.Fatalf("WAL is %d bytes after the rewrite point: not rewritten", size)
		}
		for i := next; i < next+3; i++ {
			if err := f.AppendEntry(entry(i)); err != nil {
				t.Fatal(err)
			}
		}
		boundary++
		if err := f.MarkApplied(boundary); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		nf, err := store.OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer nf.Close()
		rec, err := nf.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Boundary != boundary {
			t.Errorf("recovered boundary %v, want %v", rec.Boundary, boundary)
		}
		if len(rec.Entries) != next+3-wantFirst {
			t.Fatalf("recovered %d entries, want %d", len(rec.Entries), next+3-wantFirst)
		}
		for k, e := range rec.Entries {
			if want := entry(wantFirst + k); e != want {
				t.Fatalf("recovered entry %d = %+v, want %+v", k, e, want)
			}
		}
	}

	t.Run("marks", func(t *testing.T) {
		run(t, func(f *store.File) (int, types.Instance) {
			for i := 0; i < 4; i++ {
				if err := f.AppendEntry(entry(i)); err != nil {
					t.Fatal(err)
				}
			}
			// An idle replica marks every command-less instance; the
			// slack-th mark since the last rewrite folds them away.
			b := types.Instance(0)
			for range slack {
				b++
				if err := f.MarkApplied(b); err != nil {
					t.Fatal(err)
				}
			}
			return 4, b
		}, 0)
	})
	t.Run("truncate", func(t *testing.T) {
		run(t, func(f *store.File) (int, types.Instance) {
			const n = slack + 8
			for i := 0; i < n; i++ {
				if err := f.AppendEntry(entry(i)); err != nil {
					t.Fatal(err)
				}
			}
			b := entry(n-1).Instance + 1
			if err := f.MarkApplied(b); err != nil {
				t.Fatal(err)
			}
			// A snapshot retires the first slack entries: the dead
			// prefix reaches the slack and the WAL is rewritten.
			if err := f.TruncatePrefix(slack); err != nil {
				t.Fatal(err)
			}
			return n, b
		}, slack)
	})
}
