package kv

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/types"
)

func TestCommandCodecRoundTrip(t *testing.T) {
	cases := []Command{
		{Op: OpPut, Client: 1, Seq: 1, Key: "k", Val: "v"},
		{Op: OpGet, Client: 7, Seq: 42, Key: "some/long/key"},
		{Op: OpDel, Client: 0, Seq: 0, Key: ""},
		{Op: OpPut, Client: ^uint64(0), Seq: ^uint64(0), Key: "k", Val: string([]byte{0, 1, 2, 255})},
	}
	for _, c := range cases {
		got, err := DecodeCommand(c.Encode())
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if got != c {
			t.Errorf("round trip: got %+v want %+v", got, c)
		}
	}
}

func TestResponseCodecRoundTrip(t *testing.T) {
	for _, r := range []Response{
		{Status: StatusOK, Val: "v"},
		{Status: StatusNotFound},
		{Status: StatusStale},
		{Status: StatusErr},
	} {
		got, err := DecodeResponse(r.Encode())
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		if got != r {
			t.Errorf("round trip: got %+v want %+v", got, r)
		}
	}
}

func TestCodecRejectsMalformed(t *testing.T) {
	bad := []types.Value{
		"", "x", "K", types.BotValue,
		types.Value([]byte{cmdMagic, 'X', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}), // bad op
		Command{Op: OpPut, Key: "k"}.Encode() + "trailing",
	}
	for _, v := range bad {
		if _, err := DecodeCommand(v); err == nil {
			t.Errorf("DecodeCommand(%q) accepted malformed input", v)
		}
	}
	if _, err := DecodeResponse("Rx"); err == nil {
		t.Error("DecodeResponse accepted bad status")
	}
}

func apply(t *testing.T, s *Store, c Command) Response {
	t.Helper()
	r, err := DecodeResponse(s.Apply(c.Encode()))
	if err != nil {
		t.Fatalf("apply %v: undecodable response: %v", c, err)
	}
	return r
}

func TestStoreBasicOps(t *testing.T) {
	s := NewStore()
	if r := apply(t, s, Command{Op: OpGet, Key: "a"}); r.Status != StatusNotFound {
		t.Fatalf("get absent: %v", r)
	}
	if r := apply(t, s, Command{Op: OpPut, Key: "a", Val: "1"}); r.Status != StatusOK {
		t.Fatalf("put: %v", r)
	}
	if r := apply(t, s, Command{Op: OpGet, Key: "a"}); r.Status != StatusOK || r.Val != "1" {
		t.Fatalf("get: %v", r)
	}
	if r := apply(t, s, Command{Op: OpDel, Key: "a"}); r.Status != StatusOK {
		t.Fatalf("del: %v", r)
	}
	if r := apply(t, s, Command{Op: OpDel, Key: "a"}); r.Status != StatusNotFound {
		t.Fatalf("del absent: %v", r)
	}
	if s.Len() != 0 {
		t.Fatalf("store not empty: %d keys", s.Len())
	}
}

// TestSessionExactlyOnce: re-delivering a client's last command must not
// re-apply it, and must answer with the original cached response even if
// the retry's payload differs.
func TestSessionExactlyOnce(t *testing.T) {
	s := NewStore()
	apply(t, s, Command{Op: OpPut, Client: 1, Seq: 1, Key: "k", Val: "v1"})
	before := s.Applies()

	// Byte-identical retry.
	r := apply(t, s, Command{Op: OpPut, Client: 1, Seq: 1, Key: "k", Val: "v1"})
	if r.Status != StatusOK {
		t.Fatalf("retry answer: %v", r)
	}
	// Retry with a different payload (client re-encoded): still the cached
	// answer, still not applied.
	apply(t, s, Command{Op: OpPut, Client: 1, Seq: 1, Key: "k", Val: "v2-retry"})

	if s.Applies() != before {
		t.Fatalf("retries re-applied: %d -> %d applies", before, s.Applies())
	}
	if s.Duplicates() != 2 {
		t.Fatalf("duplicates = %d, want 2", s.Duplicates())
	}
	if v, _ := s.Get("k"); v != "v1" {
		t.Fatalf("retry overwrote state: %q", v)
	}
}

// TestSessionOutOfOrder: sequence numbers below the watermark are stale
// and rejected; gaps above it advance the watermark (the client moved on).
func TestSessionOutOfOrder(t *testing.T) {
	s := NewStore()
	apply(t, s, Command{Op: OpPut, Client: 9, Seq: 5, Key: "a", Val: "x"})
	if r := apply(t, s, Command{Op: OpPut, Client: 9, Seq: 3, Key: "a", Val: "old"}); r.Status != StatusStale {
		t.Fatalf("regressed seq not stale: %v", r)
	}
	if v, _ := s.Get("a"); v != "x" {
		t.Fatalf("stale command mutated state: %q", v)
	}
	if r := apply(t, s, Command{Op: OpPut, Client: 9, Seq: 7, Key: "a", Val: "y"}); r.Status != StatusOK {
		t.Fatalf("gap seq rejected: %v", r)
	}
	if s.SessionSeq(9) != 7 {
		t.Fatalf("watermark = %d, want 7", s.SessionSeq(9))
	}
	if s.Stales() != 1 {
		t.Fatalf("stales = %d, want 1", s.Stales())
	}
}

// TestSessionlessClientZero: client 0 bypasses the session filter.
func TestSessionlessClientZero(t *testing.T) {
	s := NewStore()
	apply(t, s, Command{Op: OpPut, Client: 0, Seq: 1, Key: "k", Val: "a"})
	apply(t, s, Command{Op: OpPut, Client: 0, Seq: 1, Key: "k", Val: "b"})
	if v, _ := s.Get("k"); v != "b" {
		t.Fatalf("sessionless re-apply suppressed: %q", v)
	}
	if s.Sessions() != 0 {
		t.Fatalf("client 0 grew a session")
	}
}

func TestApplyBadBytes(t *testing.T) {
	s := NewStore()
	r, err := DecodeResponse(s.Apply("garbage"))
	if err != nil || r.Status != StatusErr {
		t.Fatalf("bad bytes: %v %v", r, err)
	}
	if s.BadCommands() != 1 {
		t.Fatalf("badCmds = %d", s.BadCommands())
	}
}

// TestSnapshotDeterminism: equal state must encode to equal bytes
// regardless of the operation order that produced it (map iteration must
// not leak).
func TestSnapshotDeterminism(t *testing.T) {
	build := func(perm []int) *Store {
		s := NewStore()
		for _, i := range perm {
			apply(t, s, Command{Op: OpPut, Client: uint64(i + 1), Seq: 1,
				Key: fmt.Sprintf("key-%02d", i), Val: fmt.Sprintf("val-%02d", i)})
		}
		return s
	}
	n := 16
	fwd, rev := make([]int, n), make([]int, n)
	for i := 0; i < n; i++ {
		fwd[i], rev[i] = i, n-1-i
	}
	a, b := build(fwd).Snapshot(), build(rev).Snapshot()
	if !bytes.Equal(a, b) {
		t.Fatal("snapshot bytes depend on insertion order")
	}
	// And repeated encodings of one store are stable.
	s := build(fwd)
	if !bytes.Equal(s.Snapshot(), s.Snapshot()) {
		t.Fatal("snapshot bytes unstable across calls")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		apply(t, s, Command{Op: OpPut, Client: uint64(i%3 + 1), Seq: uint64(i/3 + 1),
			Key: fmt.Sprintf("k%d", i), Val: fmt.Sprintf("v%d", i)})
	}
	apply(t, s, Command{Op: OpDel, Client: 1, Seq: 5, Key: "k0"})
	apply(t, s, Command{Op: OpPut, Client: 1, Seq: 5, Key: "ignored", Val: "dup"}) // cached
	snap := s.Snapshot()

	r := NewStore()
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Snapshot(), snap) {
		t.Fatal("restored store re-encodes differently")
	}
	if r.Len() != s.Len() || r.Sessions() != s.Sessions() || r.Duplicates() != s.Duplicates() {
		t.Fatal("restored store differs structurally")
	}
	// The restored session table still dedups.
	before := r.Applies()
	apply(t, r, Command{Op: OpPut, Client: 1, Seq: 5, Key: "ignored", Val: "dup"})
	if r.Applies() != before {
		t.Fatal("restored session table lost its watermark")
	}
}

// Snapshot sizes its buffer exactly, so encoding never regrows it.
func TestSnapshotSizedExactly(t *testing.T) {
	s := NewStore()
	for _, n := range []int{0, 1, 40} {
		for i := 0; i < n; i++ {
			apply(t, s, Command{Op: OpPut, Client: uint64(i%5 + 1), Seq: uint64(i + 1),
				Key: fmt.Sprintf("key-%d", i), Val: fmt.Sprintf("%0*d", i, i)})
		}
		apply(t, s, Command{Op: OpGet, Client: 9, Seq: uint64(n + 1), Key: "key-0"})
		if snap := s.Snapshot(); len(snap) != cap(snap) {
			t.Fatalf("after %d puts: snapshot of %d bytes in a buffer of %d", n, len(snap), cap(snap))
		}
	}
}

func TestRestoreRejectsMalformed(t *testing.T) {
	s := NewStore()
	good := s.Snapshot()
	bad := [][]byte{
		nil, {}, {snapMagic}, good[:len(good)-1], append(append([]byte{}, good...), 0),
		{'X', 0, 0, 0, 0, 0, 0, 0, 0},
	}
	for i, b := range bad {
		if err := NewStore().Restore(b); err == nil {
			t.Errorf("case %d: malformed snapshot accepted", i)
		}
	}
}

// TestValidateSnapshot: the dry-run decode agrees with Restore, and a
// failed Restore leaves live state untouched (the all-or-nothing
// contract peer-snapshot installation relies on).
func TestValidateSnapshot(t *testing.T) {
	s := NewStore()
	s.Apply(Command{Op: OpPut, Client: 1, Seq: 1, Key: "k", Val: "v"}.Encode())
	snap := s.Snapshot()
	if err := ValidateSnapshot(snap); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	if err := ValidateSnapshot(snap[:len(snap)-1]); err == nil {
		t.Fatal("truncated snapshot validated")
	}
	if err := ValidateSnapshot([]byte("junk")); err == nil {
		t.Fatal("junk validated")
	}
	// Restore of garbage must not disturb the live store.
	before := string(s.Snapshot())
	if err := s.Restore(snap[:len(snap)-1]); err == nil {
		t.Fatal("truncated snapshot restored")
	}
	if string(s.Snapshot()) != before {
		t.Fatal("failed Restore mutated live state")
	}
}
