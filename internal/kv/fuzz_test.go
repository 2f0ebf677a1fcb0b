package kv

import (
	"bytes"
	"testing"

	"repro/internal/types"
)

// FuzzDecodeCommand: committed commands can come from Byzantine
// proposers, so DecodeCommand never panics on arbitrary bytes, and
// whatever it accepts re-encodes to exactly its input.
func FuzzDecodeCommand(f *testing.F) {
	f.Add([]byte(Command{Op: OpPut, Client: 1, Seq: 1, Key: "k", Val: "v"}.Encode()))
	f.Add([]byte(Command{Op: OpGet, Client: 7, Seq: 42, Key: "some/long/key"}.Encode()))
	f.Add([]byte(Command{Op: OpDel}.Encode()))
	f.Add([]byte(types.BotValue))
	f.Add([]byte{cmdMagic, byte(OpPut), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := DecodeCommand(types.Value(b))
		if err != nil {
			return
		}
		if re := c.Encode(); re != types.Value(b) {
			t.Fatalf("%x decoded to %v, which encodes to %x", b, c, re)
		}
	})
}

// FuzzStoreSnapshot: snapshot bytes come from peers, so Restore never
// panics on arbitrary bytes; what it accepts re-encodes to exactly its
// input, and what it refuses leaves the store as it was.
func FuzzStoreSnapshot(f *testing.F) {
	seed := NewStore()
	f.Add(seed.Snapshot())
	for i, c := range []Command{
		{Op: OpPut, Key: "a", Val: "1"},
		{Op: OpPut, Client: 3, Seq: 1, Key: "b", Val: "2"},
		{Op: OpGet, Client: 5, Seq: 1, Key: "a"},
		{Op: OpDel, Client: 3, Seq: 2, Key: "b"},
	} {
		seed.Apply(c.Encode())
		if i%2 == 1 {
			f.Add(seed.Snapshot())
		}
	}
	f.Add([]byte{snapMagic})
	f.Fuzz(func(t *testing.T, b []byte) {
		s := NewStore()
		s.Apply(Command{Op: OpPut, Client: 9, Seq: 4, Key: "live", Val: "state"}.Encode())
		before := s.Snapshot()
		if err := s.Restore(b); err != nil {
			if after := s.Snapshot(); !bytes.Equal(after, before) {
				t.Fatalf("failed Restore(%x) changed the store: %x, was %x", b, after, before)
			}
			return
		}
		if re := s.Snapshot(); !bytes.Equal(re, b) {
			t.Fatalf("%x restored to a store whose snapshot is %x", b, re)
		}
	})
}
