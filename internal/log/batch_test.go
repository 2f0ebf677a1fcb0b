package log

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func TestBatchRoundTrip(t *testing.T) {
	tests := [][]types.Value{
		nil,
		{},
		{"a"},
		{"a", "b", "c"},
		{"", "non-empty", ""},
		{"with\x00nul", "with⊥unicode", types.Value(strings.Repeat("x", 4096))},
	}
	for _, cmds := range tests {
		v := EncodeBatch(cmds)
		got, err := DecodeBatch(v)
		if err != nil {
			t.Fatalf("DecodeBatch(EncodeBatch(%q)): %v", cmds, err)
		}
		if len(got) != len(cmds) {
			t.Fatalf("round trip of %q: got %q", cmds, got)
		}
		for i := range cmds {
			if got[i] != cmds[i] {
				t.Errorf("cmd %d: got %q, want %q", i, got[i], cmds[i])
			}
		}
	}
}

func TestBatchNeverBot(t *testing.T) {
	// Encoded batches must never collide with the reserved ⊥ value.
	if EncodeBatch(nil) == types.BotValue {
		t.Fatal("empty batch encodes to ⊥")
	}
	if EncodeBatch([]types.Value{types.Value("x")}) == types.BotValue {
		t.Fatal("batch encodes to ⊥")
	}
}

func TestBatchRoundTripQuick(t *testing.T) {
	f := func(cmds []string) bool {
		in := make([]types.Value, len(cmds))
		for i, c := range cmds {
			in[i] = types.Value(c)
		}
		got, err := DecodeBatch(EncodeBatch(in))
		if err != nil || len(got) != len(in) {
			return false
		}
		for i := range in {
			if got[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeBatchRejectsMalformed(t *testing.T) {
	valid := []byte(EncodeBatch([]types.Value{"abc", "de"}))
	tests := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"wrong magic", []byte{'X'}},
		{"bot value", []byte(types.BotValue)},
		{"truncated length", valid[:len(valid)-7]},
		{"truncated payload", valid[:len(valid)-1]},
		{"huge length", func() []byte {
			b := append([]byte{batchMagic}, 0, 0, 0, 0)
			binary.LittleEndian.PutUint32(b[1:], 1<<30)
			return b
		}()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodeBatch(types.Value(tt.b)); err == nil {
				t.Fatalf("malformed batch %x accepted", tt.b)
			}
		})
	}
}

// TestDecodeBatchOneAllocation: the commands share the batch's bytes, so
// decoding a batch allocates the result slice and nothing else.
func TestDecodeBatchOneAllocation(t *testing.T) {
	cmds := make([]types.Value, 32)
	for i := range cmds {
		cmds[i] = types.Value(fmt.Sprintf("put key-%d value-%d", i, i))
	}
	v := EncodeBatch(cmds)
	var got []types.Value
	allocs := testing.AllocsPerRun(100, func() {
		got, _ = DecodeBatch(v)
	})
	if allocs != 1 {
		t.Fatalf("DecodeBatch of %d commands: %v allocations, want 1", len(cmds), allocs)
	}
	if len(got) != len(cmds) || got[31] != cmds[31] {
		t.Fatalf("decoded %q", got)
	}
}

// FuzzDecodeBatch: DecodeBatch never panics on arbitrary bytes, and
// whatever it accepts re-encodes to exactly its input.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte(EncodeBatch(nil)))
	f.Add([]byte(EncodeBatch([]types.Value{"abc", "", "de"})))
	f.Add([]byte(types.BotValue))
	f.Add([]byte{batchMagic, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, b []byte) {
		cmds, err := DecodeBatch(types.Value(b))
		if err != nil {
			return
		}
		if re := EncodeBatch(cmds); re != types.Value(b) {
			t.Fatalf("%x decoded to %q, which encodes to %x", b, cmds, re)
		}
	})
}
