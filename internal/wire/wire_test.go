package wire

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/proto"
	"repro/internal/rb"
	"repro/internal/types"
)

var allKinds = []proto.MsgKind{
	proto.MsgRBInit, proto.MsgRBEcho, proto.MsgRBReady,
	proto.MsgEAProp2, proto.MsgEACoord, proto.MsgEARelay, proto.MsgDecide,
}

var allModules = []proto.Module{
	proto.ModConsCB0, proto.ModEACB, proto.ModEA,
	proto.ModACCB, proto.ModACEst, proto.ModDecide,
}

func roundTrip(t *testing.T, m proto.Message) proto.Message {
	t.Helper()
	b, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode(%v): %v", m, err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode(Encode(%v)): %v", m, err)
	}
	return got
}

func TestRoundTripBasic(t *testing.T) {
	tests := []proto.Message{
		{Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModConsCB0}, Origin: 1, Val: "hello"},
		{Kind: proto.MsgRBEcho, Tag: proto.Tag{Mod: proto.ModACEst, Round: 42}, Origin: 7, Val: ""},
		{Kind: proto.MsgRBReady, Tag: proto.Tag{Mod: proto.ModACCB, Round: 2}, Origin: 3, Val: "ready"},
		{Kind: proto.MsgDecide, Tag: proto.Tag{Mod: proto.ModDecide}, Val: "decision"},
		{Kind: proto.MsgEAProp2, Tag: proto.Tag{Mod: proto.ModEA, Round: 9}, Val: "aux"},
		{Kind: proto.MsgEACoord, Tag: proto.Tag{Mod: proto.ModEA, Round: 1 << 40}, Val: "w"},
		{Kind: proto.MsgEARelay, Tag: proto.Tag{Mod: proto.ModEA, Round: 5}, Opt: types.Some("v")},
		{Kind: proto.MsgEARelay, Tag: proto.Tag{Mod: proto.ModEA, Round: 5}, Opt: types.Bot},
		{Kind: proto.MsgEARelay, Tag: proto.Tag{Mod: proto.ModEA, Round: 5}, Opt: types.Some("")},
		{Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModConsCB0}, Instance: 17, Origin: 2, Val: "batch"},
		{Kind: proto.MsgEARelay, Tag: proto.Tag{Mod: proto.ModEA, Round: 3}, Instance: 1 << 40, Opt: types.Bot},
	}
	for _, m := range tests {
		got := roundTrip(t, m)
		if got != m {
			t.Errorf("round trip: got %+v, want %+v", got, m)
		}
	}
}

// TestRoundTripAllCombos exercises every MsgKind × Module pair, with and
// without a nonzero log instance.
func TestRoundTripAllCombos(t *testing.T) {
	for _, kind := range allKinds {
		for _, mod := range allModules {
			for _, inst := range []types.Instance{0, 9} {
				m := proto.Message{
					Kind:     kind,
					Tag:      proto.Tag{Mod: mod, Round: 6},
					Instance: inst,
					Origin:   4,
				}
				if kind == proto.MsgEARelay {
					m.Opt = types.Some("relay-val")
				} else {
					m.Val = "val"
				}
				got := roundTrip(t, m)
				if got != m {
					t.Errorf("%v/%v/i%d: got %+v, want %+v", kind, mod, inst, got, m)
				}
			}
		}
	}
}

func TestRelayBotVsEmptyDistinct(t *testing.T) {
	// ⊥ and Some("") must round-trip distinguishably.
	bot := roundTrip(t, proto.Message{Kind: proto.MsgEARelay, Tag: proto.Tag{Mod: proto.ModEA, Round: 1}, Opt: types.Bot})
	empty := roundTrip(t, proto.Message{Kind: proto.MsgEARelay, Tag: proto.Tag{Mod: proto.ModEA, Round: 1}, Opt: types.Some("")})
	if !bot.Opt.IsBot() {
		t.Error("⊥ decoded as non-⊥")
	}
	if empty.Opt.IsBot() {
		t.Error("Some(\"\") decoded as ⊥")
	}
}

// TestRoundTripQuick property-checks the codec across random messages.
func TestRoundTripQuick(t *testing.T) {
	f := func(kindRaw, modRaw uint8, round uint32, inst uint32, origin uint16, val string, bot bool) bool {
		kind := proto.MsgKind(int(kindRaw)%6) + proto.MsgRBInit
		mod := proto.Module(int(modRaw)%6) + proto.ModConsCB0
		if len(val) > 4096 {
			val = val[:4096]
		}
		m := proto.Message{
			Kind:     kind,
			Tag:      proto.Tag{Mod: mod, Round: types.Round(round)},
			Instance: types.Instance(inst),
			Origin:   types.ProcID(origin),
		}
		if kind == proto.MsgEARelay {
			if !bot {
				m.Opt = types.Some(types.Value(val))
			}
		} else {
			m.Val = types.Value(val)
		}
		b, err := Encode(m)
		if err != nil {
			return false
		}
		got, err := Decode(b)
		return err == nil && got == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Encode copies the value straight into the frame: one allocation, with
// no staging copy of the value.
func TestEncodeAllocatesOnce(t *testing.T) {
	batch := types.Value(strings.Repeat("c", 4096))
	for _, m := range []proto.Message{
		{Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModConsCB0}, Origin: 1, Instance: 7, Val: batch},
		{Kind: proto.MsgEARelay, Tag: proto.Tag{Mod: proto.ModEA, Round: 2}, Opt: types.Some(batch)},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := Encode(m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("Encode(%v) allocates %v times, want 1", m.Kind, allocs)
		}
	}
}

func TestEncodeRejectsNegativeInstance(t *testing.T) {
	m := proto.Message{Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModDecide}, Instance: -1, Val: "x"}
	if _, err := Encode(m); err == nil {
		t.Fatal("Encode accepted a negative instance")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	valid, err := Encode(proto.Message{Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModDecide}, Origin: 1, Val: "x"})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func([]byte) []byte
		substr string
	}{
		{"short", func(b []byte) []byte { return b[:10] }, "short"},
		{"truncated header", func(b []byte) []byte { return b[:headerLen-1] }, "short"},
		{"empty", func(b []byte) []byte { return nil }, "short"},
		{"bad version", func(b []byte) []byte { b[0] = 9; return b }, "version"},
		{"bad kind zero", func(b []byte) []byte { b[1] = 0; return b }, "kind"},
		{"bad kind high", func(b []byte) []byte { b[1] = 200; return b }, "kind"},
		{"bad module", func(b []byte) []byte { b[2] = 99; return b }, "module"},
		{"negative round", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[4:], 1<<63)
			return b
		}, "round"},
		{"negative origin", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], 1<<31)
			return b
		}, "origin"},
		{"negative instance", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:], 1<<63)
			return b
		}, "instance"},
		{"length mismatch long", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[24:], 500)
			return b
		}, "mismatch"},
		{"length over limit", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[24:], MaxValueLen+1)
			return b
		}, "limit"},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xFF) }, "mismatch"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := tt.mutate(bytes.Clone(valid))
			_, err := Decode(b)
			if err == nil {
				t.Fatal("malformed frame accepted")
			}
			if !strings.Contains(err.Error(), tt.substr) {
				t.Errorf("error %q does not mention %q", err, tt.substr)
			}
		})
	}
}

func TestBotRelayWithPayloadRejected(t *testing.T) {
	b, err := Encode(proto.Message{Kind: proto.MsgEARelay, Tag: proto.Tag{Mod: proto.ModEA, Round: 1}, Opt: types.Bot})
	if err != nil {
		t.Fatal(err)
	}
	// Forge value bytes onto a ⊥ relay.
	binary.LittleEndian.PutUint32(b[24:], 3)
	b = append(b, 'e', 'v', 'l')
	if _, err := Decode(b); err == nil {
		t.Fatal("⊥ relay with payload accepted")
	}
}

func TestEncodeRejectsHugeValue(t *testing.T) {
	huge := types.Value(strings.Repeat("x", MaxValueLen+1))
	if _, err := Encode(proto.Message{Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModDecide}, Val: huge}); err == nil {
		t.Fatal("oversized value accepted")
	}
}

// withVersion returns a copy of frame claiming version v.
func withVersion(frame []byte, v byte) []byte {
	b := bytes.Clone(frame)
	b[0] = v
	return b
}

// TestDecodeRejectsOtherVersions: there is one wire version. An
// otherwise valid frame of every kind is refused under every other
// version byte, before any other field is looked at.
func TestDecodeRejectsOtherVersions(t *testing.T) {
	for kind := proto.MsgRBInit; kind <= proto.MsgDecide; kind++ {
		m := proto.Message{Kind: kind, Tag: proto.Tag{Mod: proto.ModEA, Round: 2}, Instance: 3, Origin: 1}
		if kind == proto.MsgEARelay {
			m.Opt = types.Some("v")
		} else {
			m.Val = "v"
		}
		frame, err := Encode(m)
		if err != nil {
			t.Fatalf("Encode(%v): %v", kind, err)
		}
		if got, err := Decode(frame); err != nil || got != m {
			t.Fatalf("%v: version %d frame: got %+v, %v", kind, Version, got, err)
		}
		for v := 0; v < 256; v++ {
			if v == Version {
				continue
			}
			_, err := Decode(withVersion(frame, byte(v)))
			if err == nil || !strings.Contains(err.Error(), "unsupported version") {
				t.Errorf("%v frame claiming version %d: err = %v, want unsupported version", kind, v, err)
			}
		}
	}
}

// FuzzDecode ensures Decode never panics on arbitrary bytes and that valid
// decodes re-encode canonically — which a frame of any other version
// cannot, so accepting one fails here too. The committed corpus under
// testdata/fuzz holds v1, v2 and v4 frames earlier codecs accepted: they
// are must-reject regressions now.
func FuzzDecode(f *testing.F) {
	seed, _ := Encode(proto.Message{Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModDecide}, Origin: 1, Val: "x"})
	echo, _ := Encode(proto.Message{Kind: proto.MsgRBEcho, Tag: proto.Tag{Mod: proto.ModACEst, Round: 2}, Instance: 5, Origin: 3, Val: "y"})
	f.Add(seed)
	f.Add(withVersion(seed, 1))
	f.Add(withVersion(echo, 2))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	// Snapshot-transfer frames, valid and deliberately malformed: the
	// transfer path is the one place where megabyte payloads from
	// Byzantine peers are EXPECTED, so its frames get their own seeds.
	snapReq, _ := Encode(proto.Message{Kind: proto.MsgSnapRequest, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: 12})
	snapResp, _ := Encode(proto.Message{Kind: proto.MsgSnapResponse, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: 40, Val: "digest-and-snapshot-bytes"})
	f.Add(snapReq)
	f.Add(snapResp)
	f.Add(snapResp[:len(snapResp)-4]) // truncated payload
	forgedKind := bytes.Clone(snapResp)
	forgedKind[1] = byte(proto.MsgDecide) + 1 // past the vocabulary
	f.Add(forgedKind)
	f.Add(withVersion(snapReq, 2))
	// Coalesced-relay frames: a vector carrying opaque entry bytes, one
	// carrying a real hashed entry (an rb.HashLen-byte reference), and a
	// pull for such a reference.
	vec, _ := Encode(proto.Message{Kind: proto.MsgRBVector, Tag: proto.Tag{Mod: proto.ModRBRelay}, Origin: 2, Val: "entry-vector-bytes"})
	ref := types.Value(strings.Repeat("h", rb.HashLen))
	entries, _ := rb.EncodeEntries([]rb.Entry{{Kind: proto.MsgRBReady, Tag: proto.Tag{Mod: proto.ModACEst, Round: 1}, Origin: 3, Instance: 9, Hashed: true, Val: ref}})
	hashed, _ := Encode(proto.Message{Kind: proto.MsgRBVector, Tag: proto.Tag{Mod: proto.ModRBRelay}, Origin: 2, Val: entries})
	pull, _ := Encode(proto.Message{Kind: proto.MsgRBPull, Tag: proto.Tag{Mod: proto.ModRBRelay}, Origin: 2, Val: ref})
	f.Add(vec)
	f.Add(hashed)
	f.Add(pull)
	f.Add(withVersion(snapReq, 3))
	f.Add(withVersion(vec, 3))
	// Chunk-streaming frames: a chunk with a binary body and a 40-byte
	// range ack.
	chunkBody := make([]byte, 72)
	for i := range chunkBody {
		chunkBody[i] = byte(i * 11)
	}
	chunk, _ := Encode(proto.Message{Kind: proto.MsgSnapChunk, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: 24, Val: types.Value(chunkBody)})
	ack, _ := Encode(proto.Message{Kind: proto.MsgSnapAck, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: 24, Val: types.Value(chunkBody[:40])})
	f.Add(chunk)
	f.Add(ack)
	f.Add(withVersion(chunk, 4))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		b, err2 := Encode(m)
		if err2 != nil {
			t.Fatalf("decoded message fails to encode: %v", err2)
		}
		if !bytes.Equal(b, data) {
			t.Fatalf("decode/encode not canonical: %x vs %x", data, b)
		}
	})
}

// TestV3KVRoundTrip: the current version carries the KV client
// vocabulary.
func TestV3KVRoundTrip(t *testing.T) {
	for _, m := range []proto.Message{
		{Kind: proto.MsgKVRequest, Tag: proto.Tag{Mod: proto.ModKV}, Val: "encoded-kv-command"},
		{Kind: proto.MsgKVResponse, Tag: proto.Tag{Mod: proto.ModKV}, Val: "encoded-kv-response"},
	} {
		b, err := Encode(m)
		if err != nil {
			t.Fatalf("Encode(%v): %v", m, err)
		}
		if b[0] != Version {
			t.Fatalf("Encode wrote version %d, want %d", b[0], Version)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if got != m {
			t.Fatalf("round trip: got %+v want %+v", got, m)
		}
	}
}

// TestV3SnapRoundTrip: the current version carries the snapshot-transfer
// vocabulary; the Instance field carries the boundary.
func TestV3SnapRoundTrip(t *testing.T) {
	for _, m := range []proto.Message{
		{Kind: proto.MsgSnapRequest, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: 17},
		{Kind: proto.MsgSnapResponse, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: 40, Val: "digest+snapshot+entries"},
		{Kind: proto.MsgSnapResponse, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: 1 << 40, Val: ""},
	} {
		b, err := Encode(m)
		if err != nil {
			t.Fatalf("Encode(%v): %v", m, err)
		}
		if b[0] != Version {
			t.Fatalf("Encode wrote version %d, want %d", b[0], Version)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if got != m {
			t.Fatalf("round trip: got %+v want %+v", got, m)
		}
	}
}

// TestV4RelayRoundTrip: the current version carries the coalesced-relay
// vocabulary. The vector payload is opaque to the codec (rb.EncodeEntries
// owns its layout), so here it is arbitrary bytes.
func TestV4RelayRoundTrip(t *testing.T) {
	for _, m := range []proto.Message{
		{Kind: proto.MsgRBVector, Tag: proto.Tag{Mod: proto.ModRBRelay}, Origin: 3, Val: "opaque-entry-vector"},
		{Kind: proto.MsgRBVector, Tag: proto.Tag{Mod: proto.ModRBRelay}, Origin: 3, Val: ""},
		{Kind: proto.MsgRBPull, Tag: proto.Tag{Mod: proto.ModRBRelay}, Origin: 5, Val: types.Value(strings.Repeat("h", rb.HashLen))},
		{Kind: proto.MsgRBPullResp, Tag: proto.Tag{Mod: proto.ModRBRelay}, Origin: 5, Val: "the-full-value"},
	} {
		b, err := Encode(m)
		if err != nil {
			t.Fatalf("Encode(%v): %v", m, err)
		}
		if b[0] != Version {
			t.Fatalf("Encode wrote version %d, want %d", b[0], Version)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if got != m {
			t.Fatalf("round trip: got %+v want %+v", got, m)
		}
	}
}

// TestVectorFrameMalformed: the malformed-frame matrix against a relay
// vector frame (the frame a Byzantine aggregator would forge).
func TestVectorFrameMalformed(t *testing.T) {
	valid, err := Encode(proto.Message{
		Kind: proto.MsgRBVector, Tag: proto.Tag{Mod: proto.ModRBRelay},
		Origin: 4, Val: "vector-entries",
	})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func([]byte) []byte
		substr string
	}{
		{"kind past vocabulary", func(b []byte) []byte { b[1] = byte(proto.MsgDecide) + 1; return b }, "kind"},
		{"module past vocabulary", func(b []byte) []byte { b[2] = byte(proto.ModRBRelay) + 1; return b }, "module"},
		{"forged flags", func(b []byte) []byte { b[3] = 0x80; return b }, "flags"},
		{"negative round", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[4:], 1<<63)
			return b
		}, "round"},
		{"negative origin", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], 1<<31)
			return b
		}, "origin"},
		{"length mismatch", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[24:], 9000)
			return b
		}, "mismatch"},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-3] }, "mismatch"},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xFF) }, "mismatch"},
		{"downgraded version", func(b []byte) []byte { b[0] = 3; return b }, "version"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := tt.mutate(bytes.Clone(valid))
			_, err := Decode(b)
			if err == nil {
				t.Fatal("malformed vector frame accepted")
			}
			if !strings.Contains(err.Error(), tt.substr) {
				t.Errorf("error %q does not mention %q", err, tt.substr)
			}
		})
	}
}

// TestSnapFrameMalformed: the malformed-frame matrix against a snapshot
// response (the frame that carries real payloads between replicas).
func TestSnapFrameMalformed(t *testing.T) {
	valid, err := Encode(proto.Message{
		Kind: proto.MsgSnapResponse, Tag: proto.Tag{Mod: proto.ModSnap},
		Instance: 9, Val: "payload",
	})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func([]byte) []byte
		substr string
	}{
		{"kind past vocabulary", func(b []byte) []byte { b[1] = byte(proto.MsgDecide) + 1; return b }, "kind"},
		{"module past vocabulary", func(b []byte) []byte { b[2] = byte(proto.ModRBRelay) + 1; return b }, "module"},
		{"chunk kind downgraded to v4", func(b []byte) []byte {
			b[0] = 4
			b[1] = byte(proto.MsgSnapChunk)
			return b
		}, "version"},
		{"negative boundary", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:], 1<<63)
			return b
		}, "instance"},
		{"length mismatch", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[24:], 9000)
			return b
		}, "mismatch"},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-3] }, "mismatch"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := tt.mutate(bytes.Clone(valid))
			_, err := Decode(b)
			if err == nil {
				t.Fatal("malformed snap frame accepted")
			}
			if !strings.Contains(err.Error(), tt.substr) {
				t.Errorf("error %q does not mention %q", err, tt.substr)
			}
		})
	}
}

// TestV5ChunkRoundTrip: the wire-v5 chunk-streaming kinds
// (MsgSnapChunk carrying an opaque chunk body, MsgSnapAck carrying a
// 40-byte range request) round-trip under the current encoder,
// including bodies with interior NULs and high bytes — the chunk
// payload is arbitrary snapshot bytes, not text.
func TestV5ChunkRoundTrip(t *testing.T) {
	binBody := make([]byte, 300)
	for i := range binBody {
		binBody[i] = byte(i * 7)
	}
	for _, m := range []proto.Message{
		{Kind: proto.MsgSnapChunk, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: 24, Val: types.Value(binBody)},
		{Kind: proto.MsgSnapChunk, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: 24, Val: ""},
		{Kind: proto.MsgSnapAck, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: 24, Val: types.Value(binBody[:40])},
	} {
		b, err := Encode(m)
		if err != nil {
			t.Fatalf("Encode(%v): %v", m.Kind, err)
		}
		if b[0] != Version {
			t.Fatalf("Encode wrote version %d, want %d", b[0], Version)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if got != m {
			t.Fatalf("round trip: got %+v want %+v", got, m)
		}
	}
}

// TestChunkFrameMalformed: the malformed-frame matrix against a v5
// chunk frame — the megabyte-bearing frame a Byzantine peer is most
// motivated to corrupt.
func TestChunkFrameMalformed(t *testing.T) {
	body := make([]byte, 128)
	for i := range body {
		body[i] = byte(i)
	}
	valid, err := Encode(proto.Message{
		Kind: proto.MsgSnapChunk, Tag: proto.Tag{Mod: proto.ModSnap},
		Instance: 24, Val: types.Value(body),
	})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func([]byte) []byte
		substr string
	}{
		{"kind past vocabulary", func(b []byte) []byte { b[1] = byte(proto.MsgDecide) + 1; return b }, "kind"},
		{"module past vocabulary", func(b []byte) []byte { b[2] = byte(proto.ModRBRelay) + 1; return b }, "module"},
		{"ack kind downgraded to v4", func(b []byte) []byte {
			b[0] = 4
			b[1] = byte(proto.MsgSnapAck)
			return b
		}, "version"},
		{"negative instance", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:], 1<<63)
			return b
		}, "instance"},
		{"length mismatch", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[24:], 9000)
			return b
		}, "mismatch"},
		{"truncated body", func(b []byte) []byte { return b[:len(b)-5] }, "mismatch"},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xff) }, "mismatch"},
		{"value length past limit", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[24:], MaxValueLen+1)
			return b
		}, "limit"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := tt.mutate(bytes.Clone(valid))
			_, err := Decode(b)
			if err == nil {
				t.Fatal("malformed chunk frame accepted")
			}
			if !strings.Contains(err.Error(), tt.substr) {
				t.Errorf("error %q does not mention %q", err, tt.substr)
			}
		})
	}
}
