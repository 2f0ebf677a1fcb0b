// Size-cliff regression test: the reason the chunk protocol exists.
//
// wire.MaxValueLen caps a single frame's value at 1 MiB, so a machine
// state past that bound simply could not travel as the historical
// one-frame SNAP_RESP — the transfer subsystem hit a hard cliff at the
// codec. This test pins both sides of the cliff: a single frame MUST
// keep failing for a multi-MB payload (the bound is a Byzantine
// allocation defense, not an accident), and the manifest/chunk path
// MUST carry the same payload end to end, every frame comfortably
// inside the codec bound, reassembling byte-identically even when the
// first delivery loses frames.
package wire_test

import (
	"bytes"
	"crypto/sha256"
	"strings"
	"testing"

	"repro/internal/proto"
	"repro/internal/sm"
	"repro/internal/types"
	"repro/internal/wire"
)

func cliffPayload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*2654435761 + i>>16)
	}
	return b
}

func TestSizeCliffSingleFrameFails(t *testing.T) {
	payload := cliffPayload(3<<20 + 137) // ~3 MiB: well past MaxValueLen
	_, err := wire.Encode(proto.Message{
		Kind: proto.MsgSnapResponse, Tag: proto.Tag{Mod: proto.ModSnap},
		Instance: 40, Val: types.Value(payload),
	})
	if err == nil {
		t.Fatal("a 3 MiB value fit a single frame — the codec bound is gone")
	}
	if !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("unexpected refusal: %v", err)
	}
}

func TestSizeCliffChunkedSucceeds(t *testing.T) {
	payload := cliffPayload(3<<20 + 137)
	mf, err := sm.BuildManifest(96, 40, payload)
	if err != nil {
		t.Fatalf("chunked path refused the payload the single frame cannot carry: %v", err)
	}

	// The manifest frame itself fits the codec.
	mfFrame, err := wire.Encode(proto.Message{
		Kind: proto.MsgSnapResponse, Tag: proto.Tag{Mod: proto.ModSnap},
		Instance: 40, Val: types.Value(sm.EncodeManifest(mf)),
	})
	if err != nil {
		t.Fatalf("manifest frame over the codec bound: %v", err)
	}
	if _, err := wire.Decode(mfFrame); err != nil {
		t.Fatalf("manifest frame round trip: %v", err)
	}

	// Every chunk frame — including a maximal one — fits the codec, and
	// the payload reassembles byte-identically. Drop every second chunk
	// on the first pass to model frame loss: the survivors land, the
	// re-requested range fills the holes.
	chunks := make([][]byte, mf.ChunkCount())
	deliver := func(i int) {
		lo := i * sm.TransferChunkSize
		data := payload[lo : lo+mf.ChunkLen(i)]
		frame, err := wire.Encode(proto.Message{
			Kind: proto.MsgSnapChunk, Tag: proto.Tag{Mod: proto.ModSnap},
			Instance: 40, Val: sm.EncodeChunk(mf.Payload, i, data),
		})
		if err != nil {
			t.Fatalf("chunk %d over the codec bound: %v", i, err)
		}
		m, err := wire.Decode(frame)
		if err != nil {
			t.Fatalf("chunk %d round trip: %v", i, err)
		}
		digest, idx, body, err := sm.DecodeChunk(m.Val)
		if err != nil {
			t.Fatalf("chunk %d body: %v", i, err)
		}
		if digest != mf.Payload || idx != i {
			t.Fatalf("chunk %d decoded as (%x, %d)", i, digest[:4], idx)
		}
		if sha256.Sum256(body) != mf.Hashes[i] {
			t.Fatalf("chunk %d hash contradicts the manifest", i)
		}
		chunks[i] = body
	}
	for i := 0; i < mf.ChunkCount(); i += 2 { // lossy first pass
		deliver(i)
	}
	for i := 1; i < mf.ChunkCount(); i += 2 { // re-requested holes
		deliver(i)
	}
	got := bytes.Join(chunks, nil)
	if !bytes.Equal(got, payload) {
		t.Fatal("reassembled payload differs from the original")
	}
	if sha256.Sum256(got) != mf.Payload {
		t.Fatal("reassembled payload contradicts the manifest digest")
	}
}

// TestChunkFrameHeadroom pins the static geometry: the largest possible
// chunk frame and the largest possible manifest frame both sit inside
// wire.MaxValueLen with room to spare — a constant bump that broke this
// would silently resurrect the cliff.
func TestChunkFrameHeadroom(t *testing.T) {
	maxChunk := len(sm.EncodeChunk([32]byte{}, 0, make([]byte, sm.TransferChunkSize)))
	if maxChunk > wire.MaxValueLen {
		t.Fatalf("maximal chunk frame (%d bytes) exceeds wire.MaxValueLen (%d)", maxChunk, wire.MaxValueLen)
	}
	bigManifest := sm.Manifest{
		Index: 1, Instance: 1,
		TotalLen: sm.MaxManifestChunks * sm.TransferChunkSize,
		Hashes:   make([][32]byte, sm.MaxManifestChunks),
	}
	if n := len(sm.EncodeManifest(bigManifest)); n > wire.MaxValueLen {
		t.Fatalf("maximal manifest frame (%d bytes) exceeds wire.MaxValueLen (%d)", n, wire.MaxValueLen)
	}
}
