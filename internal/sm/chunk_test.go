package sm

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/kv"
	"repro/internal/log"
	"repro/internal/proto"
	"repro/internal/types"
)

// --- chunk codec -------------------------------------------------------------

func testPayload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + i/256)
	}
	return b
}

func TestManifestRoundTrip(t *testing.T) {
	for _, n := range []int{1, TransferChunkSize, TransferChunkSize + 1, 3*TransferChunkSize - 7} {
		payload := testPayload(n)
		mf, err := BuildManifest(9, 40, payload)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		wantChunks := (n + TransferChunkSize - 1) / TransferChunkSize
		if mf.ChunkCount() != wantChunks {
			t.Fatalf("n=%d: chunk count %d, want %d", n, mf.ChunkCount(), wantChunks)
		}
		got, err := DecodeManifest(EncodeManifest(mf))
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if got.Index != mf.Index || got.Instance != mf.Instance || got.TotalLen != mf.TotalLen ||
			got.Payload != mf.Payload || len(got.Hashes) != len(mf.Hashes) {
			t.Fatalf("n=%d: round trip mismatch: %+v vs %+v", n, got, mf)
		}
		for i := range mf.Hashes {
			if got.Hashes[i] != mf.Hashes[i] {
				t.Fatalf("n=%d: hash %d differs", n, i)
			}
		}
		// Geometry: chunk lengths must tile the payload exactly.
		total := 0
		for i := 0; i < mf.ChunkCount(); i++ {
			total += mf.ChunkLen(i)
		}
		if total != n {
			t.Fatalf("n=%d: chunk lengths tile %d bytes", n, total)
		}
	}
}

func TestBuildManifestBounds(t *testing.T) {
	if _, err := BuildManifest(0, 0, nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	// A payload needing more than MaxManifestChunks chunks is refused
	// (checked arithmetically — allocating it for real would be 1 GiB).
	if max := MaxManifestChunks * TransferChunkSize; max > 1<<32 {
		t.Skip("bound not reachable in test memory")
	}
}

func TestChunkRoundTrip(t *testing.T) {
	digest := sha256.Sum256([]byte("payload"))
	data := testPayload(1000)
	v := EncodeChunk(digest, 7, data)
	gd, gi, gdata, err := DecodeChunk(v)
	if err != nil {
		t.Fatal(err)
	}
	if gd != digest || gi != 7 || !bytes.Equal(gdata, data) {
		t.Fatal("chunk round trip mismatch")
	}
	// Empty chunk data is legal at the frame layer (the manifest's
	// per-chunk length check rejects it upstream when it lies).
	if _, _, d, err := DecodeChunk(EncodeChunk(digest, 0, nil)); err != nil || len(d) != 0 {
		t.Fatalf("empty chunk: %v", err)
	}
}

func TestAckRoundTrip(t *testing.T) {
	digest := sha256.Sum256([]byte("payload"))
	v := EncodeAck(digest, 3, TransferChunkWindow)
	gd, gf, gw, err := DecodeAck(v)
	if err != nil {
		t.Fatal(err)
	}
	if gd != digest || gf != 3 || gw != TransferChunkWindow {
		t.Fatal("ack round trip mismatch")
	}
}

func TestDecodeManifestRejectsMalformed(t *testing.T) {
	payload := testPayload(TransferChunkSize + 100)
	mf, err := BuildManifest(4, 20, payload)
	if err != nil {
		t.Fatal(err)
	}
	valid := EncodeManifest(mf)
	tests := []struct {
		name   string
		mutate func([]byte) []byte
		substr string
	}{
		{"empty", func(b []byte) []byte { return nil }, "short"},
		{"short header", func(b []byte) []byte { return b[:manifestHeaderLen] }, "short"},
		{"index out of range", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b, 1<<63)
			return b
		}, "position"},
		{"instance out of range", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], 1<<63)
			return b
		}, "position"},
		{"zero chunks", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[24:], 0)
			return b
		}, "count"},
		{"count over limit", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[24:], MaxManifestChunks+1)
			return b
		}, "count"},
		{"zero length", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:], 0)
			return b
		}, "fill"},
		{"length does not fill chunks", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:], TransferChunkSize) // 2 chunks claimed
			return b
		}, "fill"},
		{"length overflows chunks", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:], 3*TransferChunkSize)
			return b
		}, "fill"},
		{"missing hashes", func(b []byte) []byte { return b[:len(b)-32] }, "hold"},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xEE) }, "hold"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := tt.mutate(bytes.Clone(valid))
			if _, err := DecodeManifest(b); err == nil {
				t.Fatal("malformed manifest accepted")
			} else if !strings.Contains(err.Error(), tt.substr) {
				t.Errorf("error %q does not mention %q", err, tt.substr)
			}
		})
	}
}

func TestDecodeChunkRejectsMalformed(t *testing.T) {
	digest := sha256.Sum256([]byte("p"))
	tests := []struct {
		name   string
		frame  []byte
		substr string
	}{
		{"empty", nil, "short"},
		{"short", make([]byte, chunkHeaderLen-1), "short"},
		{"oversized data", []byte(EncodeChunk(digest, 0, make([]byte, TransferChunkSize+1))), "chunk size"},
		{"index out of range", []byte(EncodeChunk(digest, MaxManifestChunks, []byte("x"))), "index"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, _, err := DecodeChunk(types.Value(tt.frame)); err == nil {
				t.Fatal("malformed chunk accepted")
			} else if !strings.Contains(err.Error(), tt.substr) {
				t.Errorf("error %q does not mention %q", err, tt.substr)
			}
		})
	}
}

func TestDecodeAckRejectsMalformed(t *testing.T) {
	digest := sha256.Sum256([]byte("p"))
	tests := []struct {
		name   string
		frame  []byte
		substr string
	}{
		{"empty", nil, "ack frame"},
		{"short", make([]byte, ackFrameLen-1), "ack frame"},
		{"long", make([]byte, ackFrameLen+1), "ack frame"},
		{"range start out of range", []byte(EncodeAck(digest, MaxManifestChunks, 1)), "range start"},
		{"zero window", []byte(EncodeAck(digest, 0, 0)), "window"},
		{"window over limit", []byte(EncodeAck(digest, 0, TransferChunkWindow+1)), "window"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, _, err := DecodeAck(types.Value(tt.frame)); err == nil {
				t.Fatal("malformed ack accepted")
			} else if !strings.Contains(err.Error(), tt.substr) {
				t.Errorf("error %q does not mention %q", err, tt.substr)
			}
		})
	}
}

// --- fuzzers -----------------------------------------------------------------

func FuzzDecodeChunk(f *testing.F) {
	digest := sha256.Sum256([]byte("payload"))
	f.Add([]byte(EncodeChunk(digest, 0, []byte("chunk-bytes"))))
	f.Add([]byte(EncodeChunk(digest, MaxManifestChunks-1, nil)))
	f.Add([]byte{})
	f.Add(make([]byte, chunkHeaderLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, idx, body, err := DecodeChunk(types.Value(data))
		if err != nil {
			return
		}
		// Valid decodes must re-encode canonically.
		if !bytes.Equal([]byte(EncodeChunk(d, idx, body)), data) {
			t.Fatalf("decode/encode not canonical for %x", data)
		}
	})
}

func FuzzDecodeManifest(f *testing.F) {
	small, _ := BuildManifest(1, 2, testPayload(10))
	multi, _ := BuildManifest(7, 30, testPayload(2*TransferChunkSize+5))
	f.Add(EncodeManifest(small))
	f.Add(EncodeManifest(multi))
	f.Add([]byte{})
	f.Add(make([]byte, manifestHeaderLen+chunkDigestLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeManifest(m), data) {
			t.Fatalf("decode/encode not canonical for %x", data)
		}
	})
}

func FuzzDecodeAck(f *testing.F) {
	digest := sha256.Sum256([]byte("payload"))
	f.Add([]byte(EncodeAck(digest, 0, 1)))
	f.Add([]byte(EncodeAck(digest, MaxManifestChunks-1, TransferChunkWindow)))
	f.Add([]byte{})
	f.Add(make([]byte, ackFrameLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, from, w, err := DecodeAck(types.Value(data))
		if err != nil {
			return
		}
		if !bytes.Equal([]byte(EncodeAck(d, from, w)), data) {
			t.Fatalf("decode/encode not canonical for %x", data)
		}
	})
}

// --- chunked transfer: protocol and aggressors -------------------------------

// buildBigSnapshot builds an applier whose transfer payload spans
// several chunks: `vals` values of `valBytes` bytes each, snapshotted at
// the final entry.
func buildBigSnapshot(t *testing.T, vals, valBytes int) (*Applier, Snapshot, []log.Entry) {
	t.Helper()
	a, err := New(Config{Machine: kv.NewStore(), SnapshotEvery: vals})
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("x", valBytes)
	inst := types.Instance(0)
	for i := 0; i < vals; i++ {
		cmd := kv.Command{Op: kv.OpPut, Client: 1, Seq: uint64(i + 1),
			Key: fmt.Sprintf("big%d", i), Val: fmt.Sprintf("%06d-%s", i, big)}
		a.OnCommit(log.Entry{Index: i, Instance: inst, Cmd: cmd.Encode()})
		a.OnApply(inst, 1)
		inst++
	}
	s, ok := a.Latest()
	if !ok {
		t.Fatal("no snapshot taken")
	}
	return a, s, nil
}

// chunkFixture wires a serving replica and a lagging replica and drives
// the protocol up to the corroborated download: the laggard has
// broadcast its fetch, both servers answered with the (identical)
// manifest, and the first range ack is sitting in the laggard's outbox.
type chunkFixture struct {
	server    *Transfer
	serverEnv *xferEnv
	lag       *Transfer
	lagEnv    *xferEnv
	lagApp    *Applier
	lagLog    *fakeLog
	mf        Manifest
	payload   []byte
	snap      Snapshot
}

func newChunkFixture(t *testing.T) *chunkFixture {
	t.Helper()
	app, s, retained := buildBigSnapshot(t, 3, 220<<10) // ~660 KiB state: 3 chunks
	serverLog := &fakeLog{applied: s.Instance, committed: s.Index}
	server, serverEnv, _ := newTestTransfer(t, app, serverLog)

	lagApp, err := New(Config{Machine: kv.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	lagLog := &fakeLog{}
	lag, lagEnv, _ := newTestTransfer(t, lagApp, lagLog)

	payload := []byte(EncodeTransfer(s, retained))
	mf, err := BuildManifest(s.Index, s.Instance, payload)
	if err != nil {
		t.Fatal(err)
	}
	if mf.ChunkCount() < 3 {
		t.Fatalf("fixture produced %d chunks, want >= 3", mf.ChunkCount())
	}

	// Laggard under pressure: broadcasts SNAP_REQ.
	lag.OnDroppedAhead(40)
	if len(lagEnv.bcast) != 1 || lagEnv.bcast[0].Kind != proto.MsgSnapRequest {
		t.Fatal("no fetch broadcast")
	}
	// Server answers with the manifest.
	server.OnMessage(1, proto.Message{Kind: proto.MsgSnapRequest, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: 0})
	if len(serverEnv.sent) != 1 {
		t.Fatal("server did not serve")
	}
	resp := serverEnv.sent[0].m
	if resp.Kind != proto.MsgSnapResponse || resp.Val != types.Value(EncodeManifest(mf)) {
		t.Fatalf("served %v, want the payload's manifest", resp.Kind)
	}
	// Two distinct senders corroborate (t+1 = 2): download starts.
	lag.OnMessage(2, resp)
	if lag.Downloading() {
		t.Fatal("download started on a single manifest sender")
	}
	lag.OnMessage(3, resp)
	if !lag.Downloading() {
		t.Fatal("corroborated manifest did not start a download")
	}
	if n := len(lagEnv.sent); n == 0 || lagEnv.sent[n-1].m.Kind != proto.MsgSnapAck {
		t.Fatal("no range ack after download start")
	}
	return &chunkFixture{
		server: server, serverEnv: serverEnv,
		lag: lag, lagEnv: lagEnv, lagApp: lagApp, lagLog: lagLog,
		mf: mf, payload: payload, snap: s,
	}
}

// chunkFrame fabricates the chunk frame for index i of the fixture's
// genuine payload.
func (fx *chunkFixture) chunkFrame(i int) proto.Message {
	lo := i * TransferChunkSize
	hi := lo + fx.mf.ChunkLen(i)
	return proto.Message{
		Kind: proto.MsgSnapChunk, Tag: proto.Tag{Mod: proto.ModSnap},
		Instance: fx.mf.Instance,
		Val:      EncodeChunk(fx.mf.Payload, i, fx.payload[lo:hi]),
	}
}

func TestChunkedDownloadCompletes(t *testing.T) {
	fx := newChunkFixture(t)
	// The server answers the laggard's ack with every chunk (window 16
	// covers the whole payload).
	ack := fx.lagEnv.sent[len(fx.lagEnv.sent)-1].m
	before := len(fx.serverEnv.sent)
	fx.server.OnMessage(1, ack)
	frames := fx.serverEnv.sent[before:]
	if len(frames) != fx.mf.ChunkCount() {
		t.Fatalf("served %d chunk frames, want %d", len(frames), fx.mf.ChunkCount())
	}
	if fx.server.ChunksServed() != fx.mf.ChunkCount() {
		t.Fatalf("ChunksServed=%d", fx.server.ChunksServed())
	}
	for _, fr := range frames {
		fx.lag.OnMessage(2, fr.m)
	}
	if fx.lag.Installs() != 1 {
		t.Fatalf("installs=%d after full download", fx.lag.Installs())
	}
	if fx.lag.ChunksReceived() != fx.mf.ChunkCount() {
		t.Fatalf("ChunksReceived=%d", fx.lag.ChunksReceived())
	}
	if fx.lag.Downloading() {
		t.Fatal("download still marked in flight after install")
	}
	if len(fx.lagLog.installs) != 1 || fx.lagLog.installs[0] != fx.snap.Instance {
		t.Fatalf("log install boundary: %v", fx.lagLog.installs)
	}
	if fx.lagApp.StateDigest() != fx.snap.Digest {
		// StateDigest covers live state; compare via snapshot digest of
		// the restored machine instead.
		got, ok := fx.lagApp.Latest()
		if !ok || got.Digest != fx.snap.Digest {
			t.Fatal("installed state does not match the served snapshot")
		}
	}
}

// TestChunkForgeryRejected: a Byzantine server cannot corrupt an
// in-flight download — chunks whose bytes contradict the corroborated
// manifest (flipped data, off-manifest index, alien digest) are
// rejected or ignored without poisoning the slots, and the genuine
// chunks still install cleanly afterwards.
func TestChunkForgeryRejected(t *testing.T) {
	fx := newChunkFixture(t)

	// Flipped data: hash contradicts the manifest -> counted forgery.
	bad := fx.chunkFrame(1)
	raw := []byte(bad.Val)
	raw[chunkHeaderLen] ^= 1
	bad.Val = types.Value(raw)
	fx.lag.OnMessage(2, bad)
	if fx.lag.ChunkRejected() != 1 {
		t.Fatalf("forged chunk not counted: %d", fx.lag.ChunkRejected())
	}
	// Off-manifest range: index past the manifest's chunk count.
	fx.lag.OnMessage(2, proto.Message{
		Kind: proto.MsgSnapChunk, Tag: proto.Tag{Mod: proto.ModSnap},
		Instance: fx.mf.Instance,
		Val:      EncodeChunk(fx.mf.Payload, fx.mf.ChunkCount(), []byte("xx")),
	})
	if fx.lag.ChunkRejected() != 2 {
		t.Fatalf("off-manifest chunk not counted: %d", fx.lag.ChunkRejected())
	}
	// Wrong-length data for a valid index: counted forgery.
	fx.lag.OnMessage(2, proto.Message{
		Kind: proto.MsgSnapChunk, Tag: proto.Tag{Mod: proto.ModSnap},
		Instance: fx.mf.Instance,
		Val:      EncodeChunk(fx.mf.Payload, 0, []byte("short")),
	})
	if fx.lag.ChunkRejected() != 3 {
		t.Fatalf("truncated chunk not counted: %d", fx.lag.ChunkRejected())
	}
	// Alien digest: stale traffic for a superseded download, ignored
	// without offense.
	alien := sha256.Sum256([]byte("other-payload"))
	fx.lag.OnMessage(2, proto.Message{
		Kind: proto.MsgSnapChunk, Tag: proto.Tag{Mod: proto.ModSnap},
		Instance: fx.mf.Instance,
		Val:      EncodeChunk(alien, 0, []byte("zz")),
	})
	if fx.lag.ChunkRejected() != 3 {
		t.Fatalf("stale chunk counted as forgery: %d", fx.lag.ChunkRejected())
	}
	// Undecodable chunk frame: counted.
	fx.lag.OnMessage(2, proto.Message{
		Kind: proto.MsgSnapChunk, Tag: proto.Tag{Mod: proto.ModSnap},
		Instance: fx.mf.Instance, Val: "junk",
	})
	if fx.lag.ChunkRejected() != 4 {
		t.Fatalf("undecodable chunk not counted: %d", fx.lag.ChunkRejected())
	}

	// The genuine download is unharmed: all real chunks install.
	for i := 0; i < fx.mf.ChunkCount(); i++ {
		fx.lag.OnMessage(2, fx.chunkFrame(i))
	}
	if fx.lag.Installs() != 1 {
		t.Fatalf("installs=%d — forgeries corrupted the download", fx.lag.Installs())
	}
	got, ok := fx.lagApp.Latest()
	if !ok || got.Digest != fx.snap.Digest {
		t.Fatal("installed state does not match after forgery barrage")
	}
}

// TestChunkDuplicateDeliveryIdempotent: re-delivered chunks (overlapping
// re-requested ranges) are absorbed once.
func TestChunkDuplicateDeliveryIdempotent(t *testing.T) {
	fx := newChunkFixture(t)
	fx.lag.OnMessage(2, fx.chunkFrame(0))
	fx.lag.OnMessage(2, fx.chunkFrame(0)) // duplicate
	if fx.lag.ChunksReceived() != 1 {
		t.Fatalf("duplicate chunk counted: %d", fx.lag.ChunksReceived())
	}
	for i := 1; i < fx.mf.ChunkCount(); i++ {
		fx.lag.OnMessage(2, fx.chunkFrame(i))
	}
	if fx.lag.Installs() != 1 {
		t.Fatalf("installs=%d", fx.lag.Installs())
	}
}

// TestAckForgeryBounded: the serve side of the chunk protocol resists
// ack abuse — undecodable acks are counted, acks naming a superseded
// payload are ignored, replayed acks are rate-limited, and the window
// clamp caps what one ack can extract.
func TestAckForgeryBounded(t *testing.T) {
	fx := newChunkFixture(t)
	// Undecodable ack: counted as a chunk-protocol offense.
	fx.server.OnMessage(1, proto.Message{Kind: proto.MsgSnapAck, Tag: proto.Tag{Mod: proto.ModSnap}, Val: "junk"})
	if fx.server.ChunkRejected() != 1 {
		t.Fatalf("undecodable ack not counted: %d", fx.server.ChunkRejected())
	}
	// Ack naming an alien payload digest: stale, ignored without frames.
	alien := sha256.Sum256([]byte("other"))
	before := len(fx.serverEnv.sent)
	fx.server.OnMessage(1, proto.Message{
		Kind: proto.MsgSnapAck, Tag: proto.Tag{Mod: proto.ModSnap},
		Val: EncodeAck(alien, 0, TransferChunkWindow),
	})
	if len(fx.serverEnv.sent) != before {
		t.Fatal("alien-digest ack extracted chunk frames")
	}
	// Genuine ack: serves the window (clamped to the chunk count).
	genuine := proto.Message{
		Kind: proto.MsgSnapAck, Tag: proto.Tag{Mod: proto.ModSnap},
		Val: EncodeAck(fx.mf.Payload, 0, TransferChunkWindow),
	}
	fx.server.OnMessage(1, genuine)
	served := len(fx.serverEnv.sent) - before
	if served != fx.mf.ChunkCount() {
		t.Fatalf("served %d frames, want %d (clamped window)", served, fx.mf.ChunkCount())
	}
	// Immediate replay: rate-limited, zero frames.
	before = len(fx.serverEnv.sent)
	fx.server.OnMessage(1, genuine)
	if len(fx.serverEnv.sent) != before {
		t.Fatal("replayed ack bypassed the rate limit")
	}
	// After the rate-limit window passes, service resumes.
	fx.serverEnv.now += types.Time(time1s)
	fx.server.OnMessage(1, genuine)
	if len(fx.serverEnv.sent) != before+fx.mf.ChunkCount() {
		t.Fatal("service did not resume after the rate-limit window")
	}
	// A tail ack serves only the final chunks: range start clamps.
	fx.serverEnv.now += types.Time(time1s)
	before = len(fx.serverEnv.sent)
	fx.server.OnMessage(1, proto.Message{
		Kind: proto.MsgSnapAck, Tag: proto.Tag{Mod: proto.ModSnap},
		Val: EncodeAck(fx.mf.Payload, fx.mf.ChunkCount()-1, TransferChunkWindow),
	})
	if len(fx.serverEnv.sent) != before+1 {
		t.Fatalf("tail ack served %d frames, want 1", len(fx.serverEnv.sent)-before)
	}
}

// TestAckServedAfterSnapshotMoves: a server answers acks for the payload
// it served even after it has taken a newer snapshot — the normal case
// when snapshots are taken every instance — and the laggard installs the
// snapshot it corroborated.
func TestAckServedAfterSnapshotMoves(t *testing.T) {
	app, a, _ := buildBigSnapshot(t, 2, 40<<10) // one chunk
	server := newXferPeer(t, app)
	resp := server.respond(t)
	// The server applies on and snapshots B before the laggard's ack for
	// A arrives.
	feed(t, app, a.Index, 2, 1, a.Instance)
	if b, _ := app.Latest(); b.Instance <= a.Instance {
		t.Fatalf("no newer snapshot: %v after %v", b.Instance, a.Instance)
	}
	lagApp, err := New(Config{Machine: kv.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	lagLog := &fakeLog{}
	lag, lagEnv, _ := newTestTransfer(t, lagApp, lagLog)
	peers := map[types.ProcID]xferPeer{2: server, 3: server}
	offer(lag, lagEnv, peers, 2, resp)
	offer(lag, lagEnv, peers, 3, resp)
	if server.tr.ChunksServed() != 1 {
		t.Fatalf("ack for the served snapshot got %d chunks, want 1", server.tr.ChunksServed())
	}
	if lag.Installs() != 1 || len(lagLog.installs) != 1 || lagLog.installs[0] != a.Instance {
		t.Fatalf("laggard installs=%d at %v, want snapshot A at %v", lag.Installs(), lagLog.installs, a.Instance)
	}
	if got, _ := lagApp.Latest(); got.Digest != a.Digest {
		t.Fatal("installed state is not snapshot A")
	}
}

// TestStalledDownloadReCorroborates pins the staleness escape hatch: a
// download whose acks are silently ignored (the servers' payload moved
// on) makes no progress, and after TransferStallLimit retry firings the
// fetcher abandons it, clears the manifest's corroboration, and
// re-requests. A single (Byzantine) replay of the dead manifest cannot
// restart the download — it takes t+1 fresh senders again.
func TestStalledDownloadReCorroborates(t *testing.T) {
	fx := newChunkFixture(t)
	if len(fx.lagEnv.timers) == 0 {
		t.Fatal("no retry timer armed")
	}
	reqsBefore := len(fx.lagEnv.bcast)
	// Fire the retry timer with zero progress until the stall limit
	// trips. Each firing re-arms (appends a fresh timer callback).
	for i := 0; i < TransferStallLimit; i++ {
		if !fx.lag.Downloading() {
			t.Fatalf("download abandoned after %d firings (limit %d)", i, TransferStallLimit)
		}
		fx.lagEnv.timers[len(fx.lagEnv.timers)-1]()
	}
	if fx.lag.Downloading() {
		t.Fatal("stalled download not abandoned at the limit")
	}
	if len(fx.lagEnv.bcast) != reqsBefore+1 {
		t.Fatalf("abandonment did not re-broadcast the fetch: %d", len(fx.lagEnv.bcast)-reqsBefore)
	}
	// The dead manifest's corroboration is gone: one replayed frame
	// (Byzantine echo of the stale body) must NOT restart the download.
	resp := fx.serverEnv.sent[0].m
	fx.lag.OnMessage(2, resp)
	if fx.lag.Downloading() {
		t.Fatal("single stale-manifest replay re-pinned the download")
	}
	// t+1 fresh senders DO restart it (the cluster still serves this
	// payload, so the abandonment was spurious — recovery must work).
	fx.lag.OnMessage(3, resp)
	if !fx.lag.Downloading() {
		t.Fatal("fresh t+1 corroboration did not restart the download")
	}
	// And the restarted download completes.
	for i := 0; i < fx.mf.ChunkCount(); i++ {
		fx.lag.OnMessage(2, fx.chunkFrame(i))
	}
	if fx.lag.Installs() != 1 {
		t.Fatalf("installs=%d after restart", fx.lag.Installs())
	}
}

// TestDownloadProgressResetsStallCounter: chunks arriving between retry
// firings keep the download alive past the stall limit.
func TestDownloadProgressResetsStallCounter(t *testing.T) {
	fx := newChunkFixture(t)
	for i := 0; i < fx.mf.ChunkCount()-1; i++ {
		// Two stalled firings (under the limit), then one chunk.
		fx.lagEnv.timers[len(fx.lagEnv.timers)-1]()
		fx.lagEnv.timers[len(fx.lagEnv.timers)-1]()
		fx.lag.OnMessage(2, fx.chunkFrame(i))
		fx.lagEnv.timers[len(fx.lagEnv.timers)-1]()
		if !fx.lag.Downloading() {
			t.Fatalf("download with progress abandoned at chunk %d", i)
		}
	}
	fx.lag.OnMessage(2, fx.chunkFrame(fx.mf.ChunkCount()-1))
	if fx.lag.Installs() != 1 {
		t.Fatalf("installs=%d", fx.lag.Installs())
	}
}
