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
	"repro/internal/trace"
	"repro/internal/types"
)

// --- Transfer codec ----------------------------------------------------------

func buildSnapshot(t testing.TB, entries int) (*Applier, Snapshot, []log.Entry) {
	t.Helper()
	a, err := New(Config{Machine: kv.NewStore(), SnapshotEvery: entries})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, a, 0, entries, 2, 0)
	s, ok := a.Latest()
	if !ok {
		t.Fatal("no snapshot taken")
	}
	retained := []log.Entry{
		{Index: s.Index - 1, Instance: s.Instance - 1, Cmd: "retained-cmd"},
	}
	return a, s, retained
}

func TestTransferRoundTrip(t *testing.T) {
	_, s, retained := buildSnapshot(t, 8)
	v := EncodeTransfer(s, retained)
	got, gotRetained, err := DecodeTransfer(v)
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != s.Index || got.Instance != s.Instance || got.Digest != s.Digest {
		t.Fatalf("snapshot drifted: got (%d,%v,%x), want (%d,%v,%x)",
			got.Index, got.Instance, got.Digest[:4], s.Index, s.Instance, s.Digest[:4])
	}
	if string(got.Data) != string(s.Data) {
		t.Fatal("snapshot bytes drifted")
	}
	if len(gotRetained) != 1 || gotRetained[0] != retained[0] {
		t.Fatalf("retained drifted: %+v", gotRetained)
	}
	// Same inputs, same bytes (manifest corroboration depends on it).
	if !bytes.Equal(EncodeTransfer(s, retained), v) {
		t.Fatal("transfer payload not deterministic")
	}
}

func TestTransferEmptyRetained(t *testing.T) {
	_, s, _ := buildSnapshot(t, 4)
	got, retained, err := DecodeTransfer(EncodeTransfer(s, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != s.Index || len(retained) != 0 {
		t.Fatalf("empty-retained round trip: %d entries", len(retained))
	}
}

func TestTransferRejectsTampering(t *testing.T) {
	_, s, retained := buildSnapshot(t, 8)
	valid := EncodeTransfer(s, retained)
	snapDigest := sha256.Sum256(s.Data)
	tests := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"flip body byte", func(b []byte) []byte { b[40] ^= 1; return b }},
		{"flip snapshot byte", func(b []byte) []byte { b[transferDataAt+snapHeaderLen+1] ^= 1; return b }},
		{"flip retained-entry byte", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }},
		{"flip snapshot length", func(b []byte) []byte { b[transferDigestLen] ^= 1; return b }},
		{"flip digest byte", func(b []byte) []byte { b[0] ^= 1; return b }},
		// A header digest of the wrong form: over the whole body (what
		// a build before transferDigest stamped), or the snapshot's own.
		{"whole-body digest", func(b []byte) []byte {
			d := sha256.Sum256(b[transferDigestLen:])
			copy(b, d[:])
			return b
		}},
		{"snapshot digest", func(b []byte) []byte { copy(b, snapDigest[:]); return b }},
		{"truncate", func(b []byte) []byte { return b[:len(b)-2] }},
		{"extend", func(b []byte) []byte { return append(b, 0) }},
		{"empty", func(b []byte) []byte { return nil }},
	}
	for _, tt := range tests {
		b := append([]byte(nil), valid...)
		if _, _, err := DecodeTransfer(tt.mutate(b)); err == nil {
			t.Errorf("%s: accepted", tt.name)
		}
	}
}

// FuzzDecodeTransfer: DecodeTransfer parses every assembled download and
// every durable stamp sm.Boot reads back. It must never panic, and what
// it accepts must re-encode byte-identically. Each input is also tried
// with its digest re-stamped, so mutations reach the parser behind the
// hash check.
func FuzzDecodeTransfer(f *testing.F) {
	snap := Snapshot{Data: append(appendSnapHeader(nil, 3, 2), kv.NewStore().Snapshot()...)}
	f.Add(EncodeTransfer(snap, []log.Entry{{Index: 2, Instance: 1, Cmd: "c"}}))
	f.Add(EncodeTransfer(snap, nil))
	f.Add([]byte{})
	f.Add(make([]byte, transferDigestLen+8+snapHeaderLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		restamped := bytes.Clone(data)
		if len(restamped) >= transferDataAt {
			snapLen := int(binary.LittleEndian.Uint32(restamped[transferDigestLen:]))
			if snapLen <= len(restamped)-transferDataAt {
				snapEnd := transferDataAt + snapLen
				d := transferDigest(restamped[transferDigestLen:transferDataAt],
					sha256.Sum256(restamped[transferDataAt:snapEnd]), restamped[snapEnd:])
				copy(restamped, d[:])
			}
		}
		for _, b := range [][]byte{data, restamped} {
			s, retained, err := DecodeTransfer(b)
			if err != nil {
				continue
			}
			if !bytes.Equal(EncodeTransfer(s, retained), b) {
				t.Fatalf("decode/encode not canonical for %x", b)
			}
		}
	})
}

// --- Applier.Install ---------------------------------------------------------

func TestInstallAdoptsPeerState(t *testing.T) {
	peer, s, retained := buildSnapshot(t, 8)
	lag, err := New(Config{Machine: kv.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	payload := EncodeTransfer(s, retained)
	if _, _, err := lag.Install(payload, s.Index, s.Instance); err != nil {
		t.Fatal(err)
	}
	if lag.Applied() != s.Index {
		t.Fatalf("applied=%d, want %d", lag.Applied(), s.Index)
	}
	if lag.Installs() != 1 {
		t.Fatalf("installs=%d", lag.Installs())
	}
	if lag.StateDigest() != peer.StateDigest() {
		t.Fatal("installed state does not match the peer's")
	}
	// The installed snapshot (and its retained suffix) is now servable
	// onward.
	got, gotPayload, ok := lag.LatestTransfer()
	if !ok || got.Digest != s.Digest || !bytes.Equal(gotPayload, payload) {
		t.Fatal("installed snapshot not retrievable for onward transfer")
	}
}

func TestInstallRejectsStaleAndForged(t *testing.T) {
	_, s, retained := buildSnapshot(t, 8)
	lag, err := New(Config{Machine: kv.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	payload := EncodeTransfer(s, retained)
	// Stamp contradiction.
	if _, _, err := lag.Install(payload, s.Index+1, s.Instance); err == nil || !strings.Contains(err.Error(), "contradicts") {
		t.Fatalf("header/stamp contradiction accepted: %v", err)
	}
	// Digest contradiction: a snapshot byte changed under the payload's
	// digest.
	bad := bytes.Clone(payload)
	bad[transferDataAt+snapHeaderLen] ^= 1
	if _, _, err := lag.Install(bad, s.Index, s.Instance); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("digest mismatch accepted: %v", err)
	}
	// Garbage machine bytes: rejected without poisoning (kv.Store.Restore
	// is all-or-nothing).
	garbage := Snapshot{Data: append(appendSnapHeader(nil, s.Index, s.Instance), "garbage"...)}
	if _, _, err := lag.Install(EncodeTransfer(garbage, retained), s.Index, s.Instance); err == nil {
		t.Fatal("garbage machine bytes accepted")
	}
	if lag.Err() != nil {
		t.Fatalf("failed install poisoned the applier: %v", lag.Err())
	}
	// Stale boundary: not ahead of the live position.
	feed(t, lag, 0, 12, 2, 0)
	if _, _, err := lag.Install(payload, s.Index, s.Instance); err == nil {
		t.Fatal("stale snapshot accepted")
	}
	if lag.Installs() != 0 {
		t.Fatalf("failed installs counted: %d", lag.Installs())
	}
}

// --- Transfer handler --------------------------------------------------------

// xferEnv is a scripted proto.Env for Transfer unit tests.
type xferEnv struct {
	id     types.ProcID
	params types.Params
	now    types.Time
	sent   []struct {
		to types.ProcID
		m  proto.Message
	}
	bcast  []proto.Message
	timers []func()
}

var _ proto.Env = (*xferEnv)(nil)

func (e *xferEnv) ID() types.ProcID     { return e.id }
func (e *xferEnv) Params() types.Params { return e.params }
func (e *xferEnv) Now() types.Time      { return e.now }
func (e *xferEnv) Send(to types.ProcID, m proto.Message) {
	e.sent = append(e.sent, struct {
		to types.ProcID
		m  proto.Message
	}{to, m})
}
func (e *xferEnv) Broadcast(m proto.Message) { e.bcast = append(e.bcast, m) }
func (e *xferEnv) SetTimer(d types.Duration, fn func()) (cancel func()) {
	e.timers = append(e.timers, fn)
	return func() {}
}
func (e *xferEnv) Trace() *trace.Log { return nil }

// fakeLog is a scripted LogControl.
type fakeLog struct {
	applied   types.Instance
	committed int
	closed    bool
	quiescent bool
	installs  []types.Instance
}

func (f *fakeLog) Applied() types.Instance { return f.applied }
func (f *fakeLog) Committed() int          { return f.committed }
func (f *fakeLog) Closed() bool            { return f.closed }
func (f *fakeLog) Quiescent() bool         { return f.quiescent }
func (f *fakeLog) InstallSnapshot(b types.Instance, idx int, retained []log.Entry) error {
	f.installs = append(f.installs, b)
	f.applied = b
	f.committed = idx
	return nil
}

type sink struct{ msgs []proto.Message }

func (s *sink) OnMessage(from types.ProcID, m proto.Message) { s.msgs = append(s.msgs, m) }

func newTestTransfer(t *testing.T, app *Applier, lg *fakeLog) (*Transfer, *xferEnv, *sink) {
	t.Helper()
	env := &xferEnv{id: 1, params: types.Params{N: 4, T: 1}}
	next := &sink{}
	tr, err := NewTransfer(TransferConfig{Env: env, Applier: app, Log: lg, Next: next})
	if err != nil {
		t.Fatal(err)
	}
	return tr, env, next
}

func TestTransferServesAndDeclines(t *testing.T) {
	peer, s, _ := buildSnapshot(t, 8)
	tr, env, _ := newTestTransfer(t, peer, &fakeLog{applied: s.Instance, committed: s.Index})
	// Requester behind the snapshot boundary: served.
	tr.OnMessage(3, proto.Message{Kind: proto.MsgSnapRequest, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: 0})
	if tr.Served() != 1 || len(env.sent) != 1 || env.sent[0].m.Kind != proto.MsgSnapResponse {
		t.Fatalf("serve: served=%d sent=%d", tr.Served(), len(env.sent))
	}
	if env.sent[0].m.Instance != s.Instance {
		t.Fatalf("response instance %v, want %v", env.sent[0].m.Instance, s.Instance)
	}
	// Immediate re-request: rate-limited.
	tr.OnMessage(3, proto.Message{Kind: proto.MsgSnapRequest, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: 0})
	if tr.Served() != 1 {
		t.Fatalf("rate limit bypassed: served=%d", tr.Served())
	}
	// Requester at/past the boundary: declined.
	env.now += types.Time(time1s)
	tr.OnMessage(4, proto.Message{Kind: proto.MsgSnapRequest, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: s.Instance})
	if tr.Served() != 1 {
		t.Fatalf("served a requester that was not behind: %d", tr.Served())
	}
}

const time1s = 1_000_000_000

// xferPeer is a serving replica in handler tests: a real Transfer over a
// snapshot-holding applier, and the env that records what it sends.
type xferPeer struct {
	tr  *Transfer
	env *xferEnv
}

func newXferPeer(t *testing.T, app *Applier) xferPeer {
	t.Helper()
	s, _ := app.Latest()
	tr, env, _ := newTestTransfer(t, app, &fakeLog{applied: s.Instance, committed: s.Index})
	return xferPeer{tr, env}
}

// respond has the peer serve a requester at boundary 0 and returns its
// SNAP_RESP.
func (p xferPeer) respond(t *testing.T) proto.Message {
	t.Helper()
	before := len(p.env.sent)
	p.tr.OnMessage(1, proto.Message{Kind: proto.MsgSnapRequest, Tag: proto.Tag{Mod: proto.ModSnap}})
	if len(p.env.sent) != before+1 || p.env.sent[before].m.Kind != proto.MsgSnapResponse {
		t.Fatal("peer did not serve a SNAP_RESP")
	}
	return p.env.sent[before].m
}

// offer delivers resp to the laggard as sent by from, then plays the
// chunk exchange it may start: every ack the laggard sends to one of
// peers is answered by that peer's Transfer and its chunks delivered
// back, until the laggard asks for nothing more.
func offer(lag *Transfer, lagEnv *xferEnv, peers map[types.ProcID]xferPeer, from types.ProcID, resp proto.Message) {
	next := len(lagEnv.sent)
	lag.OnMessage(from, resp)
	for ; next < len(lagEnv.sent); next++ {
		out := lagEnv.sent[next]
		p, ok := peers[out.to]
		if !ok || out.m.Kind != proto.MsgSnapAck {
			continue
		}
		before := len(p.env.sent)
		p.tr.OnMessage(lagEnv.id, out.m)
		for _, in := range p.env.sent[before:] {
			lag.OnMessage(out.to, in.m)
		}
	}
}

func TestTransferInstallsOnCorroboration(t *testing.T) {
	peerApp, s, _ := buildSnapshot(t, 8)
	peer := newXferPeer(t, peerApp)
	peers := map[types.ProcID]xferPeer{2: peer, 3: peer}
	lagApp, err := New(Config{Machine: kv.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	lg := &fakeLog{}
	tr, env, _ := newTestTransfer(t, lagApp, lg)
	resp := peer.respond(t)
	offer(tr, env, peers, 2, resp)
	if tr.Installs() != 0 || tr.Downloading() {
		t.Fatal("installed on a single sender (t+1 = 2 required)")
	}
	offer(tr, env, peers, 2, resp) // same sender again: still one voice
	if tr.Installs() != 0 || tr.Downloading() {
		t.Fatal("duplicate sender counted twice")
	}
	offer(tr, env, peers, 3, resp)
	if tr.Installs() != 1 {
		t.Fatalf("installs=%d after t+1 distinct senders", tr.Installs())
	}
	if len(lg.installs) != 1 || lg.installs[0] != s.Instance {
		t.Fatalf("log install boundary: %v", lg.installs)
	}
	if lagApp.Applied() != s.Index {
		t.Fatalf("applier at %d, want %d", lagApp.Applied(), s.Index)
	}
}

func TestTransferRejectsForgedResponses(t *testing.T) {
	peerApp, s, retained := buildSnapshot(t, 8)
	resp := newXferPeer(t, peerApp).respond(t)
	lagApp, err := New(Config{Machine: kv.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	tr, _, _ := newTestTransfer(t, lagApp, &fakeLog{})
	forged := resp
	forged.Val = resp.Val[:len(resp.Val)-1] // corrupt the manifest
	tr.OnMessage(2, forged)
	if tr.Rejected() != 1 || tr.Installs() != 0 {
		t.Fatalf("forged response: rejected=%d installs=%d", tr.Rejected(), tr.Installs())
	}
	// Frame/manifest boundary contradiction.
	forged = resp
	forged.Instance++
	tr.OnMessage(2, forged)
	if tr.Rejected() != 2 {
		t.Fatalf("boundary contradiction accepted: rejected=%d", tr.Rejected())
	}
	// A complete payload behind the retired inline form byte is no
	// manifest, from however many senders.
	inline := resp
	inline.Val = "\x00" + types.Value(EncodeTransfer(s, retained))
	tr.OnMessage(2, inline)
	tr.OnMessage(3, inline)
	if tr.Rejected() != 4 || tr.Installs() != 0 || tr.Downloading() {
		t.Fatalf("inline payload: rejected=%d installs=%d", tr.Rejected(), tr.Installs())
	}
}

func TestTransferForwardsProtocolTraffic(t *testing.T) {
	app, err := New(Config{Machine: kv.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	tr, _, next := newTestTransfer(t, app, &fakeLog{})
	m := proto.Message{Kind: proto.MsgRBEcho, Tag: proto.Tag{Mod: proto.ModConsCB0}, Instance: 3, Origin: 2, Val: "v"}
	tr.OnMessage(2, m)
	if len(next.msgs) != 1 || next.msgs[0] != m {
		t.Fatalf("protocol traffic not forwarded: %+v", next.msgs)
	}
}

func TestTransferPressureTriggersFetch(t *testing.T) {
	app, err := New(Config{Machine: kv.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	tr, env, _ := newTestTransfer(t, app, &fakeLog{})
	tr.OnDroppedAhead(40)
	if tr.Requests() != 1 || len(env.bcast) != 1 || env.bcast[0].Kind != proto.MsgSnapRequest {
		t.Fatalf("pressure did not broadcast a request: requests=%d bcast=%d", tr.Requests(), len(env.bcast))
	}
	tr.OnDroppedAhead(41) // fetch already in flight: no second broadcast
	if tr.Requests() != 1 {
		t.Fatalf("duplicate fetch round: requests=%d", tr.Requests())
	}
}

// TestTransferProbeIgnoresQuiescence: a frozen apply position is a stall
// only while the engine has something to decide. An idle demand-driven
// engine applies nothing for as long as nobody asks it anything, and its
// probe must stay silent; the first thing to decide arms it again.
func TestTransferProbeIgnoresQuiescence(t *testing.T) {
	app, err := New(Config{Machine: kv.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	lg := &fakeLog{quiescent: true}
	tr, env, _ := newTestTransfer(t, app, lg)
	fire := func() { // the probe re-arms itself: run the latest timer
		env.timers[len(env.timers)-1]()
	}
	for k := 0; k < 3; k++ {
		fire()
	}
	if tr.Requests() != 0 {
		t.Fatalf("idle engine probed as stalled: %d requests", tr.Requests())
	}
	lg.quiescent = false
	fire()
	if tr.Requests() != 1 {
		t.Fatalf("stalled engine not probed: %d requests", tr.Requests())
	}
}

// TestTransferIdleRejoinGap pins the idle-rejoin gap and its fix. A
// long-idle cluster churns ⊥ instances without entries, so the entry-
// cadence snapshot boundary freezes while the instance frontier runs
// ahead. A replica rejoining at that stale boundary is declined by
// serve() ("nothing the requester doesn't already have") forever — the
// gap. The applier closes it by re-stamping snapshots at no-op
// boundaries every refreshFactor × SnapshotEvery instances, and because
// refreshed payloads are byte-identical across correct replicas, t+1
// corroboration still installs.
func TestTransferIdleRejoinGap(t *testing.T) {
	// build one cluster replica: 8 entries (snapshot at instance 4),
	// then entry-less instance boundaries up to frontier. The refresh is
	// due 4 × 8 = 32 instances past the snapshot, at boundary 36.
	build := func(frontier types.Instance) *Applier {
		a, err := New(Config{Machine: kv.NewStore(), SnapshotEvery: 8})
		if err != nil {
			t.Fatal(err)
		}
		next := feed(t, a, 0, 8, 2, 0)
		for i := next; i < frontier; i++ {
			a.OnApply(i, 0)
		}
		return a
	}

	// rejoiner: restarted into the idle cluster holding the pre-idle
	// boundary (instance 4) it transferred or recovered long ago, from a
	// peer whose idle stretch had not reached its refresh yet.
	stalePeer := build(20)
	stale, ok := stalePeer.Latest()
	if !ok || stale.Instance != 4 {
		t.Fatalf("stale boundary = %+v, want instance 4", stale)
	}

	// The gap: every peer declines a requester already at the frozen
	// boundary, even though the frontier (instance 20) is far ahead.
	peerTr, peerEnv, _ := newTestTransfer(t, stalePeer, &fakeLog{applied: 20, committed: 8})
	peerTr.OnMessage(3, proto.Message{Kind: proto.MsgSnapRequest, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: stale.Instance})
	if peerTr.Served() != 0 || len(peerEnv.sent) != 0 {
		t.Fatalf("stale-boundary peer served anyway: served=%d", peerTr.Served())
	}

	// The fix: past the refresh the boundary was re-stamped during the
	// idle stretch (instance 36 > 4), so the same request is served...
	fresh1, fresh2 := build(40), build(40)
	s1, _ := fresh1.Latest()
	if s1.Instance != 36 {
		t.Fatalf("refreshed boundary = %v, want 36", s1.Instance)
	}
	srv := newXferPeer(t, fresh1)
	srv.tr.OnMessage(3, proto.Message{Kind: proto.MsgSnapRequest, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: stale.Instance})
	if srv.tr.Served() != 1 || len(srv.env.sent) != 1 {
		t.Fatalf("refreshed peer declined: served=%d", srv.tr.Served())
	}

	// ...and two independent replicas' refreshed payloads are byte-
	// identical, so the rejoiner's t+1 corroboration installs the fresh
	// boundary and it is caught up to the frontier's neighborhood.
	rejoinApp, err := New(Config{Machine: kv.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	_, stalePayload, _ := stalePeer.LatestTransfer()
	if _, _, err := rejoinApp.Install(stalePayload, stale.Index, stale.Instance); err != nil {
		t.Fatal(err)
	}
	lg := &fakeLog{applied: stale.Instance, committed: stale.Index}
	rejoinTr, rejoinEnv, _ := newTestTransfer(t, rejoinApp, lg)
	peers := map[types.ProcID]xferPeer{2: srv, 3: newXferPeer(t, fresh2)}
	for id := types.ProcID(2); id <= 3; id++ {
		offer(rejoinTr, rejoinEnv, peers, id, peers[id].respond(t))
	}
	if rejoinTr.Installs() != 1 {
		t.Fatalf("refreshed snapshot not corroborated: installs=%d rejected=%d", rejoinTr.Installs(), rejoinTr.Rejected())
	}
	if lg.applied != 36 || rejoinApp.Applied() != 8 {
		t.Fatalf("rejoiner at (inst=%v, applied=%d), want (36, 8)", lg.applied, rejoinApp.Applied())
	}
}

// BenchmarkDecodeTransfer: validating and parsing one transfer payload —
// a snapshot of 256 applied entries and a retained suffix of 64 — as an
// assembled download or a durable stamp at boot is: one SHA-256 pass over
// the snapshot, one over the rest.
func BenchmarkDecodeTransfer(b *testing.B) {
	_, s, _ := buildSnapshot(b, 256)
	retained := make([]log.Entry, 64)
	for k := range retained {
		retained[k] = log.Entry{Index: s.Index - 64 + k, Instance: s.Instance - 1, Cmd: types.Value(fmt.Sprintf("retained command %03d", k))}
	}
	payload := EncodeTransfer(s, retained)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := DecodeTransfer(payload); err != nil {
			b.Fatal(err)
		}
	}
}
