// Snapshot state transfer between replicas.
//
// Log compaction (log.Engine.Compact) bounds memory by retiring
// pre-snapshot instance state — including the reliable-broadcast echo
// service that lagging replicas relied on to catch up. A replica that
// falls more than MaxLead instances behind the cluster therefore reaches
// a state where replay is impossible by construction: the messages it
// needs were dropped by its own MaxLead guard and will never be resent,
// and the peers that could re-serve them have compacted the instances
// away. Transfer closes that gap the way self-stabilizing protocols do —
// by converging from a peer's CURRENT state instead of its history.
//
// The protocol is a request, a manifest response, and a chunk stream
// (module proto.ModSnap); a transfer of any size takes the same path:
//
//	SNAP_REQ   — broadcast by a lagging replica; Instance carries the
//	             requester's applied boundary so peers with nothing newer
//	             can decline silently.
//	SNAP_RESP  — the payload's position, length and per-chunk SHA-256
//	             list (EncodeManifest), sent point-to-point.
//	SNAP_ACK   — requester → server: the next chunk range wanted of a
//	             corroborated manifest's payload. Re-sent (by the retry
//	             timer) for whatever range is still missing, which is how
//	             a download survives chunk loss; the server answering is
//	             rotated across corroborating peers, which is how it
//	             survives a withholding server.
//	SNAP_CHUNK — server → requester: one chunk, checked on arrival
//	             against the manifest's pinned hash.
//
// Trust model: a snapshot is installed only when (a) its bytes hash to
// the stamped digest, (b) t+1 DISTINCT peers served byte-identical
// MANIFESTS (the manifest is a pure function of the payload, so t+1
// matching manifests pin every chunk hash before a single chunk is
// fetched) and (c) the restored state re-encodes to the digest
// (Applier.Install). Because at most t peers are Byzantine, t+1 matching
// copies always include one from a correct replica, and correct replicas
// only serve what their own deterministic apply produced — so an
// installed snapshot is a genuine cluster state. Responses and chunks
// that fail validation are dropped; forgeries can therefore waste
// bandwidth but never state. Serving is rate-limited per requester, and
// one 40-byte ack yields at most TransferChunkWindow chunk frames, so
// neither request nor ack spam amplifies unboundedly.
package sm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"repro/internal/log"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/types"
)

// transferDigestLen prefixes every transfer payload.
const transferDigestLen = 32

// maxTransferEntries bounds the retained-suffix count in a transfer
// payload (Byzantine defense: a forged count must not force unbounded
// allocation; real windows are CompactKeep-sized).
const maxTransferEntries = 1 << 20

// maxCandidates bounds the corroboration table. Each unmatched manifest
// holds up to MaxManifestChunks hashes (≤ 128 KiB), and a Byzantine peer
// can mint unlimited DISTINCT well-formed manifests (they are unsigned),
// so the table must not grow with attacker effort. On overflow it is
// cleared wholesale: correct peers re-serve on the next retry, so an
// attacker must win the refill race on every round forever to starve a
// fetch — and can never corrupt one (installs still need t+1 matching
// senders).
const maxCandidates = 32

// EncodeTransfer wraps a snapshot and the retained entry suffix captured
// at its boundary into one self-validating payload, the bytes a
// manifest's chunks carry and a durable snapshot stamp holds:
//
//	transfer digest (see transferDigest)
//	u32 snapshot length ‖ snapshot bytes (appendSnapHeader, machine bytes)
//	u32 entry count, then per entry: u64 index ‖ u64 instance ‖
//	u32 command length ‖ command bytes
//
// The retained suffix travels because it IS log state: it is the
// content-dedup window every replica carries forward from the boundary,
// and a receiver without it would commit the next in-flight duplicate
// its peers skip. Both parts are pure functions of the committed prefix,
// so every correct replica produces byte-identical payloads for the same
// boundary — which is what lets the requester corroborate their
// manifests across t+1 senders.
//
// A payload sealed before the digest took its present form (it once
// covered the body directly) fails DecodeTransfer: Boot refuses a
// durable stamp that old, and the replica, started again on an emptied
// store, catches up from its peers.
func EncodeTransfer(s Snapshot, retained []log.Entry) []byte {
	buf := make([]byte, transferDataAt, transferDataAt+len(s.Data))
	return sealTransfer(append(buf, s.Data...), sha256.Sum256(s.Data), retained)
}

// transferDataAt is where a payload's snapshot bytes start: after the
// digest and the u32 snapshot length.
const transferDataAt = transferDigestLen + 4

// sealTransfer completes a payload whose snapshot bytes, with SHA-256
// snapDigest, follow transferDataAt in buf: it fills in their length,
// appends the retained entries and stamps the transfer digest.
func sealTransfer(buf []byte, snapDigest [32]byte, retained []log.Entry) []byte {
	end := len(buf)
	binary.LittleEndian.PutUint32(buf[transferDigestLen:], uint32(end-transferDataAt))
	size := 4
	for _, e := range retained {
		size += 20 + len(e.Cmd)
	}
	buf = slices.Grow(buf, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(retained)))
	for _, e := range retained {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Index))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Instance))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Cmd)))
		buf = append(buf, e.Cmd...)
	}
	digest := transferDigest(buf[transferDigestLen:transferDataAt], snapDigest, buf[end:])
	copy(buf, digest[:])
	return buf
}

// transferDigest is the digest a transfer payload carries: SHA-256 over
// (u32 snapshot length ‖ the snapshot's SHA-256 ‖ the retained-entry
// bytes). It binds every byte of the payload as a hash over the whole
// body would, while the snapshot bytes, the bulk of it, are hashed once
// for both this digest and Snapshot.Digest.
func transferDigest(snapLen []byte, snapDigest [32]byte, entries []byte) [32]byte {
	h := sha256.New()
	h.Write(snapLen)
	h.Write(snapDigest[:])
	h.Write(entries)
	return [32]byte(h.Sum(nil))
}

// DecodeTransfer parses and validates a transfer payload (an assembled
// download or a durable stamp): the payload must carry its transfer
// digest, the snapshot header must decode, and the entry list must be
// well-formed. The bytes may come from a Byzantine peer, so every failure
// is a normal error, never a panic. The Snapshot's Digest field is
// computed from its bytes, in the one pass over them the transfer digest
// also needs. The Snapshot's Data aliases b, which the caller must not
// modify afterwards.
func DecodeTransfer(b []byte) (s Snapshot, retained []log.Entry, err error) {
	if len(b) < transferDigestLen+8+snapHeaderLen {
		return s, nil, fmt.Errorf("sm: transfer frame of %d bytes is too short", len(b))
	}
	body := b[transferDigestLen:]
	snapLen := binary.LittleEndian.Uint32(body)
	rest := body[4:]
	if uint64(snapLen) > uint64(len(rest)) {
		return s, nil, fmt.Errorf("sm: snapshot length %d exceeds payload", snapLen)
	}
	s.Data = rest[:snapLen]
	rest = rest[snapLen:]
	s.Digest = sha256.Sum256(s.Data)
	if transferDigest(body[:4], s.Digest, rest) != [32]byte(b[:transferDigestLen]) {
		return s, nil, fmt.Errorf("sm: transfer body does not hash to its digest")
	}
	if s.Index, s.Instance, _, err = DecodeSnapshot(s.Data); err != nil {
		return s, nil, err
	}
	if len(rest) < 4 {
		return s, nil, fmt.Errorf("sm: truncated entry count")
	}
	count := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	if count > maxTransferEntries || uint64(count)*20 > uint64(len(rest)) {
		return s, nil, fmt.Errorf("sm: entry count %d exceeds payload", count)
	}
	// One string holds every retained command: the entries are views
	// into it, not one copy each.
	cmds := types.Value(rest)
	retained = make([]log.Entry, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(rest) < 20 {
			return s, nil, fmt.Errorf("sm: truncated entry %d", i)
		}
		idx := binary.LittleEndian.Uint64(rest)
		inst := binary.LittleEndian.Uint64(rest[8:])
		cmdLen := binary.LittleEndian.Uint32(rest[16:])
		rest = rest[20:]
		if uint64(cmdLen) > uint64(len(rest)) {
			return s, nil, fmt.Errorf("sm: entry %d command length %d exceeds payload", i, cmdLen)
		}
		if idx > 1<<62 || inst > 1<<62 {
			return s, nil, fmt.Errorf("sm: entry %d position out of range", i)
		}
		at := len(cmds) - len(rest)
		retained = append(retained, log.Entry{
			Index:    int(idx),
			Instance: types.Instance(inst),
			Cmd:      cmds[at : at+int(cmdLen)],
		})
		rest = rest[cmdLen:]
	}
	if len(rest) != 0 {
		return s, nil, fmt.Errorf("sm: %d trailing bytes after transfer payload", len(rest))
	}
	return s, retained, nil
}

// LogControl is the slice of the replicated-log engine Transfer drives:
// reading the apply/commit position, noticing the engine has closed, and
// realigning it when a snapshot installs. log.Engine implements it.
type LogControl interface {
	// Applied returns the number of applied instances.
	Applied() types.Instance
	// Committed returns the number of committed commands (trimmed
	// included).
	Committed() int
	// Closed reports whether the engine stopped starting new instances.
	Closed() bool
	// Quiescent reports that the engine has nothing to decide: nothing
	// pending, nothing in flight, no undecided instance seen.
	Quiescent() bool
	// InstallSnapshot jumps the engine to a peer snapshot's boundary,
	// seeding its retained entries and content dedup from the transfer's
	// retained suffix.
	InstallSnapshot(boundary types.Instance, index int, retained []log.Entry) error
}

// TransferConfig assembles a Transfer.
type TransferConfig struct {
	// Env is the process environment (required).
	Env proto.Env
	// Applier is this replica's state-machine layer (required); it serves
	// its latest snapshot and installs fetched ones.
	Applier *Applier
	// Log is this replica's log engine (required).
	Log LogControl
	// Next receives every non-transfer message (required; normally the
	// log engine itself).
	Next proto.Handler
	// RetryEvery re-broadcasts the fetch request while a fetch is in
	// flight (default 25ms): responses can be lost, and peers at
	// different positions serve different snapshots until t+1 align.
	// Responses are rate-limited to one per RetryEvery/2 per requester:
	// request spam must not amplify into snapshot floods.
	RetryEvery types.Duration
	// StallProbe is the cadence of the stall detector (default 50ms): if
	// the engine is open and has something to decide, but the apply
	// position has not advanced since the previous probe, a fetch request
	// goes out even without inbound MaxLead pressure — the cluster may
	// have finished and gone quiet, leaving no message stream to trigger
	// on. 0 keeps the default.
	StallProbe types.Duration
	// OnInstall, if non-nil, fires after each successful install.
	OnInstall func(s Snapshot)
	// Metrics is the transfer layer's tally (obs.NewTransferMetrics),
	// which its accessors read; nil counts into private cells. Passive;
	// never alters protocol behavior.
	Metrics *obs.TransferMetrics
}

// Transfer implements peer-to-peer snapshot state transfer for one
// replica. It wraps the replica's message path (proto.Handler): transfer
// frames are consumed, everything else forwards to Next. Like the rest
// of the stack it is single-threaded — all calls must come from the
// hosting runtime's event loop.
type Transfer struct {
	cfg TransferConfig

	fetching    bool
	fetchFrom   types.Instance // applied position when the fetch started
	cancelRetry func()
	// manifests accumulates the responses of the current and past fetch
	// rounds, keyed by the hash of the manifest ENCODING (see
	// maxCandidates for its overflow defense).
	manifests map[[32]byte]*manifestCandidate
	// dl is the in-flight chunk download, nil when none.
	dl *download
	// chunkCache is the serving state of the snapshot last served: each
	// snapshot is encoded and hashed once, and acks are answered from it.
	chunkCache *serveChunks
	lastServed map[types.ProcID]types.Time
	lastAcked  map[types.ProcID]types.Time
	lastProbe  types.Instance // applied position at the previous probe
}

// manifestCandidate is one manifest encoding's corroboration state.
// order records first-arrival order — the deterministic rotation list a
// download pulls servers from.
type manifestCandidate struct {
	key     [32]byte
	mf      Manifest
	senders map[types.ProcID]struct{}
	order   []types.ProcID
}

// download is the state of one in-flight chunked fetch.
type download struct {
	mf        Manifest
	key       [32]byte
	servers   []types.ProcID // corroborators, first-arrival order
	serverIdx int            // rotated when the retry timer finds no progress
	chunks    [][]byte
	have      int
	scan      int // firstMissing's monotone scan pointer
	ackedEnd  int // end of the last requested range
	lastHave  int // have at the previous retry firing
	stalls    int // consecutive retry firings with no new chunk
}

// firstMissing returns the lowest un-received chunk index, -1 when the
// download is complete.
func (d *download) firstMissing() int {
	for d.scan < len(d.chunks) && d.chunks[d.scan] != nil {
		d.scan++
	}
	if d.scan == len(d.chunks) {
		return -1
	}
	return d.scan
}

// serveChunks is the serve-side cache of one snapshot's payload and
// manifest.
type serveChunks struct {
	snapDigest [32]byte // which snapshot this cache was built from
	payload    []byte
	mf         Manifest
	manifest   types.Value // EncodeManifest(mf): the SNAP_RESP value
}

var _ proto.Handler = (*Transfer)(nil)

// NewTransfer wires a Transfer and arms its stall probe.
func NewTransfer(cfg TransferConfig) (*Transfer, error) {
	if cfg.Env == nil || cfg.Applier == nil || cfg.Log == nil || cfg.Next == nil {
		return nil, fmt.Errorf("sm: transfer needs Env, Applier, Log and Next")
	}
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = 25 * time.Millisecond
	}
	if cfg.StallProbe <= 0 {
		cfg.StallProbe = 50 * time.Millisecond
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewTransferMetrics(nil, "")
	}
	t := &Transfer{
		cfg:        cfg,
		manifests:  make(map[[32]byte]*manifestCandidate),
		lastServed: make(map[types.ProcID]types.Time),
		lastAcked:  make(map[types.ProcID]types.Time),
	}
	cfg.Env.SetTimer(cfg.StallProbe, t.probe)
	return t, nil
}

// OnMessage implements proto.Handler: transfer frames are handled here,
// everything else forwards to the wrapped handler.
func (t *Transfer) OnMessage(from types.ProcID, m proto.Message) {
	switch m.Kind {
	case proto.MsgSnapRequest:
		t.serve(from, m.Instance)
	case proto.MsgSnapResponse:
		t.consider(from, m)
	case proto.MsgSnapAck:
		t.onAck(from, m)
	case proto.MsgSnapChunk:
		t.onChunk(from, m)
	default:
		t.cfg.Next.OnMessage(from, m)
	}
}

// OnDroppedAhead converts MaxLead drop pressure into a fetch trigger;
// wire it to log.Config.OnDroppedAhead. The engine only fires it for
// instances past applied+MaxLead, i.e. exactly when the cluster has
// outrun what replay can recover.
func (t *Transfer) OnDroppedAhead(i types.Instance) {
	t.startFetch()
}

// startFetch begins a fetch round unless one is already in flight.
func (t *Transfer) startFetch() {
	if t.fetching || t.cfg.Log.Closed() {
		return
	}
	t.fetching = true
	t.fetchFrom = t.cfg.Log.Applied()
	t.request()
	t.armRetry()
}

// request broadcasts one SNAP_REQ carrying our applied boundary.
func (t *Transfer) request() {
	t.cfg.Metrics.Requests.Inc()
	env := t.cfg.Env
	if tr := env.Trace(); tr != nil {
		tr.Emit(trace.Event{
			At: env.Now(), Kind: trace.KindSnapRequest, Proc: env.ID(),
			Aux: fmt.Sprintf("applied=%v", t.cfg.Log.Applied()),
		})
	}
	env.Broadcast(proto.Message{
		Kind:     proto.MsgSnapRequest,
		Tag:      proto.Tag{Mod: proto.ModSnap},
		Instance: t.cfg.Log.Applied(),
	})
}

// armRetry schedules the next re-request of the in-flight fetch. The
// retry loop ends on install (stopFetch), on engine close, or when the
// apply position moves past the fetch's starting point on its own —
// progress means replay is working after all, and renewed pressure (or a
// renewed stall) simply starts a fresh fetch.
//
// With a chunk download in flight the retry re-acks the first missing
// range instead of re-broadcasting the request — that is the loss
// recovery path — and rotates to the next corroborating server first,
// so a server that withholds chunks (crashed or Byzantine) delays the
// download by one retry period, not forever. A download that makes NO
// progress for TransferStallLimit consecutive firings is presumed
// stale (see the constant's comment) and abandoned: its manifest
// candidate is dropped so only t+1 fresh senders can revive that exact
// payload, and a fresh SNAP_REQ re-corroborates whatever the cluster
// serves now.
func (t *Transfer) armRetry() {
	t.cancelRetry = t.cfg.Env.SetTimer(t.cfg.RetryEvery, func() {
		if !t.fetching || t.cfg.Log.Closed() || t.cfg.Log.Applied() > t.fetchFrom {
			t.fetching = false
			t.dl = nil
			return
		}
		if d := t.dl; d != nil {
			if d.have == d.lastHave {
				d.stalls++
			} else {
				d.lastHave, d.stalls = d.have, 0
			}
			if d.stalls >= TransferStallLimit {
				delete(t.manifests, d.key)
				t.dl = nil
				t.request()
			} else {
				d.serverIdx = (d.serverIdx + 1) % len(d.servers)
				t.requestChunks()
			}
		} else {
			t.request()
		}
		t.armRetry()
	})
}

// probe is the stall detector: when the engine is open but the apply
// position froze between two probes, ask the cluster for a snapshot even
// without inbound pressure. This covers the end-game where the peers
// have finished (and gone quiet) while we still hold an unreachable gap:
// their FINAL snapshot is the convergence point, and nobody is sending
// the messages that would otherwise trigger a fetch. The probe re-arms
// until the engine closes, so an open laggard keeps pulling.
//
// A quiescent engine is not a stalled one: a demand-driven log that was
// asked nothing applies nothing, and reading that as a stall would have
// every replica of an idle cluster broadcast a SNAP_REQ per probe,
// forever. A replica that is behind without knowing it finds out from
// the first instance its peers open — their messages end its quiescence
// (or trip the MaxLead guard) — and the next probe fetches.
func (t *Transfer) probe() {
	if t.cfg.Log.Closed() {
		return // converged (or shut down): let the world drain
	}
	applied := t.cfg.Log.Applied()
	if applied == t.lastProbe && !t.fetching && !t.cfg.Log.Quiescent() {
		t.startFetch()
	}
	t.lastProbe = applied
	t.cfg.Env.SetTimer(t.cfg.StallProbe, t.probe)
}

// serve answers one SNAP_REQ: send the manifest of our latest snapshot
// (with its retained suffix) iff it is ahead of the requester's boundary,
// at most once per RetryEvery/2 per requester.
//
// A run of command-less instances is the degenerate case here: they
// carry no entries, so the entry-cadence snapshot boundary freezes while
// applied instances run ahead, and a rejoining replica that already holds
// that stale boundary would be declined by everyone forever. The fix lives at
// snapshot-TAKING time, not here: the applier re-stamps the snapshot
// at deterministic instance boundaries (refreshFactor), so serve always has a
// fresh boundary to offer while remaining byte-identical across correct
// replicas (serving a locally re-stamped snapshot from THIS point would
// break the t+1 corroboration — peers at different positions would offer
// different bytes).
func (t *Transfer) serve(from types.ProcID, reqBoundary types.Instance) {
	snap, payload, ok := t.cfg.Applier.LatestTransfer()
	if !ok || snap.Instance <= reqBoundary {
		return // nothing the requester doesn't already have
	}
	env := t.cfg.Env
	now := env.Now()
	if last, ok := t.lastServed[from]; ok && now-last < types.Time(t.cfg.RetryEvery/2) {
		return
	}
	t.lastServed[from] = now
	t.cfg.Metrics.Served.Inc()
	if tr := env.Trace(); tr != nil {
		tr.Emit(trace.Event{
			At: now, Kind: trace.KindSnapServe, Proc: env.ID(), Peer: from,
			Aux: fmt.Sprintf("idx=%d inst=%v digest=%x", snap.Index, snap.Instance, snap.Digest[:8]),
		})
	}
	sc := t.serveChunksFor(snap, payload)
	if sc == nil {
		return // past the chunked bound; nothing to offer
	}
	env.Send(from, proto.Message{
		Kind:     proto.MsgSnapResponse,
		Tag:      proto.Tag{Mod: proto.ModSnap},
		Instance: snap.Instance,
		Val:      sc.manifest,
	})
}

// serveChunksFor returns the serving state of the given snapshot and its
// payload, building and caching its manifest unless it is already the
// cached one; nil if the payload cannot be chunked (past
// MaxManifestChunks). The cache shares the applier's immutable payload.
func (t *Transfer) serveChunksFor(snap Snapshot, payload []byte) *serveChunks {
	if sc := t.chunkCache; sc != nil && sc.snapDigest == snap.Digest {
		return sc
	}
	mf, err := BuildManifest(snap.Index, snap.Instance, payload)
	if err != nil {
		return nil
	}
	t.chunkCache = &serveChunks{
		snapDigest: snap.Digest,
		payload:    payload,
		mf:         mf,
		manifest:   types.Value(EncodeManifest(mf)),
	}
	return t.chunkCache
}

// onAck serves one requested chunk range of the payload this replica
// last served, even if it has taken newer snapshots since. A digest
// naming anything else is stale (a newer manifest was served since) and
// is ignored without offense; the range is clamped, and acks are
// rate-limited per requester — one ack can yield at most
// TransferChunkWindow chunk frames, so the amplification is bounded
// both per message and per time.
func (t *Transfer) onAck(from types.ProcID, m proto.Message) {
	digest, f, w, err := DecodeAck(m.Val)
	if err != nil {
		t.rejectChunk()
		return
	}
	sc := t.chunkCache
	if sc == nil || digest != sc.mf.Payload {
		return // stale ack for a payload no longer cached
	}
	env := t.cfg.Env
	now := env.Now()
	ackEvery := t.cfg.RetryEvery / 8
	if last, ok := t.lastAcked[from]; ok && now-last < types.Time(ackEvery) {
		return
	}
	t.lastAcked[from] = now
	end := min(f+w, sc.mf.ChunkCount())
	for i := f; i < end; i++ {
		lo := i * TransferChunkSize
		env.Send(from, proto.Message{
			Kind:     proto.MsgSnapChunk,
			Tag:      proto.Tag{Mod: proto.ModSnap},
			Instance: sc.mf.Instance,
			Val:      EncodeChunk(sc.mf.Payload, i, sc.payload[lo:lo+sc.mf.ChunkLen(i)]),
		})
		t.cfg.Metrics.ChunksServed.Inc()
	}
}

// consider corroborates one SNAP_RESP manifest and, at t+1 matching
// senders, starts (or joins) the chunk download. The corroboration key
// is the hash of the manifest ENCODING, so any disagreement — position,
// length, a single chunk hash — forks the candidate.
func (t *Transfer) consider(from types.ProcID, m proto.Message) {
	body := []byte(m.Val)
	mf, err := DecodeManifest(body)
	if err != nil || mf.Instance != m.Instance {
		t.reject()
		return
	}
	// Stale iff it advances neither position. An equal entry index with a
	// later boundary is NOT stale: that is an idle cluster's refreshed
	// snapshot (refreshFactor), and adopting it is exactly how a
	// rejoiner escapes the idle-rejoin gap. mf.Instance > Log.Applied()
	// implies it is also past our own snapshot boundary (a boundary never
	// exceeds the applied frontier), so Install's equality guard holds.
	if mf.Instance <= t.cfg.Log.Applied() || mf.Index < t.cfg.Applier.Applied() {
		return // stale by the time it arrived; not an offense
	}
	key := sha256.Sum256(body)
	c := t.manifests[key]
	if c == nil {
		if len(t.manifests) >= maxCandidates {
			t.manifests = make(map[[32]byte]*manifestCandidate)
			t.reject()
		}
		c = &manifestCandidate{key: key, mf: mf, senders: make(map[types.ProcID]struct{})}
		t.manifests[key] = c
	}
	if _, dup := c.senders[from]; !dup {
		c.senders[from] = struct{}{}
		c.order = append(c.order, from)
	}
	if len(c.senders) < t.cfg.Env.Params().T+1 {
		return
	}
	t.startDownload(c)
}

// startDownload begins fetching a corroborated manifest's chunks, or
// adds new corroborators to the in-flight download. A corroborated
// manifest for a LATER boundary replaces an in-flight download — the
// cluster moved on and the old payload would be stale on arrival.
func (t *Transfer) startDownload(c *manifestCandidate) {
	if d := t.dl; d != nil {
		if d.key == c.key {
			d.servers = append([]types.ProcID(nil), c.order...)
			return
		}
		if d.mf.Instance >= c.mf.Instance {
			return
		}
	}
	t.dl = &download{
		mf:      c.mf,
		key:     c.key,
		servers: append([]types.ProcID(nil), c.order...),
		chunks:  make([][]byte, c.mf.ChunkCount()),
	}
	t.requestChunks()
}

// requestChunks acks the next missing range to the download's current
// server. The window is fixed; the server clamps the end.
func (t *Transfer) requestChunks() {
	d := t.dl
	if d == nil {
		return
	}
	f := d.firstMissing()
	if f < 0 {
		return
	}
	d.ackedEnd = f + TransferChunkWindow
	t.cfg.Env.Send(d.servers[d.serverIdx], proto.Message{
		Kind:     proto.MsgSnapAck,
		Tag:      proto.Tag{Mod: proto.ModSnap},
		Instance: d.mf.Instance,
		Val:      EncodeAck(d.mf.Payload, f, TransferChunkWindow),
	})
}

// onChunk stores one chunk of the in-flight download. Chunks for no (or
// a superseded) download are stale, not offenses; a chunk whose length
// or hash contradicts the corroborated manifest is a forgery and is
// counted. When the window completes the next range is acked; when the
// payload completes it is assembled and installed.
func (t *Transfer) onChunk(from types.ProcID, m proto.Message) {
	digest, idx, data, err := DecodeChunk(m.Val)
	if err != nil {
		t.rejectChunk()
		return
	}
	d := t.dl
	if d == nil || digest != d.mf.Payload {
		return // stale (download done or replaced)
	}
	if idx >= d.mf.ChunkCount() || len(data) != d.mf.ChunkLen(idx) ||
		sha256.Sum256(data) != d.mf.Hashes[idx] {
		t.rejectChunk()
		return
	}
	if d.chunks[idx] != nil {
		return // duplicate delivery (re-requested range overlap)
	}
	d.chunks[idx] = append([]byte(nil), data...)
	d.have++
	t.cfg.Metrics.ChunksReceived.Inc()
	if d.have == d.mf.ChunkCount() {
		t.assemble(d)
		return
	}
	if f := d.firstMissing(); f >= d.ackedEnd {
		t.requestChunks()
	}
}

// assemble concatenates a complete download, re-validates it end to end
// (payload digest here; decode and position against the manifest in
// Applier.Install), and installs. The t+1-corroborated manifest pinned
// every chunk hash, so a failure past this point means corroboration
// itself was subverted — count it and drop, never install.
func (t *Transfer) assemble(d *download) {
	t.dl = nil
	payload := make([]byte, 0, d.mf.TotalLen)
	for _, c := range d.chunks {
		payload = append(payload, c...)
	}
	if sha256.Sum256(payload) != d.mf.Payload {
		t.reject()
		return
	}
	if d.mf.Instance <= t.cfg.Log.Applied() || d.mf.Index < t.cfg.Applier.Applied() {
		return // overtaken while downloading; not an offense
	}
	t.install(payload, d.mf)
}

// rejectChunk counts one discarded chunk-protocol frame.
func (t *Transfer) rejectChunk() {
	t.cfg.Metrics.ChunkRejected.Inc()
}

// install commits to a downloaded snapshot: state machine first
// (Applier.Install decodes the payload, checks it against the manifest's
// position and re-checks the digest end to end), then the ordering layer
// (LogControl.InstallSnapshot). assemble checked that the manifest is
// still ahead, so a failure here means the payload or the machine itself
// misbehaved — the applier poisons itself where its state is undefined
// and the hosting runtime surfaces it; the fetch stops either way.
func (t *Transfer) install(payload []byte, mf Manifest) {
	s, retained, err := t.cfg.Applier.Install(payload, mf.Index, mf.Instance)
	if err != nil {
		t.reject()
		t.stopFetch()
		return
	}
	if err := t.cfg.Log.InstallSnapshot(s.Instance, s.Index, retained); err != nil {
		// Unreachable when Applier and Log were aligned (consider checked
		// both positions); count it rather than hide it.
		t.reject()
		t.stopFetch()
		return
	}
	t.cfg.Metrics.Installs.Inc()
	env := t.cfg.Env
	if tr := env.Trace(); tr != nil {
		tr.Emit(trace.Event{
			At: env.Now(), Kind: trace.KindSnapInstall, Proc: env.ID(),
			Aux: fmt.Sprintf("idx=%d inst=%v digest=%x", s.Index, s.Instance, s.Digest[:8]),
		})
	}
	// Candidates at or below the installed boundary are dead; drop
	// everything — fresher ones will re-accumulate if we are still
	// behind, and keeping stale data only risks re-counting old senders.
	t.manifests = make(map[[32]byte]*manifestCandidate)
	t.stopFetch()
	if t.cfg.OnInstall != nil {
		t.cfg.OnInstall(s)
	}
}

// reject counts one discarded response or assembled payload.
func (t *Transfer) reject() {
	t.cfg.Metrics.Rejected.Inc()
}

// stopFetch ends the in-flight fetch round and any chunk download.
func (t *Transfer) stopFetch() {
	t.fetching = false
	t.dl = nil
	if t.cancelRetry != nil {
		t.cancelRetry()
		t.cancelRetry = nil
	}
}

// Requests returns how many SNAP_REQ broadcasts went out.
func (t *Transfer) Requests() int { return int(t.cfg.Metrics.Requests.Value()) }

// Served returns how many snapshots this replica served to peers.
func (t *Transfer) Served() int { return int(t.cfg.Metrics.Served.Value()) }

// Installs returns how many corroborated snapshots were installed.
func (t *Transfer) Installs() int { return int(t.cfg.Metrics.Installs.Value()) }

// Rejected returns how many responses failed validation (bad digest,
// malformed bytes, or an install-time inconsistency).
func (t *Transfer) Rejected() int { return int(t.cfg.Metrics.Rejected.Value()) }

// ChunksServed returns how many chunk frames this replica sent.
func (t *Transfer) ChunksServed() int { return int(t.cfg.Metrics.ChunksServed.Value()) }

// ChunksReceived returns how many chunk frames were accepted into a
// download.
func (t *Transfer) ChunksReceived() int { return int(t.cfg.Metrics.ChunksReceived.Value()) }

// ChunkRejected returns how many chunk-protocol frames were discarded
// (malformed, forged hash, off-manifest range).
func (t *Transfer) ChunkRejected() int { return int(t.cfg.Metrics.ChunkRejected.Value()) }

// Downloading reports whether a chunk download is in flight (test and
// introspection hook).
func (t *Transfer) Downloading() bool { return t.dl != nil }
