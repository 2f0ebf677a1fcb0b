// relay.go is the message-coalescing fast path of the reliable-broadcast
// layer: rb.Relay batches every ECHO/READY a process originates while it
// still has input to handle — across ALL pipelined log instances, held
// for at most one flush quantum — into a single MsgRBVector frame per
// link, and shrinks the dominant phases further by referencing values by
// content hash once the INIT has carried them in full (echo-by-hash, with
// a pull path for the rare hash-before-value arrival). See
// docs/rb-coalescing.md for the frame layout, the three flush triggers
// and the full correctness argument.
//
// Correctness in one paragraph: coalescing changes FRAMING and VALUE
// INDIRECTION only, never the counting logic. On the receive side every
// vector entry passes the first-message rule in the same table — one
// (sender, kind, tag, origin) per instance — the hosting engine applies
// to loose messages (Admit), then is resolved to a full value and handed
// to the same per-instance dispatch path a loose ECHO/READY would take —
// so the rb.Layer instances observe a stream indistinguishable from the
// uncoalesced run (up to timing) and every RB-* property (Validity,
// Unicity, Termination-1, Termination-2) holds by the unmodified proofs.
// Hash entries whose value is unknown are PARKED, not counted: a
// Byzantine vector naming an unresolvable hash can occupy bounded
// parking-lot memory but can never move an echo or ready counter.
// Liveness of resolution follows from the thresholds themselves: a
// correct process only lacks a value if the INIT did not reach it, and
// any quorum that makes a hash entry matter (≥ t+1 readies, or an echo
// quorum) contains a correct process that HAS the value and answers the
// pull, because correct relays cache every value they echo or ready.
//
// Every inbound path is bounded BEFORE it allocates: the hosting engine's
// live-window predicate (RelayConfig.Window) rejects entries and INIT
// learns outside floor..applied+MaxLead, so forged far-future instances
// cannot grow the cache, the dedup bitmaps, or the parking lot — and
// since window entries are exactly the ones the engine would accept, the
// guard costs no honest traffic. Values learned from REMOTE traffic are
// additionally held to a byte budget (MaxCacheBytes); a process's own
// values bypass it, so the pull-answering obligation of a correct relay
// is never shed under attack.
package rb

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/xtrace"
)

// HashLen is the content-hash length of echo-by-hash entries: the whole
// 32-byte SHA-256. The adversary chooses the hashed values (a Byzantine
// batch proposer, a pull responder), so the bound that holds is the
// birthday bound — about 2¹²⁸ hash evaluations find two values with one
// hash, and each such pair would let one hashed ECHO/READY count toward
// both. That computational assumption is the relay's, not the paper's
// (docs/paper-map.md lists it among the deviations).
const HashLen = 32

// InlineMax is the largest value carried inline in a vector entry;
// longer values ride as a HashLen-byte reference. Inlining anything a
// hash would not shrink keeps small-value workloads entirely off the
// pull path.
const InlineMax = 24

// DefaultQuantum is the longest the relay holds a buffered entry: the
// hold bound under load. The flush timer is aligned to the absolute time
// grid (multiples of the quantum since time zero), so under simulated
// time all processes flush at identical instants and a step's
// cross-instance traffic coalesces maximally. On a host that reports
// running out of input (proto.IdleNotifier) the relay flushes at every
// such moment, and the grid instant is reached only while input keeps
// arriving.
const DefaultQuantum = 2 * time.Millisecond

// Vector frame hard bounds — defensive limits against forged frames.
const (
	maxVectorEntries = 1 << 16
	maxEntryValueLen = 1 << 20
	defaultMaxBuffer = 2048
	defaultMaxParked = 4096
	entryHeaderLen   = 3 + 8 + 4 + 8 + 4 // kind, mod, flags, round, origin, instance, payload len
	entryFlagHashed  = 1 << 0

	// defaultMaxCacheBytes budgets values learned from remote traffic
	// (inbound INITs, pull responses); cacheEntryOverhead is the charged
	// per-entry bookkeeping cost, so floods of tiny values are bounded by
	// count as well as bytes.
	defaultMaxCacheBytes = 64 << 20
	cacheEntryOverhead   = 128
)

// Entry is one coalesced ECHO or READY inside a MsgRBVector frame: the
// full identity of the loose message it replaces (kind, tag, origin,
// instance) plus its value, inline or as a HashLen-byte content hash.
type Entry struct {
	Kind     proto.MsgKind // MsgRBEcho or MsgRBReady
	Tag      proto.Tag
	Origin   types.ProcID
	Instance types.Instance
	// Hashed marks Val as a HashLen-byte content hash of the value
	// (echo-by-hash) rather than the value itself.
	Hashed bool
	Val    types.Value
}

// EncodeEntries serializes a vector of coalesced entries into the
// payload of a MsgRBVector frame. Layout: a uint32 entry count, then per
// entry a fixed little-endian header (kind, module, flags, round int64,
// origin int32, instance int64, payload length uint32) followed by the
// payload (the value, or its hash when flag bit 0 is set). It refuses
// entries the vocabulary cannot express, mirroring the wire encoders.
// The payload is built in place as the frame's value: one allocation of
// its exact size, no copy.
func EncodeEntries(entries []Entry) (types.Value, error) {
	if len(entries) > maxVectorEntries {
		return "", fmt.Errorf("rb: %d entries exceed the vector limit", len(entries))
	}
	size := 4
	for _, e := range entries {
		if e.Kind != proto.MsgRBEcho && e.Kind != proto.MsgRBReady {
			return "", fmt.Errorf("rb: vector entry cannot carry %v", e.Kind)
		}
		if e.Tag.Mod < proto.ModConsCB0 || e.Tag.Mod > proto.ModACEst {
			return "", fmt.Errorf("rb: vector entry cannot carry module %v", e.Tag.Mod)
		}
		if e.Tag.Round < 0 || e.Origin < 0 || e.Instance < 0 {
			return "", fmt.Errorf("rb: negative field in vector entry")
		}
		if e.Hashed && len(e.Val) != HashLen {
			return "", fmt.Errorf("rb: hashed entry with %d-byte reference", len(e.Val))
		}
		if len(e.Val) > maxEntryValueLen {
			return "", fmt.Errorf("rb: entry value of %d bytes exceeds limit", len(e.Val))
		}
		size += entryHeaderLen + len(e.Val)
	}
	var b strings.Builder
	b.Grow(size)
	var count [4]byte
	binary.LittleEndian.PutUint32(count[:], uint32(len(entries)))
	b.Write(count[:])
	for _, e := range entries {
		var hdr [entryHeaderLen]byte
		hdr[0] = byte(e.Kind)
		hdr[1] = byte(e.Tag.Mod)
		if e.Hashed {
			hdr[2] = entryFlagHashed
		}
		binary.LittleEndian.PutUint64(hdr[3:], uint64(e.Tag.Round))
		binary.LittleEndian.PutUint32(hdr[11:], uint32(int32(e.Origin)))
		binary.LittleEndian.PutUint64(hdr[15:], uint64(e.Instance))
		binary.LittleEndian.PutUint32(hdr[23:], uint32(len(e.Val)))
		b.Write(hdr[:])
		b.WriteString(string(e.Val))
	}
	return types.Value(b.String()), nil
}

// leU32/leU64 read little-endian integers straight out of a string-backed
// value. Decoding operates on types.Value (not []byte) so the receive path
// is ZERO-COPY: a vector frame is parsed in place and every inline entry
// value is a substring sharing the frame's backing array — no per-receiver
// frame copy and no per-entry allocation, which at large n is the
// difference between the relay paying for itself and drowning the win in
// garbage-collector work.
func leU32(s types.Value, off int) uint32 {
	return uint32(s[off]) | uint32(s[off+1])<<8 | uint32(s[off+2])<<16 | uint32(s[off+3])<<24
}

func leU64(s types.Value, off int) uint64 {
	return uint64(leU32(s, off)) | uint64(leU32(s, off+4))<<32
}

// DecodeEntries parses a MsgRBVector payload. It validates defensively —
// the bytes may come from a Byzantine aggregator — enforcing the entry
// vocabulary, field ranges, the hashed-reference length, and exact frame
// length; any violation rejects the whole frame.
func DecodeEntries(v types.Value) ([]Entry, error) {
	return decodeEntriesInto(nil, v)
}

// decodeEntriesInto is DecodeEntries appending into a caller-owned scratch
// slice, letting the relay reuse one buffer across frames.
func decodeEntriesInto(dst []Entry, v types.Value) ([]Entry, error) {
	if len(v) < 4 {
		return nil, fmt.Errorf("rb: short vector (%d bytes)", len(v))
	}
	count := leU32(v, 0)
	if count > maxVectorEntries {
		return nil, fmt.Errorf("rb: vector count %d exceeds limit", count)
	}
	if int(count)*entryHeaderLen > len(v)-4 {
		return nil, fmt.Errorf("rb: vector count %d exceeds frame size", count)
	}
	if cap(dst) < int(count) {
		dst = make([]Entry, 0, count)
	}
	entries := dst[:0]
	off := 4
	for k := uint32(0); k < count; k++ {
		if len(v)-off < entryHeaderLen {
			return nil, fmt.Errorf("rb: truncated entry %d", k)
		}
		kind := proto.MsgKind(v[off])
		if kind != proto.MsgRBEcho && kind != proto.MsgRBReady {
			return nil, fmt.Errorf("rb: invalid entry kind %d", v[off])
		}
		mod := proto.Module(v[off+1])
		if mod < proto.ModConsCB0 || mod > proto.ModACEst {
			return nil, fmt.Errorf("rb: invalid entry module %d", v[off+1])
		}
		if v[off+2]&^byte(entryFlagHashed) != 0 {
			return nil, fmt.Errorf("rb: unknown entry flags %#x", v[off+2])
		}
		hashed := v[off+2]&entryFlagHashed != 0
		round := int64(leU64(v, off+3))
		origin := int32(leU32(v, off+11))
		instance := int64(leU64(v, off+15))
		if round < 0 || origin < 0 || instance < 0 {
			return nil, fmt.Errorf("rb: negative field in entry %d", k)
		}
		plen := leU32(v, off+23)
		if plen > maxEntryValueLen {
			return nil, fmt.Errorf("rb: entry value length %d exceeds limit", plen)
		}
		if hashed && plen != HashLen {
			return nil, fmt.Errorf("rb: hashed entry with %d-byte reference", plen)
		}
		off += entryHeaderLen
		if len(v)-off < int(plen) {
			return nil, fmt.Errorf("rb: truncated entry %d payload", k)
		}
		entries = append(entries, Entry{
			Kind:     kind,
			Tag:      proto.Tag{Mod: mod, Round: types.Round(round)},
			Origin:   types.ProcID(origin),
			Instance: types.Instance(instance),
			Hashed:   hashed,
			Val:      v[off : off+int(plen)],
		})
		off += int(plen)
	}
	if off != len(v) {
		return nil, fmt.Errorf("rb: %d trailing bytes after vector", len(v)-off)
	}
	return entries, nil
}

// hashKey is a content hash used as a map key.
type hashKey [HashLen]byte

// RelayConfig assembles a Relay.
type RelayConfig struct {
	// Env is the real process environment the relay wraps (vector frames,
	// pulls and pass-through traffic all leave through it).
	Env proto.Env
	// Sink receives each resolved entry as the loose message it replaces,
	// past the first-message rule like an admitted loose message. The
	// hosting engine passes its per-instance dispatch here.
	Sink func(from types.ProcID, m proto.Message)
	// MaxBuffer flushes the outbound buffer early when it holds this many
	// entries (default 2048) — a bound on the buffer's memory and on the
	// size of one vector frame. It bounds no latency: holding ends when
	// the host runs out of input or at the DefaultQuantum grid instant.
	MaxBuffer int
	// MaxParked caps the total hash-before-value entries parked awaiting
	// resolution (default 4096); beyond it entries are dropped and
	// counted, bounding memory under starvation attacks. A drop does NOT
	// consume the entry's dedup identity: a later retransmission can
	// still park once capacity frees up, so the cap bounds memory without
	// permanently poisoning the echo-recovery path.
	MaxParked int
	// MaxCacheBytes budgets the hash-value cache entries learned from
	// REMOTE traffic — inbound INITs and pull responses (default 64 MiB,
	// charging len(value)+cacheEntryOverhead each). At the budget remote
	// learns are dropped and counted; values this process itself
	// broadcast or echoed always cache regardless, so a correct relay
	// never sheds its pull-answering obligation.
	MaxCacheBytes int
	// Window, if non-nil, reports whether an instance is inside the
	// hosting engine's live delivery window (floor ≤ i < applied+MaxLead).
	// The relay applies it BEFORE allocating any inbound state: vector
	// entries outside the window are forwarded to the sink unresolved (so
	// the engine's own MaxLead/floor accounting — the lag signal that
	// drives snapshot transfer — fires exactly as for a loose message)
	// but never touch the dedup bitmaps or the parking lot, and INIT
	// values outside it are not learned. The predicate must accept every
	// instance the sink would accept, or honest traffic is lost.
	Window func(i types.Instance) bool
	// Metrics is the relay's tally (FramesCoalesced, FrameEntries, the
	// flushes by cause, Hold, Pulls, Hashes and the drop counters), which
	// its accessors read; nil counts into private cells
	// (obs.NewRBMetrics(nil, "")). Passive.
	Metrics *obs.RBMetrics
	// Tracer, if non-nil, records an xtrace rb_relay span per flushed
	// vector frame (entry count in the note). Passive.
	Tracer *xtrace.Tracer
}

// Relay is the per-process coalescing layer. It wraps the process
// environment on the OUTBOUND side (intercepting ECHO/READY broadcasts
// into a buffered vector) and fronts the engine's dispatch on the
// INBOUND side (Inbound consumes carrier frames and feeds resolved
// entries to the sink). Like every layer in the stack it is
// single-threaded: all calls must come from the hosting runtime's event
// loop.
type Relay struct {
	env      proto.Env
	sink     func(from types.ProcID, m proto.Message)
	maxBuf   int
	maxPark  int
	maxCache int
	window   func(i types.Instance) bool
	metrics  *obs.RBMetrics
	tracer   *xtrace.Tracer

	buf         []Entry
	holdFrom    types.Time // when the first entry of the current hold was buffered
	cancelFlush func()
	onTimer     func()  // the grid timer's callback, built once
	scratch     []Entry // decode buffer reused across inbound frames

	// seenBits is the process's first-message table: one (sender, kind,
	// tag, origin) per instance, for vector entries and — through Admit —
	// loose messages alike, retired with the engine's floor. It holds one
	// bitmap per (instance, tag) scope indexed by (sender, origin, kind)
	// (see slot). The (sender, origin) plane is dense (both are process
	// indices below n), so a bit test replaces a growing hashed-key set:
	// no rehashing, no key hashing, one small map lookup per message.
	n        int // Params().N, fixes the bitmap geometry
	seenBits map[dedupScope][]uint64
	floor    types.Instance
	// recent caches the bitmaps of recently used scopes, direct-mapped
	// (recentSlot): a vector's entries come in runs that share a scope,
	// and cycle through the few scopes of the pipelined instances, so
	// each run finds its bitmap without a map lookup.
	recent [recentScopes]recentScope

	// cache binds content hashes to values learned from INITs (inbound
	// and outbound) and from validated pull responses; byVal indexes the
	// same entries by value, so a value seen again is not hashed again.
	// maxInst tracks the highest instance referencing the value, for
	// retirement. cacheBytes is the charged size of the cache, held to
	// maxCache for values of remote provenance.
	cache      map[hashKey]*cacheVal
	byVal      map[types.Value]*cacheVal
	cacheBytes int
	// lastVal is the entry last learned or resolved: the value an
	// ECHO/READY this process sends next is most often the one a hashed
	// entry or INIT just delivered, and comparing against it (equal
	// strings usually share their bytes) spares hashing a whole batch
	// for a byVal lookup.
	lastVal    *cacheVal
	recentVals [recentValues]*cacheVal // see cached
	hashBuf    []byte                  // hash's copy of the value: SHA-256 takes bytes

	parked    map[hashKey][]parkedRef
	parkedLen int
	pulled    map[hashKey]map[types.ProcID]struct{}

	flushes [numFlushCauses]*obs.Counter // metrics' flush counters, by cause
}

// dedupScope identifies one dedup bitmap: a log instance and a tag inside
// it. Everything else in the identity — sender, origin, kind — indexes
// into the bitmap.
type dedupScope struct {
	inst  types.Instance
	mod   proto.Module
	round types.Round
}

// recentScopes is the size of the relay's recent-scope cache: room for
// the four rb tags of about eight instances.
const recentScopes = 32

// recentValues is the size of the relay's recent-value cache (cached):
// room for the batches of the instances in flight from every origin.
const recentValues = 64

// recentScope is one slot of the recent-scope cache; nil bits is empty.
type recentScope struct {
	scope dedupScope
	bits  []uint64
}

// recentSlot maps a scope to its slot in the recent-scope cache. The
// scope modules are 1, 2, 4 and 5, so the four tags of one round of six
// consecutive instances take distinct slots.
func recentSlot(s dedupScope) int {
	return int((uint64(s.inst)*5 + uint64(s.mod) + uint64(s.round)*7) % recentScopes)
}

// maxDedupScopes caps the live bitmaps. A scope costs 2n²+5n bits, so a
// Byzantine peer naming fresh (instance, tag) pairs allocates more per
// message than a map-per-instance design would; the cap bounds that
// amplification while sitting far above what live instances of a correct
// run ever reach (a few hundred). Overflow messages are dropped and
// counted, never delivered undeduplicated.
const maxDedupScopes = 1 << 14

type cacheVal struct {
	val     types.Value
	ref     types.Value // the hash as a hashed entry's Val
	maxInst types.Instance
}

type parkedRef struct {
	from     types.ProcID
	kind     proto.MsgKind
	tag      proto.Tag
	origin   types.ProcID
	instance types.Instance
}

// flushCause is what ended a hold: every flushed frame has exactly one.
type flushCause int

const (
	flushIdle  flushCause = iota // the host ran out of input
	flushTimer                   // the quantum-grid instant arrived first
	flushFull                    // the buffer reached MaxBuffer
	numFlushCauses
)

var _ proto.Env = (*Relay)(nil)

// NewRelay builds the coalescing relay. cfg.Env and cfg.Sink are
// required. When cfg.Env is a proto.IdleNotifier the relay also flushes
// whenever the host runs out of input (Flush).
func NewRelay(cfg RelayConfig) *Relay {
	if cfg.MaxBuffer <= 0 {
		cfg.MaxBuffer = defaultMaxBuffer
	}
	if cfg.MaxParked <= 0 {
		cfg.MaxParked = defaultMaxParked
	}
	if cfg.MaxCacheBytes <= 0 {
		cfg.MaxCacheBytes = defaultMaxCacheBytes
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRBMetrics(nil, "")
	}
	r := &Relay{
		env:      cfg.Env,
		sink:     cfg.Sink,
		maxBuf:   cfg.MaxBuffer,
		maxPark:  cfg.MaxParked,
		maxCache: cfg.MaxCacheBytes,
		window:   cfg.Window,
		metrics:  cfg.Metrics,
		tracer:   cfg.Tracer,
		n:        cfg.Env.Params().N,
		seenBits: make(map[dedupScope][]uint64),
		cache:    make(map[hashKey]*cacheVal),
		byVal:    make(map[types.Value]*cacheVal),
		parked:   make(map[hashKey][]parkedRef),
		pulled:   make(map[hashKey]map[types.ProcID]struct{}),
		flushes: [numFlushCauses]*obs.Counter{
			flushIdle:  cfg.Metrics.FlushesIdle,
			flushTimer: cfg.Metrics.FlushesTimer,
			flushFull:  cfg.Metrics.FlushesFull,
		},
	}
	r.onTimer = func() {
		r.cancelFlush = nil
		r.flush(flushTimer)
	}
	if host, ok := cfg.Env.(proto.IdleNotifier); ok {
		host.OnIdle(r.Flush)
	}
	return r
}

// proto.Env pass-throughs: the relay is transparent for everything but
// ECHO/READY broadcasts.

// ID returns the wrapped environment's process ID.
func (r *Relay) ID() types.ProcID { return r.env.ID() }

// Params returns the wrapped environment's resilience parameters.
func (r *Relay) Params() types.Params { return r.env.Params() }

// Now returns the wrapped environment's clock reading.
func (r *Relay) Now() types.Time { return r.env.Now() }

// Trace returns the wrapped environment's trace sink.
func (r *Relay) Trace() trace.Sink { return r.env.Trace() }

// SetTimer passes through to the wrapped environment's timer.
func (r *Relay) SetTimer(d types.Duration, fn func()) (cancel func()) {
	return r.env.SetTimer(d, fn)
}

// Send passes point-to-point messages through unchanged: only the
// broadcast fan-out of ECHO/READY is worth coalescing.
func (r *Relay) Send(to types.ProcID, m proto.Message) {
	r.env.Send(to, m)
}

// Broadcast intercepts the coalescable kinds. INIT passes through with
// the full value (and seeds the hash cache, so this process can answer
// pulls for values it originated); ECHO/READY are buffered for the next
// flush; everything else is transparent.
func (r *Relay) Broadcast(m proto.Message) {
	switch m.Kind {
	case proto.MsgRBInit:
		r.learn(m.Val, m.Instance, true)
	case proto.MsgRBEcho, proto.MsgRBReady:
		r.buffer(m)
		return
	}
	r.env.Broadcast(m)
}

// buffer queues one ECHO/READY, hashing large values, and arranges the
// latest flush: at the next quantum-grid instant, or immediately at
// MaxBuffer. An idle host flushes sooner (Flush).
func (r *Relay) buffer(m proto.Message) {
	e := Entry{Kind: m.Kind, Tag: m.Tag, Origin: m.Origin, Instance: m.Instance, Val: m.Val}
	if len(m.Val) > InlineMax {
		// Cache before referencing: a correct relay can answer pulls for
		// every value it ever referenced by hash.
		e.Hashed = true
		e.Val = r.learn(m.Val, m.Instance, true).ref
	}
	if len(r.buf) == 0 {
		r.holdFrom = r.env.Now()
	}
	r.buf = append(r.buf, e)
	if len(r.buf) >= r.maxBuf {
		r.flush(flushFull)
		return
	}
	if r.cancelFlush == nil {
		d := DefaultQuantum - time.Duration(int64(r.holdFrom)%int64(DefaultQuantum))
		r.cancelFlush = r.env.SetTimer(d, r.onTimer)
	}
}

// Flush is the hook an idle host runs (proto.IdleNotifier): it sends
// what the relay is holding and cancels the grid timer. With nothing
// buffered it does nothing.
func (r *Relay) Flush() {
	r.flush(flushIdle)
}

// flush drains the outbound buffer into one MsgRBVector broadcast and
// cancels the pending grid timer. ECHO/READY are broadcasts, so the entry
// vector is identical for every destination and is encoded exactly once
// per flush.
func (r *Relay) flush(cause flushCause) {
	if r.cancelFlush != nil {
		r.cancelFlush()
		r.cancelFlush = nil
	}
	if len(r.buf) == 0 {
		return
	}
	enc, err := EncodeEntries(r.buf)
	n := len(r.buf)
	r.buf = r.buf[:0]
	if err != nil {
		// Unreachable for entries the relay itself built; drop rather
		// than send a frame peers would reject.
		return
	}
	r.flushes[cause].Inc()
	r.metrics.FramesCoalesced.Inc()
	r.metrics.FrameEntries.Observe(int64(n))
	r.metrics.Hold.Observe(int64(r.env.Now() - r.holdFrom))
	r.tracer.RBEvent(xtrace.StageRBRelay, xtrace.NoInstance, 0)
	r.env.Broadcast(proto.Message{
		Kind: proto.MsgRBVector, Tag: proto.Tag{Mod: proto.ModRBRelay},
		Origin: r.env.ID(), Val: enc,
	})
}

// Buffered returns the number of entries awaiting the next flush.
func (r *Relay) Buffered() int { return len(r.buf) }

// Inbound fronts the engine's dispatch: it consumes the relay carrier
// kinds (reporting true) and passively sniffs INIT values into the hash
// cache (reporting false so the INIT proceeds down the normal path).
// The hosting engine calls it after the first-message rule (Admit) and
// before any instance routing.
func (r *Relay) Inbound(from types.ProcID, m proto.Message) bool {
	switch m.Kind {
	case proto.MsgRBInit:
		// Learn only what the protocol itself would accept: a forged INIT
		// (sender impersonating another origin) is discarded by rb.Layer,
		// and an instance outside the live window is dropped by the
		// engine's MaxLead/floor guards — neither may stuff the cache.
		// The INIT always proceeds down the normal path regardless.
		if from == m.Origin && (r.window == nil || r.window(m.Instance)) {
			r.learn(m.Val, m.Instance, false)
		}
		return false
	case proto.MsgRBVector:
		r.onVector(from, m)
		return true
	case proto.MsgRBPull:
		r.onPull(from, m)
		return true
	case proto.MsgRBPullResp:
		r.onPullResp(m)
		return true
	}
	return false
}

// onVector unpacks a vector frame: per entry, the first-message rule (in
// the table Admit applies to loose messages), then value resolution —
// inline delivers immediately, known hashes deliver from cache, unknown
// hashes park and pull. Parked entries are NOT counted anywhere until
// resolved, so forged hashes cannot move thresholds.
func (r *Relay) onVector(from types.ProcID, m proto.Message) {
	entries, err := decodeEntriesInto(r.scratch, m.Val)
	if err != nil {
		r.metrics.BadFrames.Inc()
		return
	}
	r.scratch = entries[:0]
	for _, e := range entries {
		if e.Instance < r.floor {
			continue
		}
		// Entries outside the engine's live window allocate NO relay
		// state — no dedup bitmap, no parking slot, no pull: a Byzantine
		// vector naming far-future instances would otherwise grow all
		// three without bound (nothing below applied+MaxLead ever retires
		// them). The entry is still forwarded raw, so the sink's own
		// MaxLead/floor guards count it and fire the lag signal exactly
		// as for a loose message; the window predicate rejects only
		// instances the sink rejects too, so the forward never reaches a
		// protocol instance.
		if r.window != nil && !r.window(e.Instance) {
			r.metrics.WindowDrops.Inc()
			r.deliver(from, e, e.Val)
			continue
		}
		word, mask := r.slot(from, e.Kind, e.Tag, e.Origin, e.Instance)
		if word == nil {
			continue
		}
		if *word&mask != 0 {
			r.metrics.DupEntries.Inc()
			continue
		}
		if !e.Hashed {
			*word |= mask
			r.deliver(from, e, e.Val)
			continue
		}
		if cv := r.cached(e.Val); cv != nil {
			if e.Instance > cv.maxInst {
				cv.maxInst = e.Instance
			}
			if r.lastVal != cv {
				r.lastVal = cv
			}
			*word |= mask
			r.deliver(from, e, cv.val)
			continue
		}
		// The dedup identity is consumed only if the entry actually
		// parks: an entry dropped at the parking cap must stay
		// re-deliverable, or a transient full lot would permanently
		// swallow the echoes a lagging process needs (RB Termination-2).
		var h hashKey
		copy(h[:], e.Val)
		if r.park(from, e, h) {
			*word |= mask
		}
	}
}

// cached returns the cache entry whose hash is ref (HashLen bytes), nil
// if there is none. The entries hashed entries resolved to last sit in
// recentVals, direct-mapped by the hash's first byte: a frame's hashed
// entries name the few batches of the instances in flight, and most are
// found there without hashing the key for a map lookup.
func (r *Relay) cached(ref types.Value) *cacheVal {
	slot := &r.recentVals[ref[0]%recentValues]
	if cv := *slot; cv != nil && cv.ref == ref {
		return cv
	}
	var h hashKey
	copy(h[:], ref)
	cv := r.cache[h]
	if cv != nil {
		*slot = cv
	}
	return cv
}

// deliver hands one resolved entry to the sink as the loose message it
// replaces.
func (r *Relay) deliver(from types.ProcID, e Entry, v types.Value) {
	r.sink(from, proto.Message{
		Kind: e.Kind, Tag: e.Tag, Origin: e.Origin, Instance: e.Instance, Val: v,
	})
}

// Admit applies the first-message rule to a loose message the hosting
// engine has placed inside its window: first reports that m is the first
// of its (sender, kind, tag, origin) in its instance, now recorded; dup
// that it repeats one recorded before, whatever its value. Neither means
// m names an identity no correct process sends, or the scope table is
// full: refused before it allocates, and counted as a ScopeDrop.
func (r *Relay) Admit(from types.ProcID, m proto.Message) (first, dup bool) {
	word, mask := r.slot(from, m.Kind, m.Tag, m.Origin, m.Instance)
	if word == nil {
		return false, false
	}
	if *word&mask != 0 {
		return false, true
	}
	*word |= mask
	return true, false
}

// slot locates the first-message bit of one identity: a word of its
// scope's bitmap, allocated on first use, and the bit's mask. Only what a
// correct process can send has a bit, from a sender in 1..n: an rb
// message of an rb module, round ≥ 0, about an origin in 1..n (an INIT
// only from its origin); an EA message of round ≥ 1 with no origin; a
// DECIDE of round 0 with no origin. For anything else, and past the
// scope cap, slot counts a ScopeDrop and returns nil.
//
// A scope's bitmap holds ECHO and READY per (sender, origin), then INIT,
// the three EA kinds and DECIDE per sender. EA messages of round r share
// the scope of CB[r] inside EA (ModEACB), DECIDE that of CB[0]: the
// plain kinds add bits, never scopes, so an instance takes as many scopes
// as its rb traffic alone would.
func (r *Relay) slot(from types.ProcID, kind proto.MsgKind, tag proto.Tag, origin types.ProcID, inst types.Instance) (*uint64, uint64) {
	n, s, o := r.n, int(from)-1, int(origin)-1
	idx, mod := -1, tag.Mod
	switch {
	case s < 0 || s >= n:
	case tag.Mod == proto.ModEA:
		if tag.Round >= 1 && origin == types.NoProc && kind >= proto.MsgEAProp2 && kind <= proto.MsgEARelay {
			idx, mod = 2*n*n+n+3*s+int(kind-proto.MsgEAProp2), proto.ModEACB
		}
	case tag.Mod == proto.ModDecide:
		if tag.Round == 0 && origin == types.NoProc && kind == proto.MsgDecide {
			idx, mod = 2*n*n+4*n+s, proto.ModConsCB0
		}
	case tag.Mod >= proto.ModConsCB0 && tag.Mod <= proto.ModACEst: // the rb modules
		if tag.Round < 0 || o < 0 || o >= n {
			break
		}
		switch {
		case kind == proto.MsgRBEcho:
			idx = (s*n + o) * 2
		case kind == proto.MsgRBReady:
			idx = (s*n+o)*2 + 1
		case kind == proto.MsgRBInit && o == s:
			idx = 2*n*n + s
		}
	}
	if idx < 0 {
		r.metrics.ScopeDrops.Inc()
		return nil, 0
	}
	scope := dedupScope{inst: inst, mod: mod, round: tag.Round}
	slot := &r.recent[recentSlot(scope)]
	bits := slot.bits
	if bits == nil || scope != slot.scope {
		if bits = r.seenBits[scope]; bits == nil {
			if len(r.seenBits) >= maxDedupScopes {
				r.metrics.ScopeDrops.Inc()
				return nil, 0
			}
			bits = make([]uint64, (2*n*n+5*n+63)/64)
			r.seenBits[scope] = bits
		}
		slot.scope, slot.bits = scope, bits
	}
	return &bits[idx>>6], uint64(1) << (idx & 63)
}

// park shelves a hash-before-value entry and pulls the value from the
// frame's sender — who, being the one that referenced the hash, must
// hold the value if correct. One pull per (hash, sender): later vectors
// from OTHER senders naming the same hash trigger their own pulls, which
// is what makes resolution live once any correct process references the
// value. Reports whether the entry was parked; a drop at the cap must
// not consume the entry's dedup identity (see onVector).
func (r *Relay) park(from types.ProcID, e Entry, h hashKey) bool {
	if r.parkedLen >= r.maxPark {
		r.metrics.ParkDrops.Inc()
		return false
	}
	r.parked[h] = append(r.parked[h], parkedRef{
		from: from, kind: e.Kind, tag: e.Tag, origin: e.Origin, instance: e.Instance,
	})
	r.parkedLen++
	pulls := r.pulled[h]
	if pulls == nil {
		pulls = make(map[types.ProcID]struct{})
		r.pulled[h] = pulls
	}
	if _, done := pulls[from]; done {
		return true
	}
	pulls[from] = struct{}{}
	r.metrics.Pulls.Inc()
	r.env.Send(from, proto.Message{
		Kind: proto.MsgRBPull, Tag: proto.Tag{Mod: proto.ModRBRelay},
		Origin: r.env.ID(), Val: types.Value(h[:]),
	})
	return true
}

// onPull answers a resolution request from the cache; unknown hashes are
// ignored (the puller retries against other referencing senders).
func (r *Relay) onPull(from types.ProcID, m proto.Message) {
	if len(m.Val) != HashLen {
		r.metrics.BadFrames.Inc()
		return
	}
	var h hashKey
	copy(h[:], m.Val)
	cv, ok := r.cache[h]
	if !ok {
		return
	}
	r.env.Send(from, proto.Message{
		Kind: proto.MsgRBPullResp, Tag: proto.Tag{Mod: proto.ModRBRelay},
		Origin: r.env.ID(), Val: cv.val,
	})
}

// onPullResp resolves parked entries. The response is self-validating:
// the receiver re-hashes the carried value and only entries parked under
// that exact hash resolve, so a Byzantine responder cannot substitute a
// different value — a wrong value simply resolves nothing.
func (r *Relay) onPullResp(m proto.Message) {
	if _, cached := r.byVal[m.Val]; cached {
		return
	}
	h := r.hash(m.Val)
	if _, ok := r.parked[h]; !ok {
		// Unsolicited (or already resolved): ignore rather than cache,
		// so responders cannot stuff the cache with junk bindings.
		return
	}
	r.insert(h, m.Val, 0, false)
}

// hash returns v's content hash: the relay's only SHA-256, allocating
// only to grow hashBuf.
func (r *Relay) hash(v types.Value) hashKey {
	r.metrics.Hashes.Inc()
	r.hashBuf = append(r.hashBuf[:0], v...)
	return sha256.Sum256(r.hashBuf)
}

// learn is insert for a value not hashed yet: a value already cached is
// found by value and not hashed again.
func (r *Relay) learn(v types.Value, inst types.Instance, own bool) *cacheVal {
	cv := r.lastVal
	if cv == nil || cv.val != v {
		var ok bool
		if cv, ok = r.byVal[v]; !ok {
			return r.insert(r.hash(v), v, inst, own)
		}
		r.lastVal = cv
	}
	if inst > cv.maxInst {
		cv.maxInst = inst
	}
	return cv
}

// insert binds hash h to value v, tracking the highest referencing
// instance for retirement, and resolves any entries parked under that
// hash — the value may arrive via the INIT after its hash entries did,
// and the original vector sender (the only peer pulled so far) may be
// Byzantine and never answer. own marks values this process broadcast or
// echoed itself: those always cache (a correct relay must answer pulls
// for every value it referenced by hash), while remote learns are held
// to the cache byte budget. It returns v's cache entry, nil if v was not
// cached. v must not be cached: cache and byVal hold the same entries, so
// then h is not cached either, unless two values share one hash, which
// this code assumes no one finds (HashLen's birthday bound).
func (r *Relay) insert(h hashKey, v types.Value, inst types.Instance, own bool) *cacheVal {
	refs := r.parked[h]
	if len(refs) > 0 {
		delete(r.parked, h)
		delete(r.pulled, h)
		r.parkedLen -= len(refs)
		for _, ref := range refs {
			if ref.instance > inst {
				inst = ref.instance
			}
		}
	}
	var cv *cacheVal
	if cost := len(v) + cacheEntryOverhead; own || r.cacheBytes+cost <= r.maxCache {
		cv = &cacheVal{val: v, ref: types.Value(h[:]), maxInst: inst}
		r.cache[h] = cv
		r.byVal[v] = cv
		r.cacheBytes += cost
		r.lastVal = cv
	} else {
		r.metrics.CacheDrops.Inc()
	}
	// Deliver after the cache insert so re-entrant pulls triggered by the
	// deliveries can already be answered.
	for _, ref := range refs {
		r.sink(ref.from, proto.Message{
			Kind: ref.kind, Tag: ref.tag, Origin: ref.origin, Instance: ref.instance, Val: v,
		})
	}
	return cv
}

// RetireInstancesBefore releases relay state below floor in the same
// stroke as the engine's compaction: the first-message table's scopes,
// cached values whose highest referencing instance is compacted, and
// parked entries of retired instances.
func (r *Relay) RetireInstancesBefore(floor types.Instance) {
	if floor <= r.floor {
		return
	}
	r.floor = floor
	r.recent, r.recentVals, r.lastVal = [recentScopes]recentScope{}, [recentValues]*cacheVal{}, nil
	for s := range r.seenBits {
		if s.inst < floor {
			delete(r.seenBits, s)
		}
	}
	for h, cv := range r.cache {
		if cv.maxInst < floor {
			delete(r.cache, h)
			delete(r.byVal, cv.val)
			r.cacheBytes -= len(cv.val) + cacheEntryOverhead
		}
	}
	for h, refs := range r.parked {
		kept := refs[:0]
		for _, ref := range refs {
			if ref.instance >= floor {
				kept = append(kept, ref)
			}
		}
		r.parkedLen -= len(refs) - len(kept)
		if len(kept) == 0 {
			delete(r.parked, h)
			delete(r.pulled, h)
		} else {
			r.parked[h] = kept
		}
	}
}

// Introspection for tests and result accounting: the counts read the
// relay's metrics cells.

// FramesOut returns the number of vector frames flushed.
func (r *Relay) FramesOut() uint64 { return r.metrics.FramesCoalesced.Value() }

// EntriesOut returns the total entries carried by flushed frames.
func (r *Relay) EntriesOut() uint64 { return uint64(r.metrics.FrameEntries.Sum()) }

// IdleFlushes, TimerFlushes and FullFlushes split FramesOut by what
// ended the hold. IdleFlushes returns the number of frames flushed
// because the host ran out of input (proto.IdleNotifier).
func (r *Relay) IdleFlushes() uint64 { return r.flushes[flushIdle].Value() }

// TimerFlushes returns the number of frames flushed at the quantum-grid
// instant: how often coalescing cost a hold of up to one quantum.
func (r *Relay) TimerFlushes() uint64 { return r.flushes[flushTimer].Value() }

// FullFlushes returns the number of frames flushed because the buffer
// reached MaxBuffer.
func (r *Relay) FullFlushes() uint64 { return r.flushes[flushFull].Value() }

// Pulls returns the number of hash-resolution requests sent.
func (r *Relay) Pulls() uint64 { return r.metrics.Pulls.Value() }

// Hashes returns the number of content hashes computed.
func (r *Relay) Hashes() uint64 { return r.metrics.Hashes.Value() }

// ParkDrops returns the number of entries dropped at the parking cap.
func (r *Relay) ParkDrops() uint64 { return r.metrics.ParkDrops.Value() }

// DupEntries returns the number of vector entries dropped as duplicates
// by the first-message rule.
func (r *Relay) DupEntries() uint64 { return r.metrics.DupEntries.Value() }

// BadFrames returns the number of malformed carrier frames rejected.
func (r *Relay) BadFrames() uint64 { return r.metrics.BadFrames.Value() }

// ScopeDrops returns the number of entries and loose messages the
// first-message table refused (see Admit): identities no correct process
// sends, and scopes past the cap.
func (r *Relay) ScopeDrops() uint64 { return r.metrics.ScopeDrops.Value() }

// WindowDrops returns the number of vector entries outside the engine's
// live window, forwarded unresolved without allocating relay state.
func (r *Relay) WindowDrops() uint64 { return r.metrics.WindowDrops.Value() }

// CacheDrops returns the number of remote value learns dropped at the
// cache byte budget.
func (r *Relay) CacheDrops() uint64 { return r.metrics.CacheDrops.Value() }

// CacheBytes returns the charged size of the hash-value cache.
func (r *Relay) CacheBytes() int { return r.cacheBytes }

// Scopes returns the number of live first-message scopes.
func (r *Relay) Scopes() int { return len(r.seenBits) }

// Parked returns the number of entries awaiting hash resolution.
func (r *Relay) Parked() int { return r.parkedLen }
