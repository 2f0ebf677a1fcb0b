// Package kv is the flagship replicated state machine of the stack: a
// deterministic key-value store with client sessions. It is driven by
// internal/sm's Applier, which feeds it committed log entries in total
// order, so every correct replica holds byte-identical state.
//
// Exactly-once semantics live here, not in the log. The log engine's
// commit-time content deduplication is bounded memory only as long as it
// can forget old commands (compaction drops it wholesale with the rest of
// the per-instance state), so a retried client command can legitimately
// commit twice. The session table absorbs that: each command carries a
// (client, seq) pair; a replica applies a client's command only when seq
// advances, answers re-deliveries of the last seq from a cached response,
// and rejects regressed sequence numbers as stale. This is the classic
// SMR session design (PBFT/Raft-style), and it is what makes log
// compaction safe.
//
// Snapshots are deterministic encodings of the full machine state —
// key/value data, the session table, and the apply counters — with keys
// and clients emitted in ascending order, so equal state always produces
// equal bytes (and therefore equal digests) on every replica. The store
// keeps its tables in that order as it applies, so a snapshot sorts
// nothing and looks nothing up.
package kv

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/types"
)

// Op enumerates the store operations.
type Op byte

// Operations.
const (
	// OpGet reads a key. Reads go through the log too: ordering them
	// against writes is what makes them linearizable.
	OpGet Op = 'G'
	// OpPut writes a key.
	OpPut Op = 'P'
	// OpDel deletes a key.
	OpDel Op = 'D'
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDel:
		return "del"
	default:
		return fmt.Sprintf("Op(%d)", byte(o))
	}
}

// Command is one client request. Client 0 is the sessionless client: its
// commands apply unconditionally (no exactly-once protection).
type Command struct {
	Op Op
	// Client identifies the session; Seq is the client's 1-based request
	// sequence number within it.
	Client uint64
	Seq    uint64
	Key    string
	// Val is the value for OpPut (ignored otherwise).
	Val string
}

// String implements fmt.Stringer.
func (c Command) String() string {
	if c.Op == OpPut {
		return fmt.Sprintf("%v(%q=%q)@c%d/%d", c.Op, c.Key, c.Val, c.Client, c.Seq)
	}
	return fmt.Sprintf("%v(%q)@c%d/%d", c.Op, c.Key, c.Client, c.Seq)
}

// Status classifies a response.
type Status byte

// Response statuses.
const (
	// StatusOK: the operation applied (or the key was found).
	StatusOK Status = 'K'
	// StatusNotFound: get/del of an absent key.
	StatusNotFound Status = 'N'
	// StatusStale: the command's seq is below the session's watermark and
	// is not the cached last request — a late or out-of-order duplicate.
	// Nothing was applied.
	StatusStale Status = 'S'
	// StatusErr: the command bytes did not decode.
	StatusErr Status = 'E'
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNotFound:
		return "not-found"
	case StatusStale:
		return "stale"
	case StatusErr:
		return "error"
	default:
		return fmt.Sprintf("Status(%d)", byte(s))
	}
}

// Response is the machine's answer to one command.
type Response struct {
	Status Status
	// Val is the read value for OpGet.
	Val string
}

// String implements fmt.Stringer.
func (r Response) String() string {
	if r.Val != "" {
		return fmt.Sprintf("%v(%q)", r.Status, r.Val)
	}
	return r.Status.String()
}

// Command/response/snapshot encodings are length-prefixed little-endian
// binary behind one magic byte each, so they are disjoint from each other,
// from types.BotValue (0x00-prefixed) and from the log's batch encoding
// ('B'-prefixed).
const (
	cmdMagic  = 'K'
	respMagic = 'R'
	snapMagic = 'V'
)

// MaxStringLen bounds keys and values (Byzantine defense: a forged
// command must not force unbounded allocation).
const MaxStringLen = 1 << 20

func appendString(b []byte, s string) []byte {
	var lenb [4]byte
	binary.LittleEndian.PutUint32(lenb[:], uint32(len(s)))
	b = append(b, lenb[:]...)
	return append(b, s...)
}

// readString copies the string out of b. The copy is deliberate: a
// committed command is a view into its batch (log.DecodeBatch returns
// substrings), so a stored key or value sharing the command's bytes would
// keep the whole batch in memory for as long as the key lives.
func readString(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, fmt.Errorf("kv: truncated length (%d bytes left)", len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if n > MaxStringLen {
		return "", nil, fmt.Errorf("kv: string length %d exceeds limit", n)
	}
	if uint64(n) > uint64(len(b)) {
		return "", nil, fmt.Errorf("kv: string length %d exceeds remaining %d bytes", n, len(b))
	}
	return string(b[:n]), b[n:], nil
}

// Encode serializes the command into a log-submittable value.
func (c Command) Encode() types.Value {
	buf := make([]byte, 0, 2+16+8+len(c.Key)+len(c.Val))
	buf = append(buf, cmdMagic, byte(c.Op))
	var u [8]byte
	binary.LittleEndian.PutUint64(u[:], c.Client)
	buf = append(buf, u[:]...)
	binary.LittleEndian.PutUint64(u[:], c.Seq)
	buf = append(buf, u[:]...)
	buf = appendString(buf, c.Key)
	buf = appendString(buf, c.Val)
	return types.Value(buf)
}

// DecodeCommand parses an encoded command. Defensive: committed values can
// originate from Byzantine proposers.
func DecodeCommand(v types.Value) (Command, error) {
	b := []byte(v)
	var c Command
	if len(b) < 18 || b[0] != cmdMagic {
		return c, fmt.Errorf("kv: not a command (%d bytes)", len(b))
	}
	c.Op = Op(b[1])
	if c.Op != OpGet && c.Op != OpPut && c.Op != OpDel {
		return c, fmt.Errorf("kv: unknown op %d", b[1])
	}
	c.Client = binary.LittleEndian.Uint64(b[2:])
	c.Seq = binary.LittleEndian.Uint64(b[10:])
	var err error
	b = b[18:]
	if c.Key, b, err = readString(b); err != nil {
		return c, err
	}
	if c.Val, b, err = readString(b); err != nil {
		return c, err
	}
	if len(b) != 0 {
		return c, fmt.Errorf("kv: %d trailing bytes after command", len(b))
	}
	return c, nil
}

// emptyResps are the encodings of the value-less responses, built once:
// every put, delete, miss, stale and undecodable command answers one of
// them, so Apply allocates no response for it.
var emptyResps = [...]types.Value{
	Response{Status: StatusOK}.encode(),
	Response{Status: StatusNotFound}.encode(),
	Response{Status: StatusStale}.encode(),
	Response{Status: StatusErr}.encode(),
}

// Encode serializes the response.
func (r Response) Encode() types.Value {
	if r.Val == "" {
		for _, v := range emptyResps {
			if Status(v[1]) == r.Status {
				return v
			}
		}
	}
	return r.encode()
}

func (r Response) encode() types.Value {
	buf := make([]byte, 0, 6+len(r.Val))
	buf = append(buf, respMagic, byte(r.Status))
	buf = appendString(buf, r.Val)
	return types.Value(buf)
}

// DecodeResponse parses an encoded response.
func DecodeResponse(v types.Value) (Response, error) {
	b := []byte(v)
	var r Response
	if len(b) < 2 || b[0] != respMagic {
		return r, fmt.Errorf("kv: not a response (%d bytes)", len(b))
	}
	r.Status = Status(b[1])
	switch r.Status {
	case StatusOK, StatusNotFound, StatusStale, StatusErr:
	default:
		return r, fmt.Errorf("kv: unknown status %d", b[1])
	}
	var err error
	b = b[2:]
	if r.Val, b, err = readString(b); err != nil {
		return r, err
	}
	if len(b) != 0 {
		return r, fmt.Errorf("kv: %d trailing bytes after response", len(b))
	}
	return r, nil
}

// Validate checks that a command is well-formed before it is handed to
// the ordering layer: known op, key and value within MaxStringLen, a key
// present for every op, and a value only on puts. Serving edges call it
// at admission so malformed client input is rejected with a structured
// error instead of committing garbage (committed garbage is harmless —
// Apply answers StatusErr — but it still costs an ordering slot).
func (c Command) Validate() error {
	switch c.Op {
	case OpGet, OpPut, OpDel:
	default:
		return fmt.Errorf("kv: unknown op %q", byte(c.Op))
	}
	if c.Key == "" {
		return fmt.Errorf("kv: empty key")
	}
	if len(c.Key) > MaxStringLen {
		return fmt.Errorf("kv: key of %d bytes exceeds limit %d", len(c.Key), MaxStringLen)
	}
	if len(c.Val) > MaxStringLen {
		return fmt.Errorf("kv: value of %d bytes exceeds limit %d", len(c.Val), MaxStringLen)
	}
	if c.Op != OpPut && c.Val != "" {
		return fmt.Errorf("kv: value supplied for %v", c.Op)
	}
	return nil
}

// pair is one live key and its value.
type pair struct {
	key, val string
}

// session is one client's exactly-once state: the highest applied sequence
// number and the cached encoded response to it.
type session struct {
	client, seq uint64
	resp        types.Value
}

// Store is the key-value state machine. It implements sm.Machine. Like
// the rest of the protocol stack it is single-threaded by design: the
// hosting applier calls it from one event loop.
type Store struct {
	// data and sessions are sorted by key and by client, the order the
	// snapshot encoding lists them in; size is the encoding's length.
	data     []pair
	sessions []session
	size     int

	// metrics mirrors the replicated counters below into live telemetry.
	// It is observer state, NOT machine state: never part of the snapshot
	// encoding, never touched by Restore, so attaching it cannot
	// perturb state digests.
	metrics *obs.KVMetrics

	applies uint64 // commands that mutated or read state
	dups    uint64 // duplicate (client, last-seq) commands answered from cache
	stales  uint64 // regressed-seq commands rejected
	badCmds uint64 // undecodable command bytes
}

// NewStore builds an empty store.
func NewStore() *Store {
	return &Store{size: snapFixedLen, metrics: obs.NewKVMetrics(nil, "")}
}

// snapFixedLen is an empty store's encoding: magic, 5 counters, 0 sessions.
const snapFixedLen = 1 + 5*8 + 8

// Apply implements sm.Machine: decode, run the session filter, execute.
// It is deterministic — the returned response and every state change are
// pure functions of the current state and the command bytes.
func (s *Store) Apply(cmd types.Value) types.Value {
	c, err := DecodeCommand(cmd)
	if err != nil {
		s.badCmds++
		s.metrics.BadCommands.Inc()
		return Response{Status: StatusErr}.Encode()
	}
	if c.Client != 0 {
		i, ok := s.session(c.Client)
		if ok && c.Seq == s.sessions[i].seq {
			s.dups++
			s.metrics.SessionDups.Inc()
			return s.sessions[i].resp
		}
		if ok && c.Seq < s.sessions[i].seq {
			s.stales++
			s.metrics.SessionStales.Inc()
			return Response{Status: StatusStale}.Encode()
		}
		resp := s.exec(c).Encode()
		if ok {
			s.size += len(resp) - len(s.sessions[i].resp)
			s.sessions[i].seq, s.sessions[i].resp = c.Seq, resp
		} else {
			s.sessions = slices.Insert(s.sessions, i, session{client: c.Client, seq: c.Seq, resp: resp})
			s.size += 8 + 8 + 4 + len(resp)
		}
		s.syncMetrics()
		return resp
	}
	resp := s.exec(c).Encode()
	s.syncMetrics()
	return resp
}

// syncMetrics refreshes the live telemetry after a state-mutating apply.
func (s *Store) syncMetrics() {
	s.metrics.Applies.Inc()
	s.metrics.Keys.Set(int64(len(s.data)))
	s.metrics.Sessions.Set(int64(len(s.sessions)))
}

// SetMetrics sets the telemetry bundle (obs.NewKVMetrics; a store starts
// with private cells, and m must be non-nil). The bundle is observer
// state, independent of the replicated counters: it survives Restore and
// is never encoded into snapshots.
func (s *Store) SetMetrics(m *obs.KVMetrics) { s.metrics = m }

// exec runs the operation against the data.
func (s *Store) exec(c Command) Response {
	s.applies++
	i, ok := s.find(c.Key)
	switch c.Op {
	case OpGet:
		if ok {
			return Response{Status: StatusOK, Val: s.data[i].val}
		}
		return Response{Status: StatusNotFound}
	case OpPut:
		if ok {
			s.size += len(c.Val) - len(s.data[i].val)
			s.data[i].val = c.Val
		} else {
			s.data = slices.Insert(s.data, i, pair{key: c.Key, val: c.Val})
			s.size += 4 + len(c.Key) + 4 + len(c.Val)
		}
		return Response{Status: StatusOK}
	default: // OpDel
		if !ok {
			return Response{Status: StatusNotFound}
		}
		s.size -= 4 + len(c.Key) + 4 + len(s.data[i].val)
		s.data = slices.Delete(s.data, i, i+1)
		return Response{Status: StatusOK}
	}
}

// find binary-searches data for key: the index of key, or where it
// would be inserted.
func (s *Store) find(key string) (int, bool) {
	lo, hi := 0, len(s.data)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); s.data[m].key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s.data) && s.data[lo].key == key
}

// session binary-searches sessions for client, as find does data.
func (s *Store) session(client uint64) (int, bool) {
	lo, hi := 0, len(s.sessions)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); s.sessions[m].client < client {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s.sessions) && s.sessions[lo].client == client
}

// Snapshot returns AppendSnapshot's encoding in a buffer of its length.
func (s *Store) Snapshot() []byte { return s.AppendSnapshot(nil) }

// AppendSnapshot implements sm.Machine: it appends a deterministic
// full-state encoding to dst. Keys and clients are emitted in ascending
// order so identical state encodes to identical bytes on every replica.
// When dst lacks the room, it grows to exactly the room needed.
func (s *Store) AppendSnapshot(dst []byte) []byte {
	if cap(dst)-len(dst) < s.size {
		dst = append(make([]byte, 0, len(dst)+s.size), dst...)
	}
	dst = append(dst, snapMagic)
	for _, n := range []uint64{s.applies, s.dups, s.stales, s.badCmds, uint64(len(s.data))} {
		dst = binary.LittleEndian.AppendUint64(dst, n)
	}
	for _, p := range s.data {
		dst = appendString(dst, p.key)
		dst = appendString(dst, p.val)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(s.sessions)))
	for _, e := range s.sessions {
		dst = binary.LittleEndian.AppendUint64(dst, e.client)
		dst = binary.LittleEndian.AppendUint64(dst, e.seq)
		dst = appendString(dst, string(e.resp))
	}
	return dst
}

// Restore implements sm.Machine: replace the whole state from a snapshot.
// It is all-or-nothing (the sm.Machine contract): the encoding is fully
// decoded into fresh state before anything live is swapped, so a malformed
// snapshot — e.g. Byzantine bytes arriving through peer state transfer —
// leaves the store exactly as it was. Only the canonical encoding (keys
// and clients strictly ascending) is accepted.
func (s *Store) Restore(b []byte) error {
	d, err := decodeStoreSnapshot(b)
	if err != nil {
		return err
	}
	d.metrics = s.metrics
	*s = *d
	s.metrics.Keys.Set(int64(len(s.data)))
	s.metrics.Sessions.Set(int64(len(s.sessions)))
	return nil
}

// ValidateSnapshot checks that b is a well-formed Store snapshot without
// building a store: the install-validation entry point for hosts that
// want to vet transferred bytes before committing to a Restore.
func ValidateSnapshot(b []byte) error {
	_, err := decodeStoreSnapshot(b)
	return err
}

// decodeStoreSnapshot parses a canonical snapshot encoding into a fresh
// store without telemetry, touching nothing live. Defensive at every
// length: the bytes may come from a Byzantine peer.
func decodeStoreSnapshot(b []byte) (*Store, error) {
	if len(b) < 1+5*8 || b[0] != snapMagic {
		return nil, fmt.Errorf("kv: not a store snapshot (%d bytes)", len(b))
	}
	d := &Store{size: len(b)}
	var nKeys uint64
	rest := b[1:]
	for _, n := range []*uint64{&d.applies, &d.dups, &d.stales, &d.badCmds, &nKeys} {
		*n = binary.LittleEndian.Uint64(rest)
		rest = rest[8:]
	}
	if nKeys > uint64(len(rest)) { // each key/value pair is ≥ 8 bytes
		return nil, fmt.Errorf("kv: key count %d exceeds snapshot size", nKeys)
	}
	d.data = make([]pair, 0, nKeys)
	var k, v string
	var err error
	for i := uint64(0); i < nKeys; i++ {
		if k, rest, err = readString(rest); err != nil {
			return nil, err
		}
		if v, rest, err = readString(rest); err != nil {
			return nil, err
		}
		if i > 0 && k <= d.data[i-1].key {
			return nil, fmt.Errorf("kv: snapshot key %d out of order", i)
		}
		d.data = append(d.data, pair{key: k, val: v})
	}
	if len(rest) < 8 {
		return nil, fmt.Errorf("kv: truncated session count")
	}
	nSess := binary.LittleEndian.Uint64(rest)
	rest = rest[8:]
	if nSess > uint64(len(rest)) { // each session is ≥ 20 bytes
		return nil, fmt.Errorf("kv: session count %d exceeds snapshot size", nSess)
	}
	d.sessions = make([]session, 0, nSess)
	for i := uint64(0); i < nSess; i++ {
		if len(rest) < 16 {
			return nil, fmt.Errorf("kv: truncated session entry")
		}
		client := binary.LittleEndian.Uint64(rest)
		seq := binary.LittleEndian.Uint64(rest[8:])
		rest = rest[16:]
		if i > 0 && client <= d.sessions[i-1].client {
			return nil, fmt.Errorf("kv: snapshot session %d out of order", i)
		}
		var resp string
		if resp, rest, err = readString(rest); err != nil {
			return nil, err
		}
		d.sessions = append(d.sessions, session{client: client, seq: seq, resp: types.Value(resp)})
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("kv: %d trailing bytes after snapshot", len(rest))
	}
	return d, nil
}

// Get reads a key directly (introspection; replicated reads go through
// the log as OpGet commands).
func (s *Store) Get(key string) (string, bool) {
	if i, ok := s.find(key); ok {
		return s.data[i].val, true
	}
	return "", false
}

// Len returns the number of live keys.
func (s *Store) Len() int { return len(s.data) }

// Sessions returns the number of live client sessions.
func (s *Store) Sessions() int { return len(s.sessions) }

// SessionSeq returns a client's highest applied sequence number (0 if the
// client has no session).
func (s *Store) SessionSeq(client uint64) uint64 {
	seq, _, _ := s.CachedResponse(client)
	return seq
}

// CachedResponse returns the client's session watermark and the cached
// encoded response to it. Serving frontends use it to answer retries of
// already-applied requests without re-ordering them (the log's content
// dedup absorbs byte-identical re-submissions, so no new apply — and
// hence no OnResponse — would ever fire for them).
func (s *Store) CachedResponse(client uint64) (seq uint64, resp types.Value, ok bool) {
	if i, ok := s.session(client); ok {
		return s.sessions[i].seq, s.sessions[i].resp, true
	}
	return 0, "", false
}

// Applies returns how many commands executed against the data map (reads
// included). Part of the snapshot encoding, so it is identical across
// replicas at identical applied prefixes.
func (s *Store) Applies() uint64 { return s.applies }

// Duplicates returns how many commands were answered from a session's
// response cache instead of executing (same (client, seq) as the
// watermark). Part of the snapshot encoding — which is why commit/skip
// decisions must match across replicas (see log.Engine.InstallSnapshot).
func (s *Store) Duplicates() uint64 { return s.dups }

// Stales returns how many commands were rejected for a regressed
// sequence number. Part of the snapshot encoding.
func (s *Store) Stales() uint64 { return s.stales }

// BadCommands returns how many committed values failed to decode as
// commands (Byzantine proposers can commit garbage; it must not desync
// replicas). Part of the snapshot encoding.
func (s *Store) BadCommands() uint64 { return s.badCmds }
