package rb

import (
	"crypto/sha256"
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/xtrace"
)

// relayEnv is a manual-clock environment: sends and broadcasts are
// recorded, timers are collected and fired by hand.
type relayEnv struct {
	id     types.ProcID
	params types.Params
	now    types.Time
	sent   []struct {
		to types.ProcID
		m  proto.Message
	}
	bcast  []proto.Message
	timers []struct {
		at types.Time
		fn func()
	}
}

var _ proto.Env = (*relayEnv)(nil)

func newRelayEnv() *relayEnv {
	return &relayEnv{id: 1, params: types.Params{N: 7, T: 2}}
}

func (e *relayEnv) ID() types.ProcID     { return e.id }
func (e *relayEnv) Params() types.Params { return e.params }
func (e *relayEnv) Now() types.Time      { return e.now }
func (e *relayEnv) Trace() *trace.Log    { return nil }
func (e *relayEnv) Send(to types.ProcID, m proto.Message) {
	e.sent = append(e.sent, struct {
		to types.ProcID
		m  proto.Message
	}{to, m})
}
func (e *relayEnv) Broadcast(m proto.Message) { e.bcast = append(e.bcast, m) }
func (e *relayEnv) SetTimer(d types.Duration, fn func()) (cancel func()) {
	e.timers = append(e.timers, struct {
		at types.Time
		fn func()
	}{e.now + types.Time(d), fn})
	idx := len(e.timers) - 1
	return func() { e.timers[idx].fn = nil }
}

// fireTimers advances the clock to each due timer and fires it.
func (e *relayEnv) fireTimers() {
	for i := 0; i < len(e.timers); i++ {
		t := e.timers[i]
		if t.fn == nil {
			continue
		}
		e.timers[i].fn = nil
		if t.at > e.now {
			e.now = t.at
		}
		t.fn()
	}
}

type sinkRec struct {
	from types.ProcID
	m    proto.Message
}

func newTestRelay(env *relayEnv) (*Relay, *[]sinkRec) {
	var got []sinkRec
	r := NewRelay(RelayConfig{
		Env:  env,
		Sink: func(from types.ProcID, m proto.Message) { got = append(got, sinkRec{from, m}) },
	})
	return r, &got
}

var relayTag = proto.Tag{Mod: proto.ModACEst, Round: 3}

func echoMsg(origin types.ProcID, inst types.Instance, v types.Value) proto.Message {
	return proto.Message{Kind: proto.MsgRBEcho, Tag: relayTag, Origin: origin, Instance: inst, Val: v}
}

// hashOf is v's content hash computed apart from the relay: its SHA-256.
func hashOf(v types.Value) hashKey {
	return sha256.Sum256([]byte(v))
}

// --- entry codec -------------------------------------------------------------

func TestEntriesRoundTrip(t *testing.T) {
	big := types.Value(strings.Repeat("v", 100))
	hash := hashOf(big)
	entries := []Entry{
		{Kind: proto.MsgRBEcho, Tag: proto.Tag{Mod: proto.ModConsCB0}, Origin: 1, Instance: 0, Val: "small"},
		{Kind: proto.MsgRBReady, Tag: proto.Tag{Mod: proto.ModACEst, Round: 9}, Origin: 7, Instance: 41, Val: ""},
		{Kind: proto.MsgRBEcho, Tag: proto.Tag{Mod: proto.ModEACB, Round: 1 << 30}, Origin: 3, Instance: 1 << 40, Hashed: true, Val: types.Value(hash[:])},
	}
	enc, err := EncodeEntries(entries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEntries(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Errorf("entry %d: got %+v want %+v", i, got[i], entries[i])
		}
	}
}

func TestEncodeEntriesRejectsBadVocabulary(t *testing.T) {
	for _, e := range []Entry{
		{Kind: proto.MsgRBInit, Tag: relayTag, Origin: 1, Val: "x"},                        // INIT never coalesces
		{Kind: proto.MsgRBVector, Tag: relayTag, Origin: 1, Val: "x"},                      // no nesting
		{Kind: proto.MsgRBEcho, Tag: proto.Tag{Mod: proto.ModKV}, Origin: 1, Val: "x"},     // module out of range
		{Kind: proto.MsgRBEcho, Tag: proto.Tag{Mod: proto.ModDecide}, Origin: 1, Val: "x"}, // DECIDE is no RB stream
		{Kind: proto.MsgRBEcho, Tag: proto.Tag{Mod: relayTag.Mod, Round: -1}, Origin: 1},   // negative round
		{Kind: proto.MsgRBEcho, Tag: relayTag, Origin: 1, Instance: -4},                    // negative instance
		{Kind: proto.MsgRBEcho, Tag: relayTag, Origin: 1, Hashed: true, Val: "short"},      // bad hash length
	} {
		if _, err := EncodeEntries([]Entry{e}); err == nil {
			t.Errorf("EncodeEntries accepted %+v", e)
		}
	}
}

func TestDecodeEntriesRejectsMalformed(t *testing.T) {
	valid, err := EncodeEntries([]Entry{
		{Kind: proto.MsgRBEcho, Tag: relayTag, Origin: 2, Instance: 5, Val: "value"},
		{Kind: proto.MsgRBReady, Tag: relayTag, Origin: 2, Instance: 5, Val: "value"},
	})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(b []byte) []byte
		substr string
	}{
		{"empty", func(b []byte) []byte { return nil }, "short"},
		{"short", func(b []byte) []byte { return b[:3] }, "short"},
		{"count overruns frame", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b, 1<<15)
			return b
		}, "count"},
		{"count over limit", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b, maxVectorEntries+1)
			return b
		}, "limit"},
		{"bad kind", func(b []byte) []byte { b[4] = byte(proto.MsgRBInit); return b }, "kind"},
		{"bad module", func(b []byte) []byte { b[5] = 99; return b }, "module"},
		{"decide module", func(b []byte) []byte { b[5] = byte(proto.ModDecide); return b }, "module"},
		{"unknown flags", func(b []byte) []byte { b[6] = 0x80; return b }, "flags"},
		{"negative round", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[7:], 1<<63)
			return b
		}, "negative"},
		{"hashed wrong length", func(b []byte) []byte {
			b[6] = entryFlagHashed // payload is 5 bytes, not HashLen
			return b
		}, "hashed"},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-2] }, "truncated"},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xAB) }, "trailing"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := tt.mutate([]byte(valid))
			if _, err := DecodeEntries(types.Value(b)); err == nil {
				t.Fatal("malformed vector accepted")
			} else if !strings.Contains(err.Error(), tt.substr) {
				t.Errorf("error %q does not mention %q", err, tt.substr)
			}
		})
	}
}

func FuzzDecodeEntries(f *testing.F) {
	seed, _ := EncodeEntries([]Entry{
		{Kind: proto.MsgRBEcho, Tag: relayTag, Origin: 2, Instance: 5, Val: "value"},
	})
	hash := hashOf("big-value")
	hashed, _ := EncodeEntries([]Entry{
		{Kind: proto.MsgRBReady, Tag: relayTag, Origin: 2, Instance: 5, Hashed: true, Val: types.Value(hash[:])},
	})
	f.Add([]byte(seed))
	f.Add([]byte(hashed))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodeEntries(types.Value(data))
		if err != nil {
			return
		}
		// Valid decodes must re-encode canonically.
		b, err2 := EncodeEntries(entries)
		if err2 != nil {
			t.Fatalf("decoded entries fail to encode: %v", err2)
		}
		if string(b) != string(data) {
			t.Fatalf("decode/encode not canonical: %x vs %x", data, b)
		}
	})
}

// --- outbound coalescing -----------------------------------------------------

func TestRelayBuffersAndFlushesOnQuantum(t *testing.T) {
	env := newRelayEnv()
	r, _ := newTestRelay(env)
	env.now = types.Time(DefaultQuantum) / 2 // off-grid start

	// Three echo/ready broadcasts across two instances, one small INIT.
	r.Broadcast(proto.Message{Kind: proto.MsgRBInit, Tag: relayTag, Origin: 1, Instance: 0, Val: "v0"})
	r.Broadcast(echoMsg(1, 0, "v0"))
	r.Broadcast(echoMsg(2, 1, "v1"))
	r.Broadcast(proto.Message{Kind: proto.MsgRBReady, Tag: relayTag, Origin: 1, Instance: 0, Val: "v0"})

	if len(env.bcast) != 1 {
		t.Fatalf("%d broadcasts before flush, want 1 (the INIT)", len(env.bcast))
	}
	if r.Buffered() != 3 {
		t.Fatalf("buffered %d entries, want 3", r.Buffered())
	}
	if len(env.timers) != 1 {
		t.Fatalf("%d flush timers, want 1", len(env.timers))
	}
	// Grid alignment: the timer lands exactly on the next quantum multiple.
	if at := env.timers[0].at; at != types.Time(DefaultQuantum) {
		t.Fatalf("flush at %v, want %v", at, types.Time(DefaultQuantum))
	}
	env.fireTimers()
	if len(env.bcast) != 2 {
		t.Fatalf("%d broadcasts after flush, want 2", len(env.bcast))
	}
	frame := env.bcast[1]
	if frame.Kind != proto.MsgRBVector || frame.Tag.Mod != proto.ModRBRelay || frame.Origin != 1 {
		t.Fatalf("flush frame %+v", frame)
	}
	entries, err := DecodeEntries(frame.Val)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("frame carries %d entries, want 3", len(entries))
	}
	if r.FramesOut() != 1 || r.EntriesOut() != 3 || r.Buffered() != 0 {
		t.Fatalf("frames=%d entries=%d buffered=%d", r.FramesOut(), r.EntriesOut(), r.Buffered())
	}
}

func TestRelayHashesLargeValues(t *testing.T) {
	env := newRelayEnv()
	r, _ := newTestRelay(env)
	small := types.Value(strings.Repeat("s", InlineMax))
	big := types.Value(strings.Repeat("b", InlineMax+1))
	r.Broadcast(echoMsg(1, 0, small))
	r.Broadcast(echoMsg(2, 0, big))
	r.Flush()
	entries, err := DecodeEntries(env.bcast[0].Val)
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Hashed || entries[0].Val != small {
		t.Fatalf("small value not inline: %+v", entries[0])
	}
	h := hashOf(big)
	if !entries[1].Hashed || entries[1].Val != types.Value(h[:]) {
		t.Fatalf("large value not hashed: %+v", entries[1])
	}
	// The relay must be able to answer pulls for values it hashed.
	r.Inbound(5, proto.Message{Kind: proto.MsgRBPull, Tag: proto.Tag{Mod: proto.ModRBRelay}, Origin: 5, Val: types.Value(h[:])})
	if len(env.sent) != 1 || env.sent[0].m.Kind != proto.MsgRBPullResp || env.sent[0].m.Val != big {
		t.Fatalf("pull not answered: %+v", env.sent)
	}
}

// One decision carries the same batch through an INIT, this process's
// own ECHO and READY, and the later CBs; the relay hashes it once.
func TestRelayHashesEachValueOnce(t *testing.T) {
	env := newRelayEnv()
	m := obs.NewRBMetrics(obs.NewRegistry(), "")
	r := NewRelay(RelayConfig{Env: env, Sink: func(types.ProcID, proto.Message) {}, Metrics: m})
	batch := types.Value(strings.Repeat("b", 4096))
	cb0 := proto.Tag{Mod: proto.ModConsCB0}
	r.Inbound(2, proto.Message{Kind: proto.MsgRBInit, Tag: cb0, Origin: 2, Instance: 3, Val: batch})
	r.Broadcast(proto.Message{Kind: proto.MsgRBEcho, Tag: cb0, Origin: 2, Instance: 3, Val: batch})
	r.Broadcast(proto.Message{Kind: proto.MsgRBReady, Tag: cb0, Origin: 2, Instance: 3, Val: batch})
	eaCB := proto.Tag{Mod: proto.ModEACB, Round: 1}
	r.Inbound(3, proto.Message{Kind: proto.MsgRBInit, Tag: eaCB, Origin: 3, Instance: 3, Val: batch})
	if r.Hashes() != 1 || m.Hashes.Value() != 1 {
		t.Fatalf("hashed the value %d times (metric %d), want once", r.Hashes(), m.Hashes.Value())
	}
	r.Flush()
	entries, err := DecodeEntries(env.bcast[0].Val)
	if err != nil {
		t.Fatal(err)
	}
	h := hashOf(batch)
	for _, e := range entries {
		if !e.Hashed || e.Val != types.Value(h[:]) {
			t.Fatalf("entry %+v does not reference the value's hash", e)
		}
	}
}

func TestBufferingLearnedValueAllocatesNothing(t *testing.T) {
	env := newRelayEnv()
	r, _ := newTestRelay(env)
	batch := types.Value(strings.Repeat("b", 4096))
	r.Inbound(2, proto.Message{Kind: proto.MsgRBInit, Tag: relayTag, Origin: 2, Instance: 3, Val: batch})
	echo := echoMsg(2, 3, batch)
	r.Broadcast(echo) // arms the flush timer and sizes the buffer
	allocs := testing.AllocsPerRun(100, func() {
		r.buf = r.buf[:0]
		r.Broadcast(echo)
	})
	if allocs != 0 {
		t.Fatalf("buffering an ECHO for a learned value allocates %v times", allocs)
	}
	// Hashing a value the relay has not seen allocates nothing either.
	if allocs := testing.AllocsPerRun(100, func() { r.hash(batch) }); allocs != 0 {
		t.Fatalf("hashing a value allocates %v times", allocs)
	}
	if r.hash(batch) != hashOf(batch) {
		t.Fatal("the relay's hash is not the SHA-256")
	}
}

func TestRetireRetiresBothIndexes(t *testing.T) {
	env := newRelayEnv()
	r, _ := newTestRelay(env)
	for i := 0; i < 6; i++ {
		v := types.Value(strings.Repeat(string(rune('a'+i)), 64))
		if i%2 == 0 {
			r.Inbound(2, proto.Message{Kind: proto.MsgRBInit, Tag: relayTag, Origin: 2, Instance: types.Instance(i), Val: v})
		} else {
			r.Broadcast(echoMsg(2, types.Instance(i), v))
		}
	}
	r.RetireInstancesBefore(3)
	if len(r.cache) != 3 || len(r.byVal) != len(r.cache) {
		t.Fatalf("cache %d values, value index %d, want 3 and 3", len(r.cache), len(r.byVal))
	}
	for v, cv := range r.byVal {
		if r.cache[hashOf(v)] != cv {
			t.Fatalf("value index entry %q is not the cache's", v[:1])
		}
	}
}

func TestRelayFlushesAtMaxBuffer(t *testing.T) {
	env := newRelayEnv()
	var got []sinkRec
	r := NewRelay(RelayConfig{
		Env:  env,
		Sink: func(from types.ProcID, m proto.Message) { got = append(got, sinkRec{from, m}) },
	})
	r.maxBuf = 4
	for i := 0; i < 4; i++ {
		r.Broadcast(echoMsg(types.ProcID(i+1), types.Instance(i), "v"))
	}
	if len(env.bcast) != 1 {
		t.Fatalf("a full buffer did not force a flush: %d broadcasts", len(env.bcast))
	}
	if r.Buffered() != 0 {
		t.Fatalf("buffer not drained: %d", r.Buffered())
	}
	if r.FullFlushes() != 1 || r.IdleFlushes()+r.TimerFlushes() != 0 {
		t.Fatalf("flush causes idle=%d timer=%d full=%d, want full only", r.IdleFlushes(), r.TimerFlushes(), r.FullFlushes())
	}
}

// idleEnv is relayEnv on a host that reports running out of input
// (proto.IdleNotifier); idle() is that moment.
type idleEnv struct {
	*relayEnv
	hooks []func()
}

var _ proto.IdleNotifier = (*idleEnv)(nil)

func (e *idleEnv) OnIdle(fn func()) { e.hooks = append(e.hooks, fn) }

// idle runs the hooks.
func (e *idleEnv) idle() {
	for _, fn := range e.hooks {
		fn()
	}
}

func TestRelayFlushesOnIdle(t *testing.T) {
	env := &idleEnv{relayEnv: newRelayEnv()}
	rec := xtrace.NewRecorder(16)
	r := NewRelay(RelayConfig{
		Env:    env,
		Sink:   func(types.ProcID, proto.Message) {},
		Tracer: xtrace.New(xtrace.Config{Proc: 1, Recorder: rec}),
	})
	if len(env.hooks) != 1 {
		t.Fatalf("relay registered %d idle hooks, want 1", len(env.hooks))
	}

	// An idle host with nothing buffered: no frame, no span, no count.
	env.idle()
	if len(env.bcast) != 0 || r.FramesOut() != 0 || r.IdleFlushes() != 0 || rec.Total() != 0 {
		t.Fatalf("empty idle: %d broadcasts, %d frames, %d idle flushes, %d spans",
			len(env.bcast), r.FramesOut(), r.IdleFlushes(), rec.Total())
	}

	r.Broadcast(echoMsg(1, 0, "v0"))
	r.Broadcast(echoMsg(2, 1, "v1"))
	r.Broadcast(proto.Message{Kind: proto.MsgRBReady, Tag: relayTag, Origin: 1, Instance: 0, Val: "v0"})
	if len(env.bcast) != 0 || r.Buffered() != 3 || len(env.timers) != 1 {
		t.Fatalf("before idle: %d broadcasts, %d buffered, %d timers", len(env.bcast), r.Buffered(), len(env.timers))
	}
	env.idle()
	if len(env.bcast) != 1 || env.bcast[0].Kind != proto.MsgRBVector {
		t.Fatalf("idle sent %+v, want one vector frame", env.bcast)
	}
	entries, err := DecodeEntries(env.bcast[0].Val)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || r.Buffered() != 0 {
		t.Fatalf("frame carries %d entries, %d still buffered", len(entries), r.Buffered())
	}
	// The grid timer armed for those entries is cancelled, so the grid
	// instant sends nothing more.
	if env.timers[0].fn != nil {
		t.Fatal("idle flush left the grid timer pending")
	}
	env.fireTimers()
	env.idle()
	if len(env.bcast) != 1 {
		t.Fatalf("%d broadcasts after the grid instant, want 1", len(env.bcast))
	}
	if r.FramesOut() != 1 || r.IdleFlushes() != 1 || r.TimerFlushes() != 0 || r.FullFlushes() != 0 {
		t.Fatalf("frames=%d idle=%d timer=%d full=%d", r.FramesOut(), r.IdleFlushes(), r.TimerFlushes(), r.FullFlushes())
	}
	if spans := rec.Snapshot(); len(spans) != 1 || spans[0].Stage != xtrace.StageRBRelay {
		t.Fatalf("spans %+v, want one rb_relay", spans)
	}

	// The next hold arms a fresh timer; if input keeps arriving until the
	// grid instant, the timer is what ends it.
	r.Broadcast(echoMsg(3, 2, "v2"))
	if len(env.timers) != 2 {
		t.Fatalf("%d timers, want a second one for the new hold", len(env.timers))
	}
	env.fireTimers()
	if len(env.bcast) != 2 || r.IdleFlushes() != 1 || r.TimerFlushes() != 1 {
		t.Fatalf("%d broadcasts, idle=%d timer=%d", len(env.bcast), r.IdleFlushes(), r.TimerFlushes())
	}
}

// Every idle moment sends what the relay holds, however soon after the
// previous frame it comes: two idle moments 1 µs apart, each after a
// fresh entry, send a frame each, both ended by the idle host.
func TestRelayFlushesEveryIdleMoment(t *testing.T) {
	env := &idleEnv{relayEnv: newRelayEnv()}
	r := NewRelay(RelayConfig{Env: env, Sink: func(types.ProcID, proto.Message) {}})
	for i := 0; i < 2; i++ {
		r.Broadcast(echoMsg(types.ProcID(i+1), types.Instance(i), "v"))
		env.idle()
		if len(env.bcast) != i+1 || r.Buffered() != 0 || r.IdleFlushes() != uint64(i+1) {
			t.Fatalf("idle moment %d: %d frames, %d buffered, %d idle flushes",
				i+1, len(env.bcast), r.Buffered(), r.IdleFlushes())
		}
		entries, err := DecodeEntries(env.bcast[i].Val)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Origin != types.ProcID(i+1) {
			t.Fatalf("frame %d carries %+v, want only the entry buffered before it", i+1, entries)
		}
		if env.timers[i].fn != nil {
			t.Fatalf("idle moment %d left the grid timer pending", i+1)
		}
		env.now += types.Time(time.Microsecond)
	}
	if r.TimerFlushes() != 0 || r.FullFlushes() != 0 {
		t.Fatalf("timer=%d full=%d, want idle flushes only", r.TimerFlushes(), r.FullFlushes())
	}
}

// Hold observes, per flushed frame, the time from the first entry
// buffered into it to the flush, whatever ended the hold.
func TestRelayObservesHold(t *testing.T) {
	env := &idleEnv{relayEnv: newRelayEnv()}
	m := obs.NewRBMetrics(obs.NewRegistry(), "")
	r := NewRelay(RelayConfig{Env: env, Sink: func(types.ProcID, proto.Message) {}, Metrics: m})
	env.now = types.Time(DefaultQuantum) / 2
	r.Broadcast(echoMsg(1, 0, "v0"))
	env.now += types.Time(300 * time.Microsecond)
	r.Broadcast(echoMsg(2, 1, "v1")) // joins the hold, does not restart it
	env.now += types.Time(200 * time.Microsecond)
	env.idle() // held 500 µs
	env.now += types.Time(100 * time.Microsecond)
	r.Broadcast(echoMsg(3, 2, "v2"))
	env.fireTimers() // the grid instant, 400 µs later
	if m.Hold.Count() != 2 || m.Hold.Sum() != int64(900*time.Microsecond) {
		t.Fatalf("hold: %d frames summing %v, want 2 summing 900µs",
			m.Hold.Count(), time.Duration(m.Hold.Sum()))
	}
}

// --- inbound unpacking -------------------------------------------------------

func inboundVector(t *testing.T, r *Relay, from types.ProcID, entries []Entry) {
	t.Helper()
	enc, err := EncodeEntries(entries)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Inbound(from, proto.Message{
		Kind: proto.MsgRBVector, Tag: proto.Tag{Mod: proto.ModRBRelay},
		Origin: from, Val: enc,
	}) {
		t.Fatal("vector frame not consumed")
	}
}

func TestInboundVectorDeliversInline(t *testing.T) {
	env := newRelayEnv()
	r, got := newTestRelay(env)
	inboundVector(t, r, 4, []Entry{
		{Kind: proto.MsgRBEcho, Tag: relayTag, Origin: 2, Instance: 7, Val: "v"},
		{Kind: proto.MsgRBReady, Tag: relayTag, Origin: 2, Instance: 8, Val: "v"},
	})
	if len(*got) != 2 {
		t.Fatalf("sink got %d messages, want 2", len(*got))
	}
	want := proto.Message{Kind: proto.MsgRBEcho, Tag: relayTag, Origin: 2, Instance: 7, Val: "v"}
	if (*got)[0].from != 4 || (*got)[0].m != want {
		t.Fatalf("sink[0] = %+v, want from=4 %+v", (*got)[0], want)
	}
}

func TestInboundEntryDedupMirrorsFirstMessageRule(t *testing.T) {
	env := newRelayEnv()
	r, got := newTestRelay(env)
	e := Entry{Kind: proto.MsgRBEcho, Tag: relayTag, Origin: 2, Instance: 7, Val: "v"}
	// In-frame duplicate and a cross-frame duplicate from the same sender:
	// one delivery. An entry differing only in VALUE is also a duplicate —
	// identity is (sender, kind, tag, origin) per instance, the rule loose
	// messages obey (Admit), so an equivocating aggregator cannot get two
	// values of the same identity counted.
	equiv := e
	equiv.Val = "other"
	inboundVector(t, r, 4, []Entry{e, e})
	inboundVector(t, r, 4, []Entry{e, equiv})
	if len(*got) != 1 {
		t.Fatalf("sink got %d messages, want 1", len(*got))
	}
	if r.DupEntries() != 3 {
		t.Fatalf("DupEntries=%d, want 3", r.DupEntries())
	}
	// The same entry from a DIFFERENT sender is fresh (it is that
	// sender's echo).
	inboundVector(t, r, 5, []Entry{e})
	if len(*got) != 2 {
		t.Fatalf("sink got %d messages, want 2", len(*got))
	}
}

// A vector repeating one (sender, kind, tag, origin) entry puts the
// dropped repeat on /metrics: the registered series rises by one.
// TestAdmitKeepsIdentitiesApart: every identity a correct process can
// send has a bit of its own — the first of each is admitted, a second
// copy of each is a duplicate, whatever its value — and a loose message
// and a vector entry of one identity share it.
func TestAdmitKeepsIdentitiesApart(t *testing.T) {
	env := newRelayEnv() // n = 7
	r, got := newTestRelay(env)
	var all []proto.Message
	for s := types.ProcID(1); s <= 7; s++ {
		for _, mod := range []proto.Module{proto.ModConsCB0, proto.ModEACB, proto.ModACCB, proto.ModACEst} {
			tag := proto.Tag{Mod: mod, Round: 1}
			all = append(all, proto.Message{Kind: proto.MsgRBInit, Tag: tag, Origin: s})
			for o := types.ProcID(1); o <= 7; o++ {
				all = append(all,
					proto.Message{Kind: proto.MsgRBEcho, Tag: tag, Origin: o},
					proto.Message{Kind: proto.MsgRBReady, Tag: tag, Origin: o})
			}
		}
		for k := proto.MsgEAProp2; k <= proto.MsgEARelay; k++ {
			all = append(all, proto.Message{Kind: k, Tag: proto.Tag{Mod: proto.ModEA, Round: 1}})
		}
		all = append(all, proto.Message{Kind: proto.MsgDecide, Tag: proto.Tag{Mod: proto.ModDecide}})
	}
	from := func(k int) types.ProcID { return types.ProcID(k/(len(all)/7) + 1) }
	for pass, val := range []types.Value{"v", "w"} {
		for k, m := range all {
			m.Val = val
			if first, dup := r.Admit(from(k), m); first != (pass == 0) || dup != (pass == 1) {
				t.Fatalf("pass %d, %v from %v: first=%v dup=%v", pass, m, from(k), first, dup)
			}
		}
	}
	if r.ScopeDrops() != 0 {
		t.Fatalf("ScopeDrops=%d, want 0", r.ScopeDrops())
	}
	// The vector entry of an admitted loose ECHO is its duplicate.
	inboundVector(t, r, 1, []Entry{{Kind: proto.MsgRBEcho, Tag: proto.Tag{Mod: proto.ModACEst, Round: 1}, Origin: 3, Val: "v"}})
	if len(*got) != 0 || r.DupEntries() != 1 {
		t.Fatalf("vector copy of a loose echo: delivered %d, DupEntries=%d", len(*got), r.DupEntries())
	}
}

func TestDupEntriesExported(t *testing.T) {
	env := newRelayEnv()
	reg := obs.NewRegistry()
	r := NewRelay(RelayConfig{
		Env:     env,
		Sink:    func(types.ProcID, proto.Message) {},
		Metrics: obs.NewRBMetrics(reg, `proc="1"`),
	})
	e := Entry{Kind: proto.MsgRBReady, Tag: relayTag, Origin: 3, Instance: 2, Val: "v"}
	inboundVector(t, r, 4, []Entry{e, e})
	series := reg.Snapshot().Counters[`minsync_rb_dup_entries_total{proc="1"}`]
	if series != 1 || r.DupEntries() != 1 {
		t.Fatalf("minsync_rb_dup_entries_total=%d DupEntries=%d, want 1 and 1", series, r.DupEntries())
	}
}

func TestInboundHashResolvesFromInitSniff(t *testing.T) {
	env := newRelayEnv()
	r, got := newTestRelay(env)
	big := types.Value(strings.Repeat("x", 64))
	h := hashOf(big)
	// The INIT passes through Inbound (not consumed) and seeds the cache.
	if r.Inbound(2, proto.Message{Kind: proto.MsgRBInit, Tag: relayTag, Origin: 2, Instance: 7, Val: big}) {
		t.Fatal("INIT consumed by relay")
	}
	inboundVector(t, r, 4, []Entry{
		{Kind: proto.MsgRBEcho, Tag: relayTag, Origin: 2, Instance: 7, Hashed: true, Val: types.Value(h[:])},
	})
	if len(*got) != 1 || (*got)[0].m.Val != big {
		t.Fatalf("hashed entry not resolved: %+v", got)
	}
	if len(env.sent) != 0 {
		t.Fatalf("pull sent despite cached value: %+v", env.sent)
	}
}

// TestRelayHashIsTheOnlyGuard plants what a hash collision would give an
// adversary: two values bound to one hashKey, one in each of two correct
// processes' caches (as the two halves of a split INIT would leave them).
// One hashed READY from a third process then counts toward v₁ at the
// first and toward v₂ at the second: the relay resolves every hashed
// entry through the receiver's own cache, so nothing but the hash keeps
// correct processes from delivering different values in one instance.
// HashLen = 32 puts finding such a pair at 2¹²⁸ evaluations.
func TestRelayHashIsTheOnlyGuard(t *testing.T) {
	v1 := types.Value(strings.Repeat("1", 64))
	v2 := types.Value(strings.Repeat("2", 64))
	h := hashOf(v1)
	var delivered []types.Value
	for _, v := range []types.Value{v1, v2} {
		env := newRelayEnv()
		r, got := newTestRelay(env)
		r.insert(h, v, 7, false)
		inboundVector(t, r, 4, []Entry{
			{Kind: proto.MsgRBReady, Tag: relayTag, Origin: 2, Instance: 7, Hashed: true, Val: types.Value(h[:])},
		})
		if len(*got) != 1 {
			t.Fatalf("sink got %d messages, want 1", len(*got))
		}
		delivered = append(delivered, (*got)[0].m.Val)
	}
	if delivered[0] != v1 || delivered[1] != v2 {
		t.Fatalf("one hashed READY resolved to %.8q and %.8q, want the split v1/v2", delivered[0], delivered[1])
	}
}

func TestInboundHashParksAndPulls(t *testing.T) {
	env := newRelayEnv()
	r, got := newTestRelay(env)
	big := types.Value(strings.Repeat("y", 64))
	h := hashOf(big)
	he := Entry{Kind: proto.MsgRBEcho, Tag: relayTag, Origin: 2, Instance: 7, Hashed: true, Val: types.Value(h[:])}
	inboundVector(t, r, 4, []Entry{he})
	if len(*got) != 0 {
		t.Fatal("unresolved hash entry delivered")
	}
	if r.Parked() != 1 {
		t.Fatalf("Parked=%d, want 1", r.Parked())
	}
	// One pull, to the frame's sender, carrying the hash.
	if len(env.sent) != 1 || env.sent[0].to != 4 || env.sent[0].m.Kind != proto.MsgRBPull || env.sent[0].m.Val != types.Value(h[:]) {
		t.Fatalf("pull wrong: %+v", env.sent)
	}
	// A second sender naming the same hash parks its own entry and pulls
	// from that sender too (resolution liveness does not hinge on one
	// peer), but repeated frames from the first sender do not re-pull.
	he2 := he
	he2.Kind = proto.MsgRBReady
	inboundVector(t, r, 5, []Entry{he})
	inboundVector(t, r, 4, []Entry{he2})
	if len(env.sent) != 2 || env.sent[1].to != 5 {
		t.Fatalf("pull fan-out wrong: %+v", env.sent)
	}
	if r.Parked() != 3 {
		t.Fatalf("Parked=%d, want 3", r.Parked())
	}
	// A mismatched response resolves nothing (self-validation by re-hash).
	r.Inbound(9, proto.Message{Kind: proto.MsgRBPullResp, Tag: proto.Tag{Mod: proto.ModRBRelay}, Origin: 9, Val: "wrong-value"})
	if len(*got) != 0 || r.Parked() != 3 {
		t.Fatalf("forged pull response accepted: sink=%d parked=%d", len(*got), r.Parked())
	}
	// The genuine response resolves every parked entry, attributed to the
	// senders that named the hash.
	r.Inbound(5, proto.Message{Kind: proto.MsgRBPullResp, Tag: proto.Tag{Mod: proto.ModRBRelay}, Origin: 5, Val: big})
	if len(*got) != 3 || r.Parked() != 0 {
		t.Fatalf("pull response did not resolve: sink=%d parked=%d", len(*got), r.Parked())
	}
	for _, rec := range *got {
		if rec.m.Val != big {
			t.Fatalf("resolved entry carries %q", rec.m.Val)
		}
	}
	if (*got)[0].from != 4 || (*got)[1].from != 5 || (*got)[2].from != 4 {
		t.Fatalf("resolution attribution wrong: %+v", *got)
	}
}

func TestParkingCapBoundsStarvation(t *testing.T) {
	env := newRelayEnv()
	var got []sinkRec
	r := NewRelay(RelayConfig{
		Env:  env,
		Sink: func(from types.ProcID, m proto.Message) { got = append(got, sinkRec{from, m}) },
	})
	r.maxPark = 2
	for i := 0; i < 5; i++ {
		h := hashOf(types.Value(strings.Repeat("z", 64) + string(rune('a'+i))))
		inboundVector(t, r, 4, []Entry{
			{Kind: proto.MsgRBEcho, Tag: relayTag, Origin: 2, Instance: types.Instance(i), Hashed: true, Val: types.Value(h[:])},
		})
	}
	if r.Parked() != 2 {
		t.Fatalf("Parked=%d, want cap 2", r.Parked())
	}
	if r.ParkDrops() != 3 {
		t.Fatalf("ParkDrops=%d, want 3", r.ParkDrops())
	}
	if len(got) != 0 {
		t.Fatal("starved entries delivered")
	}
}

func TestInboundInitLearnsOnlyUnforgedInWindow(t *testing.T) {
	env := newRelayEnv()
	var got []sinkRec
	r := NewRelay(RelayConfig{
		Env:    env,
		Sink:   func(from types.ProcID, m proto.Message) { got = append(got, sinkRec{from, m}) },
		Window: func(i types.Instance) bool { return i < 10 },
	})
	big := types.Value(strings.Repeat("x", 64))
	// Forged INIT (sender impersonating origin 2) and far-future INIT:
	// both pass through unconsumed, neither may seed the cache.
	if r.Inbound(3, proto.Message{Kind: proto.MsgRBInit, Tag: relayTag, Origin: 2, Instance: 7, Val: big}) {
		t.Fatal("INIT consumed by relay")
	}
	r.Inbound(2, proto.Message{Kind: proto.MsgRBInit, Tag: relayTag, Origin: 2, Instance: 1 << 40, Val: big})
	if len(r.cache) != 0 {
		t.Fatalf("cache learned %d values from forged/out-of-window INITs", len(r.cache))
	}
	// The genuine in-window INIT still learns.
	r.Inbound(2, proto.Message{Kind: proto.MsgRBInit, Tag: relayTag, Origin: 2, Instance: 7, Val: big})
	if len(r.cache) != 1 {
		t.Fatalf("cache holds %d values after genuine INIT, want 1", len(r.cache))
	}
}

func TestWindowGuardForwardsWithoutAllocating(t *testing.T) {
	env := newRelayEnv()
	var got []sinkRec
	r := NewRelay(RelayConfig{
		Env:    env,
		Sink:   func(from types.ProcID, m proto.Message) { got = append(got, sinkRec{from, m}) },
		Window: func(i types.Instance) bool { return i < 10 },
	})
	h := hashOf(types.Value(strings.Repeat("q", 64)))
	inboundVector(t, r, 4, []Entry{
		{Kind: proto.MsgRBEcho, Tag: relayTag, Origin: 2, Instance: 1 << 40, Val: "v"},
		{Kind: proto.MsgRBReady, Tag: relayTag, Origin: 2, Instance: 1 << 41, Hashed: true, Val: types.Value(h[:])},
	})
	// Out-of-window entries reach the sink raw — the engine's own guards
	// must account for them (lag signal) — but allocate nothing: no dedup
	// scope, no parked entry, no pull.
	if len(got) != 2 {
		t.Fatalf("sink got %d messages, want 2 forwarded", len(got))
	}
	if r.WindowDrops() != 2 {
		t.Fatalf("WindowDrops=%d, want 2", r.WindowDrops())
	}
	if r.Scopes() != 0 || r.Parked() != 0 || len(env.sent) != 0 || len(r.cache) != 0 {
		t.Fatalf("out-of-window entries allocated state: scopes=%d parked=%d pulls=%d cache=%d",
			r.Scopes(), r.Parked(), len(env.sent), len(r.cache))
	}
}

func TestParkDropDoesNotConsumeDedupBit(t *testing.T) {
	env := newRelayEnv()
	var got []sinkRec
	r := NewRelay(RelayConfig{
		Env:  env,
		Sink: func(from types.ProcID, m proto.Message) { got = append(got, sinkRec{from, m}) },
	})
	r.maxPark = 1
	va := types.Value(strings.Repeat("a", 64))
	vb := types.Value(strings.Repeat("b", 64))
	ha, hb := hashOf(va), hashOf(vb)
	ea := Entry{Kind: proto.MsgRBEcho, Tag: relayTag, Origin: 2, Instance: 0, Hashed: true, Val: types.Value(ha[:])}
	eb := Entry{Kind: proto.MsgRBEcho, Tag: relayTag, Origin: 3, Instance: 0, Hashed: true, Val: types.Value(hb[:])}
	inboundVector(t, r, 4, []Entry{ea}) // parks, fills the lot
	inboundVector(t, r, 4, []Entry{eb}) // dropped at the cap
	if r.Parked() != 1 || r.ParkDrops() != 1 {
		t.Fatalf("parked=%d drops=%d, want 1/1", r.Parked(), r.ParkDrops())
	}
	// Resolve A, freeing the lot; the dropped entry must still be
	// deliverable when retransmitted — its dedup identity was not burned.
	r.Inbound(5, proto.Message{Kind: proto.MsgRBPullResp, Tag: proto.Tag{Mod: proto.ModRBRelay}, Origin: 5, Val: va})
	if len(got) != 1 {
		t.Fatalf("sink got %d after resolving A, want 1", len(got))
	}
	inboundVector(t, r, 4, []Entry{eb})
	if r.Parked() != 1 || r.DupEntries() != 0 {
		t.Fatalf("retransmitted entry not re-parked: parked=%d dups=%d", r.Parked(), r.DupEntries())
	}
	r.Inbound(5, proto.Message{Kind: proto.MsgRBPullResp, Tag: proto.Tag{Mod: proto.ModRBRelay}, Origin: 5, Val: vb})
	if len(got) != 2 || got[1].m.Val != vb {
		t.Fatalf("dropped-then-retransmitted entry never delivered: %+v", got)
	}
}

func TestLearnResolvesParkedEntries(t *testing.T) {
	env := newRelayEnv()
	r, got := newTestRelay(env)
	big := types.Value(strings.Repeat("r", 64))
	h := hashOf(big)
	// Hash entry arrives before the value; the pulled peer (4) never
	// answers. The INIT carrying the value must unpark it regardless.
	inboundVector(t, r, 4, []Entry{
		{Kind: proto.MsgRBEcho, Tag: relayTag, Origin: 2, Instance: 7, Hashed: true, Val: types.Value(h[:])},
	})
	if len(*got) != 0 || r.Parked() != 1 {
		t.Fatalf("precondition: sink=%d parked=%d", len(*got), r.Parked())
	}
	r.Inbound(2, proto.Message{Kind: proto.MsgRBInit, Tag: relayTag, Origin: 2, Instance: 7, Val: big})
	if len(*got) != 1 || (*got)[0].m.Val != big || (*got)[0].from != 4 {
		t.Fatalf("INIT did not resolve parked entry: %+v", *got)
	}
	if r.Parked() != 0 {
		t.Fatalf("Parked=%d after INIT, want 0", r.Parked())
	}
}

func TestCacheByteBudgetBoundsRemoteLearns(t *testing.T) {
	env := newRelayEnv()
	var got []sinkRec
	r := NewRelay(RelayConfig{
		Env:  env,
		Sink: func(from types.ProcID, m proto.Message) { got = append(got, sinkRec{from, m}) },
	})
	r.maxCache = 64 + cacheEntryOverhead + 8 // room for exactly one 64-byte remote value
	v1 := types.Value(strings.Repeat("1", 64))
	v2 := types.Value(strings.Repeat("2", 64))
	r.Inbound(2, proto.Message{Kind: proto.MsgRBInit, Tag: relayTag, Origin: 2, Instance: 0, Val: v1})
	r.Inbound(3, proto.Message{Kind: proto.MsgRBInit, Tag: relayTag, Origin: 3, Instance: 1, Val: v2})
	if len(r.cache) != 1 || r.CacheDrops() != 1 {
		t.Fatalf("cache=%d drops=%d, want 1/1", len(r.cache), r.CacheDrops())
	}
	// Own values bypass the budget: the relay must be able to answer
	// pulls for everything it referenced by hash.
	own := types.Value(strings.Repeat("3", 64))
	r.Broadcast(echoMsg(1, 2, own))
	ho := hashOf(own)
	r.Inbound(5, proto.Message{Kind: proto.MsgRBPull, Tag: proto.Tag{Mod: proto.ModRBRelay}, Origin: 5, Val: types.Value(ho[:])})
	if len(env.sent) == 0 || env.sent[len(env.sent)-1].m.Val != own {
		t.Fatalf("own value not cached past the budget: %+v", env.sent)
	}
	// Retirement refunds the budget, so later remote values cache again.
	r.RetireInstancesBefore(4)
	if r.CacheBytes() != 0 {
		t.Fatalf("CacheBytes=%d after retirement, want 0", r.CacheBytes())
	}
	r.Inbound(3, proto.Message{Kind: proto.MsgRBInit, Tag: relayTag, Origin: 3, Instance: 5, Val: v2})
	if len(r.cache) != 1 {
		t.Fatalf("cache=%d after refund, want 1", len(r.cache))
	}
}

func TestInboundDropsNonProcessOrigins(t *testing.T) {
	env := newRelayEnv() // n = 7
	r, got := newTestRelay(env)
	inboundVector(t, r, 4, []Entry{
		{Kind: proto.MsgRBEcho, Tag: relayTag, Origin: 0, Instance: 0, Val: "v"},
		{Kind: proto.MsgRBEcho, Tag: relayTag, Origin: 8, Instance: 0, Val: "v"},
	})
	if len(*got) != 0 {
		t.Fatalf("non-process origin delivered: %+v", *got)
	}
	if r.ScopeDrops() != 2 {
		t.Fatalf("ScopeDrops=%d, want 2", r.ScopeDrops())
	}
}

func TestRelayRejectsMalformedCarriers(t *testing.T) {
	env := newRelayEnv()
	r, got := newTestRelay(env)
	r.Inbound(4, proto.Message{Kind: proto.MsgRBVector, Tag: proto.Tag{Mod: proto.ModRBRelay}, Origin: 4, Val: "junk"})
	r.Inbound(4, proto.Message{Kind: proto.MsgRBPull, Tag: proto.Tag{Mod: proto.ModRBRelay}, Origin: 4, Val: "not-a-hash"})
	if r.BadFrames() != 2 {
		t.Fatalf("BadFrames=%d, want 2", r.BadFrames())
	}
	if len(*got) != 0 || len(env.sent) != 0 {
		t.Fatal("malformed carrier produced traffic")
	}
}

func TestRetireInstancesBeforeDropsStaleState(t *testing.T) {
	env := newRelayEnv()
	r, got := newTestRelay(env)
	big := types.Value(strings.Repeat("w", 64))
	r.Inbound(2, proto.Message{Kind: proto.MsgRBInit, Tag: relayTag, Origin: 2, Instance: 3, Val: big})
	inboundVector(t, r, 4, []Entry{
		{Kind: proto.MsgRBEcho, Tag: relayTag, Origin: 2, Instance: 3, Val: "v"},
	})
	unresolved := hashOf("never-resolved-value")
	inboundVector(t, r, 4, []Entry{
		{Kind: proto.MsgRBEcho, Tag: relayTag, Origin: 6, Instance: 2, Hashed: true, Val: types.Value(unresolved[:])},
	})
	if r.Parked() != 1 {
		t.Fatalf("Parked=%d, want 1", r.Parked())
	}
	r.RetireInstancesBefore(5)
	// Parked entries of retired instances are gone; the value cache
	// dropped the binding whose last referencing instance is below floor;
	// stale vector entries are ignored outright.
	if r.Parked() != 0 {
		t.Fatalf("Parked=%d after retirement, want 0", r.Parked())
	}
	if len(r.cache) != 0 {
		t.Fatalf("cache holds %d values after retirement", len(r.cache))
	}
	before := len(*got)
	inboundVector(t, r, 5, []Entry{
		{Kind: proto.MsgRBEcho, Tag: relayTag, Origin: 2, Instance: 4, Val: "v"},
	})
	if len(*got) != before {
		t.Fatal("stale-instance entry delivered after retirement")
	}
	if r.Scopes() != 0 {
		t.Fatalf("seen holds %d dedup scopes after retirement", r.Scopes())
	}
}
