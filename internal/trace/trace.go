// Package trace records structured protocol events. Every layer of the
// stack emits events through a Sink; the invariant checkers in
// internal/check replay a Log to verify the specification properties of
// RB, CB, AC, EA and consensus. Counters are not derived from it: each
// layer counts into its own internal/obs bundle.
//
// Tracing is optional: a nil *Log is a valid sink that discards events, so
// benchmark configurations can run trace-free.
package trace

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/types"
)

// Kind enumerates event types. Enums start at 1 so the zero value is
// detectably invalid.
type Kind int

// Event kinds.
const (
	// Transport layer.
	KindSend Kind = iota + 1 // one point-to-point message handed to the network
	KindDeliver

	// Reliable broadcast.
	KindRBBroadcast
	KindRBDeliver

	// Cooperative broadcast.
	KindCBBroadcast // operation invoked
	KindCBValid     // value added to cb_valid
	KindCBReturn    // operation returned

	// Adopt-commit.
	KindACPropose
	KindACReturn // Tag field holds "commit" or "adopt" in Aux

	// Eventual agreement.
	KindEAPropose
	KindEAFastPath // returned at line 4
	KindEACoord    // coordinator championed a value
	KindEARelay    // relay broadcast (Opt may be ⊥)
	KindEATimeout  // round timer expired before EA_COORD arrived
	KindEAReturn

	// Consensus.
	KindConsPropose
	KindConsRoundStart
	KindConsDecideSend // DECIDE broadcast; Aux "commit" or "forward" (t+1 received)
	KindConsDecide

	// Byzantine action annotations (emitted by adversary behaviors).
	KindByzAction

	// Replicated KV service (state-machine layer above the log).
	KindKVSnapshot // digest-stamped state snapshot taken
	KindKVRecover  // replica rebuilt state from snapshot + retained log

	// Snapshot state transfer between replicas (sm.Transfer).
	KindSnapRequest // lagging replica broadcast a snapshot fetch request
	KindSnapServe   // replica served its latest snapshot to a laggard
	KindSnapInstall // laggard installed a corroborated peer snapshot

	// Process lifecycle (simulated power failures).
	KindCrash // process powered off; volatile state lost
)

// String implements fmt.Stringer. It is a switch rather than a map lookup:
// the digest and error paths render every event, and a shared map would
// cost a hash plus a read barrier per call.
func (k Kind) String() string {
	switch k {
	case KindSend:
		return "send"
	case KindDeliver:
		return "deliver"
	case KindRBBroadcast:
		return "rb-broadcast"
	case KindRBDeliver:
		return "rb-deliver"
	case KindCBBroadcast:
		return "cb-broadcast"
	case KindCBValid:
		return "cb-valid"
	case KindCBReturn:
		return "cb-return"
	case KindACPropose:
		return "ac-propose"
	case KindACReturn:
		return "ac-return"
	case KindEAPropose:
		return "ea-propose"
	case KindEAFastPath:
		return "ea-fastpath"
	case KindEACoord:
		return "ea-coord"
	case KindEARelay:
		return "ea-relay"
	case KindEATimeout:
		return "ea-timeout"
	case KindEAReturn:
		return "ea-return"
	case KindConsPropose:
		return "cons-propose"
	case KindConsRoundStart:
		return "cons-round"
	case KindConsDecideSend:
		return "cons-decide-send"
	case KindConsDecide:
		return "cons-decide"
	case KindByzAction:
		return "byz"
	case KindKVSnapshot:
		return "kv-snapshot"
	case KindKVRecover:
		return "kv-recover"
	case KindSnapRequest:
		return "snap-request"
	case KindSnapServe:
		return "snap-serve"
	case KindSnapInstall:
		return "snap-install"
	case KindCrash:
		return "crash"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one structured record. Field meaning depends on Kind; unused
// fields are zero. Proc is always the process at which the event occurred.
type Event struct {
	At    types.Time
	Kind  Kind
	Proc  types.ProcID // where the event happened
	Peer  types.ProcID // counterpart: receiver of a send, origin of a deliver/RB
	Round types.Round  // protocol round (0 when not applicable / CB[0])
	Value types.Value  // payload value, if any
	Opt   types.OptValue
	Aux   string // free-form: message kind, commit/adopt tag, byz note…
}

// String renders the event compactly for logs and test failures.
func (e Event) String() string { return string(e.AppendTo(nil)) }

// appendPadded appends s left-justified to fmt's %-<w>s semantics: padded
// with spaces to w runes (durations carry a two-byte µ).
func appendPadded(b []byte, s string, w int) []byte {
	b = append(b, s...)
	for n := utf8.RuneCountInString(s); n < w; n++ {
		b = append(b, ' ')
	}
	return b
}

func appendProc(b []byte, p types.ProcID) []byte {
	if p == types.NoProc {
		return append(b, "p?"...)
	}
	b = append(b, 'p')
	return strconv.AppendInt(b, int64(p), 10)
}

// AppendTo appends the String rendering to b without fmt — the digest path
// renders every recorded event, and fmt's reflection machinery was the
// single largest consumer in matrix profiles. The output is byte-identical
// to the historical fmt-based format (the golden digest tests pin it).
func (e Event) AppendTo(b []byte) []byte {
	b = appendPadded(b, e.Kind.String(), 12)
	b = append(b, " t="...)
	b = appendPadded(b, time.Duration(e.At).String(), 14)
	b = append(b, ' ')
	b = appendProc(b, e.Proc)
	if e.Peer != types.NoProc {
		b = append(b, "↔"...)
		b = appendProc(b, e.Peer)
	}
	if e.Round != 0 {
		b = append(b, ' ', 'r')
		b = strconv.AppendInt(b, int64(e.Round), 10)
	}
	if e.Value != "" {
		b = append(b, " val="...)
		b = append(b, e.Value...)
	}
	if e.Opt.Valid || e.Kind == KindEARelay {
		b = append(b, " opt="...)
		if e.Opt.Valid {
			b = append(b, e.Opt.V...)
		} else {
			b = append(b, "⊥"...)
		}
	}
	if e.Aux != "" {
		b = append(b, " ["...)
		b = append(b, e.Aux...)
		b = append(b, ']')
	}
	return b
}

// Sink consumes events. Implementations must be cheap; the hot path calls
// Emit for every message.
type Sink interface {
	Emit(Event)
}

// chunkSize is the fixed capacity of one log chunk. Chunked growth means a
// million-event log never copies recorded events: filling up allocates one
// fresh chunk instead of doubling-and-moving the whole history.
const chunkSize = 4096

// Log is an in-memory Sink. A nil *Log discards events, so callers can
// emit unconditionally. Storage is chunked; Events consolidates on demand
// for the replay-style consumers.
type Log struct {
	chunks [][]Event
	n      int
}

var _ Sink = (*Log)(nil)

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Emit appends the event. Safe on a nil receiver (drops the event).
func (l *Log) Emit(e Event) {
	if l == nil {
		return
	}
	if k := len(l.chunks); k == 0 || len(l.chunks[k-1]) >= chunkSize {
		l.chunks = append(l.chunks, make([]Event, 0, chunkSize))
	}
	l.chunks[len(l.chunks)-1] = append(l.chunks[len(l.chunks)-1], e)
	l.n++
}

// Events returns the recorded events in emission order; callers must not
// mutate the slice. Multi-chunk logs are consolidated into a single
// contiguous chunk first (the old chunks are released, so repeated calls
// cost nothing extra and the log is never held twice in memory).
func (l *Log) Events() []Event {
	if l == nil || l.n == 0 {
		return nil
	}
	if len(l.chunks) > 1 {
		flat := make([]Event, 0, l.n)
		for _, c := range l.chunks {
			flat = append(flat, c...)
		}
		l.chunks = append(l.chunks[:0], flat)
	}
	return l.chunks[0]
}

// ForEach calls fn on every recorded event in emission order without
// flattening (the digest and metrics paths iterate this way).
func (l *Log) ForEach(fn func(Event)) {
	if l == nil {
		return
	}
	for _, c := range l.chunks {
		for i := range c {
			fn(c[i])
		}
	}
}

// Len returns the number of recorded events (0 for nil).
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return l.n
}

// Filter returns the events matching every given predicate.
func (l *Log) Filter(preds ...func(Event) bool) []Event {
	if l == nil {
		return nil
	}
	var out []Event
	l.ForEach(func(e Event) {
		for _, p := range preds {
			if !p(e) {
				return
			}
		}
		out = append(out, e)
	})
	return out
}

// ByKind is a Filter predicate.
func ByKind(k Kind) func(Event) bool { return func(e Event) bool { return e.Kind == k } }

// ByProc is a Filter predicate.
func ByProc(p types.ProcID) func(Event) bool { return func(e Event) bool { return e.Proc == p } }

// ByRound is a Filter predicate.
func ByRound(r types.Round) func(Event) bool { return func(e Event) bool { return e.Round == r } }

// Dump renders the whole log, one event per line (test diagnostics).
func (l *Log) Dump() string {
	if l == nil {
		return ""
	}
	var b strings.Builder
	l.ForEach(func(e Event) {
		b.WriteString(e.String())
		b.WriteByte('\n')
	})
	return b.String()
}

// Recording reports whether the sink actually records events, so hot paths
// can skip event construction and the interface call with one branch.
func Recording(s Sink) bool {
	switch v := s.(type) {
	case nil:
		return false
	case *Log:
		return v != nil
	case Discard:
		return false
	default:
		return true
	}
}

// Discard is a Sink that drops everything (an explicit alternative to a
// nil *Log for APIs that want a non-nil Sink).
type Discard struct{}

var _ Sink = Discard{}

// Emit implements Sink.
func (Discard) Emit(Event) {}
